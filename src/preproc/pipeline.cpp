#include "preproc/pipeline.hpp"

#include <atomic>

namespace harvest::preproc {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

const char* preproc_method_name(PreprocMethod method) {
  switch (method) {
    case PreprocMethod::kDali224: return "DALI 224";
    case PreprocMethod::kDali96: return "DALI 96";
    case PreprocMethod::kDali32: return "DALI 32";
    case PreprocMethod::kPyTorch: return "PyTorch";
    case PreprocMethod::kCv2: return "CV2";
  }
  return "?";
}

std::int64_t preproc_output_size(PreprocMethod method,
                                 std::int64_t model_input) {
  switch (method) {
    case PreprocMethod::kDali224: return 224;
    case PreprocMethod::kDali96: return 96;
    case PreprocMethod::kDali32: return 32;
    case PreprocMethod::kPyTorch:
    case PreprocMethod::kCv2: return model_input;
  }
  return model_input;
}

core::Status preprocess_into(const EncodedImage& encoded,
                             const PreprocSpec& spec, Tensor& dst,
                             std::int64_t slot) {
  // A raw frame is sampled in place; the other containers decode first.
  Image decoded;
  PixelView pixels;
  if (encoded.format == ImageFormat::kRaw) {
    auto view = view_raw(encoded.bytes);
    if (!view.is_ok()) return view.status();
    pixels = view.value();
  } else {
    auto image = decode_image(encoded);
    if (!image.is_ok()) return image.status();
    decoded = std::move(image).value();
    pixels = decoded;
  }
  if (!spec.perspective) {
    return resize_normalize_into(pixels, nullptr, spec.output_size, spec.norm,
                                 dst, slot);
  }
  const Homography h = crsa_rectification(pixels.width, pixels.height);
  return resize_normalize_into(pixels, &h, spec.output_size, spec.norm, dst,
                               slot);
}

namespace {

Tensor make_batch_tensor(std::size_t n, const PreprocSpec& spec) {
  return Tensor(Shape{static_cast<std::int64_t>(n), 3, spec.output_size,
                      spec.output_size},
                DType::kF32);
}

}  // namespace

core::Result<Tensor> CpuPipeline::run(std::span<const EncodedImage> inputs,
                                      const PreprocSpec& spec) {
  if (inputs.empty()) return core::Status::invalid_argument("empty batch");
  Tensor batch = make_batch_tensor(inputs.size(), spec);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    core::Status st = preprocess_into(inputs[i], spec, batch,
                                      static_cast<std::int64_t>(i));
    if (!st.is_ok()) return st;
  }
  return batch;
}

core::Result<Tensor> Cv2Pipeline::run(std::span<const EncodedImage> inputs,
                                      const PreprocSpec& spec) {
  if (inputs.empty()) return core::Status::invalid_argument("empty batch");
  PreprocSpec with_warp = spec;
  with_warp.perspective = true;
  Tensor batch = make_batch_tensor(inputs.size(), with_warp);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    core::Status st = preprocess_into(inputs[i], with_warp, batch,
                                      static_cast<std::int64_t>(i));
    if (!st.is_ok()) return st;
  }
  return batch;
}

core::Result<Tensor> DaliPipeline::run(std::span<const EncodedImage> inputs,
                                       const PreprocSpec& spec) {
  if (inputs.empty()) return core::Status::invalid_argument("empty batch");
  Tensor batch = make_batch_tensor(inputs.size(), spec);
  // One slot per image; failures are collected without data races and
  // the first failing status wins deterministically (lowest index).
  std::vector<core::Status> statuses(inputs.size());
  pool_->parallel_for(0, inputs.size(), [&](std::size_t i) {
    statuses[i] = preprocess_into(inputs[i], spec, batch,
                                  static_cast<std::int64_t>(i));
  });
  for (const core::Status& st : statuses) {
    if (!st.is_ok()) return st;
  }
  return batch;
}

}  // namespace harvest::preproc
