#pragma once

/// \file pipeline.hpp
/// Preprocessing executors. Three concrete pipelines mirror the
/// frameworks evaluated in §4.2 of the paper:
///
///   * `CpuPipeline`  — torchvision-style: one image at a time on the
///     CPU (the paper's "PyTorch @BS1" baseline).
///   * `Cv2Pipeline`  — OpenCV-style CPU path that adds the perspective
///     rectification the CRSA camera feed needs ("CV2 @BS1").
///   * `DaliPipeline` — DALI-style batched executor: decodes and
///     transforms a whole batch in parallel on a thread pool and fills
///     one contiguous output tensor ("DALI <res> @BS64").
///
/// All three produce the same model-ready [N, 3, S, S] f32 tensor, so
/// they are interchangeable inside the serving backend.

#include <span>
#include <string>

#include "core/thread_pool.hpp"
#include "preproc/codec.hpp"
#include "preproc/transforms.hpp"
#include "tensor/tensor.hpp"

namespace harvest::preproc {

/// Which preprocessing framework/output combination to run — the method
/// axis of Fig. 7.
enum class PreprocMethod { kDali224, kDali96, kDali32, kPyTorch, kCv2 };

const char* preproc_method_name(PreprocMethod method);

/// Output resolution of a method (kPyTorch/kCv2 use the model's input
/// size, passed as `model_input`).
std::int64_t preproc_output_size(PreprocMethod method, std::int64_t model_input);

/// What a model family requires of its inputs (§3.2: "each model family
/// is paired with its own preprocessing method").
struct PreprocSpec {
  std::int64_t output_size = 224;
  Normalization norm;
  /// Dataset-specific stage: apply the CRSA inverse-perspective mapping
  /// before resizing (ground-vehicle camera feeds).
  bool perspective = false;
};

class PreprocPipeline {
 public:
  virtual ~PreprocPipeline() = default;
  virtual const std::string& name() const = 0;

  /// Decode + transform `inputs` into one [N, 3, S, S] tensor.
  virtual core::Result<tensor::Tensor> run(
      std::span<const EncodedImage> inputs, const PreprocSpec& spec) = 0;
};

/// Sequential per-image CPU pipeline (torchvision-like).
class CpuPipeline final : public PreprocPipeline {
 public:
  const std::string& name() const override { return name_; }
  core::Result<tensor::Tensor> run(std::span<const EncodedImage> inputs,
                                   const PreprocSpec& spec) override;

 private:
  std::string name_ = "pytorch-cpu";
};

/// CPU pipeline with mandatory perspective rectification (OpenCV-like).
class Cv2Pipeline final : public PreprocPipeline {
 public:
  const std::string& name() const override { return name_; }
  core::Result<tensor::Tensor> run(std::span<const EncodedImage> inputs,
                                   const PreprocSpec& spec) override;

 private:
  std::string name_ = "cv2-cpu";
};

/// Batched, thread-parallel pipeline (DALI-like). Does not own the pool.
class DaliPipeline final : public PreprocPipeline {
 public:
  explicit DaliPipeline(core::ThreadPool& pool) : pool_(&pool) {}
  const std::string& name() const override { return name_; }
  core::Result<tensor::Tensor> run(std::span<const EncodedImage> inputs,
                                   const PreprocSpec& spec) override;

 private:
  std::string name_ = "dali-batched";
  core::ThreadPool* pool_;
};

/// Shared single-image path: decode, then the fused optional perspective
/// → resize → normalize pass (`resize_normalize_into`) into `dst[slot]`.
/// Raw frames are read in place (`view_raw`), not copied. Fails on a
/// corrupt image or an output size < 1.
core::Status preprocess_into(const EncodedImage& encoded,
                             const PreprocSpec& spec, tensor::Tensor& dst,
                             std::int64_t slot);

}  // namespace harvest::preproc
