/// Ablation I: the accuracy side of §3.1's precision trade-off
/// ("lower-precision formats like INT8 or FP16 offer faster inference
/// but may reduce accuracy"), measured with the *real* kernels: a float
/// classifier head versus its INT8-quantized counterpart over thousands
/// of synthetic feature vectors — prediction agreement, output error,
/// and the actual CPU kernel speed of both paths.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "core/time.hpp"
#include "core/units.hpp"
#include "nn/graph.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/quant.hpp"
#include "tensor/ops.hpp"

int main() {
  using namespace harvest;
  bench::banner("Ablation I", "INT8 vs float classifier heads: agreement, "
                "error and real kernel speed");

  api::Report report("ablation_quant_accuracy");
  core::TextTable table("");
  table.set_header({"head (in->out)", "argmax agreement", "rel. L2 error",
                    "float ms/10k rows", "int8 ms/10k rows", "speed"});

  core::Rng rng(33);
  for (const auto& [in_dim, out_dim] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {64, 8}, {192, 39}, {768, 39}}) {
    nn::Linear reference("head", in_dim, out_dim, 1);
    for (float& v : reference.weight().f32_span()) {
      v = (rng.next_float() - 0.5f) * 0.3f;
    }
    for (float& v : reference.bias().f32_span()) v = rng.next_float() - 0.5f;
    nn::Linear quantized("head.q", in_dim, out_dim, 1);
    std::copy_n(reference.weight().f32(), reference.weight().numel(),
                quantized.weight().f32());
    std::copy_n(reference.bias().f32(), reference.bias().numel(),
                quantized.bias().f32());
    quantized.quantize();

    constexpr std::int64_t kRows = 2000;
    tensor::Tensor input(tensor::Shape{kRows, in_dim}, tensor::DType::kF32);
    for (float& v : input.f32_span()) v = (rng.next_float() - 0.5f) * 2.0f;

    core::WallTimer float_timer;
    tensor::Tensor float_out = reference.forward(input);
    const double float_s = float_timer.elapsed_seconds();
    core::WallTimer quant_timer;
    tensor::Tensor quant_out = quantized.forward(input);
    const double quant_s = quant_timer.elapsed_seconds();

    std::int64_t agree = 0;
    double err_num = 0.0;
    double err_den = 0.0;
    for (std::int64_t r = 0; r < kRows; ++r) {
      std::span<const float> frow{float_out.f32() + r * out_dim,
                                  static_cast<std::size_t>(out_dim)};
      std::span<const float> qrow{quant_out.f32() + r * out_dim,
                                  static_cast<std::size_t>(out_dim)};
      if (tensor::argmax(frow) == tensor::argmax(qrow)) ++agree;
      for (std::int64_t c = 0; c < out_dim; ++c) {
        const double d = static_cast<double>(frow[static_cast<std::size_t>(c)] -
                                             qrow[static_cast<std::size_t>(c)]);
        err_num += d * d;
        err_den += static_cast<double>(frow[static_cast<std::size_t>(c)]) *
                   static_cast<double>(frow[static_cast<std::size_t>(c)]);
      }
    }
    const double agreement = static_cast<double>(agree) / kRows;
    const double rel_error = std::sqrt(err_num / err_den);
    const double scale = 1e4 / kRows;
    table.add_row({std::to_string(in_dim) + "->" + std::to_string(out_dim),
                   core::format_fixed(agreement * 100.0, 2) + "%",
                   core::format_fixed(rel_error * 100.0, 3) + "%",
                   core::format_fixed(float_s * 1e3 * scale, 2),
                   core::format_fixed(quant_s * 1e3 * scale, 2),
                   core::format_fixed(float_s / quant_s, 2) + "x"});
    core::Json row = core::Json::object();
    row["in_dim"] = core::Json(in_dim);
    row["out_dim"] = core::Json(out_dim);
    row["argmax_agreement"] = core::Json(agreement);
    row["relative_l2_error"] = core::Json(rel_error);
    row["float_seconds"] = core::Json(float_s);
    row["int8_seconds"] = core::Json(quant_s);
    report.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  // Whole-model view: the same comparison after nn::quantize_model has
  // switched every eligible layer to int8 (patch embed / attention
  // projections / MLPs / convs), i.e. the exact graph an
  // `"precision": "int8"` native deployment serves.
  core::TextTable model_table("full model (nn::quantize_model)");
  model_table.set_header({"model", "argmax agreement", "rel. L2 error",
                          "float s/batch", "int8 s/batch", "speed"});
  constexpr std::int64_t kBatch = 16;
  struct ModelCase {
    const char* label;
    nn::ModelPtr fp32;
    nn::ModelPtr int8;
  };
  nn::ResNetConfig resnet_config;
  resnet_config.name = "resnet_small";
  resnet_config.image = 32;
  resnet_config.stage_blocks = {1, 1};
  std::vector<ModelCase> cases;
  cases.push_back({"ViT-Tiny", nn::build_vit(nn::vit_tiny_config()),
                   nn::build_vit(nn::vit_tiny_config())});
  cases.push_back({"ResNet-small", nn::build_resnet(resnet_config),
                   nn::build_resnet(resnet_config)});
  for (ModelCase& c : cases) {
    nn::init_weights(*c.fp32, 42);
    nn::init_weights(*c.int8, 42);
    nn::quantize_model(*c.int8);

    const tensor::Shape& per_image = c.fp32->input_shape();
    tensor::Tensor input(tensor::Shape{kBatch, per_image.dim(0),
                                       per_image.dim(1), per_image.dim(2)},
                         tensor::DType::kF32);
    for (float& v : input.f32_span()) v = (rng.next_float() - 0.5f) * 2.0f;

    core::WallTimer float_timer;
    const tensor::Tensor float_out = c.fp32->forward(input);
    const double float_s = float_timer.elapsed_seconds();
    core::WallTimer quant_timer;
    const tensor::Tensor quant_out = c.int8->forward(input);
    const double quant_s = quant_timer.elapsed_seconds();

    const std::int64_t classes = c.fp32->num_classes();
    std::int64_t agree = 0;
    double err_num = 0.0;
    double err_den = 0.0;
    for (std::int64_t b = 0; b < kBatch; ++b) {
      std::span<const float> frow{float_out.f32() + b * classes,
                                  static_cast<std::size_t>(classes)};
      std::span<const float> qrow{quant_out.f32() + b * classes,
                                  static_cast<std::size_t>(classes)};
      if (tensor::argmax(frow) == tensor::argmax(qrow)) ++agree;
      for (std::int64_t k = 0; k < classes; ++k) {
        const double d =
            static_cast<double>(frow[static_cast<std::size_t>(k)] -
                                qrow[static_cast<std::size_t>(k)]);
        err_num += d * d;
        err_den += static_cast<double>(frow[static_cast<std::size_t>(k)]) *
                   static_cast<double>(frow[static_cast<std::size_t>(k)]);
      }
    }
    const double agreement = static_cast<double>(agree) / kBatch;
    const double rel_error =
        err_den > 0.0 ? std::sqrt(err_num / err_den) : 0.0;
    model_table.add_row({c.label,
                         core::format_fixed(agreement * 100.0, 2) + "%",
                         core::format_fixed(rel_error * 100.0, 3) + "%",
                         core::format_fixed(float_s, 3),
                         core::format_fixed(quant_s, 3),
                         core::format_fixed(float_s / quant_s, 2) + "x"});
    core::Json row = core::Json::object();
    row["model"] = core::Json(std::string(c.label));
    row["batch"] = core::Json(kBatch);
    row["argmax_agreement"] = core::Json(agreement);
    row["relative_l2_error"] = core::Json(rel_error);
    row["float_seconds"] = core::Json(float_s);
    row["int8_seconds"] = core::Json(quant_s);
    report.add_row(std::move(row));
  }
  std::printf("\n");
  std::fputs(model_table.render().c_str(), stdout);

  std::printf(
      "\nExpected shape: sub-percent head error / ~99%% head agreement and "
      "low-single-digit-percent logit error with matching top-1 for the full "
      "quantized graphs — quantifying why the paper can treat INT8 as a "
      "throughput lever with only a footnote on accuracy (§3.1). Speed here "
      "is one cold pass including per-call row quantization; tiny heads "
      "(out<=39) underfill the kernel's 16-wide panels, and the full-model "
      "ratio is diluted by the layers that stay fp32 (attention softmax, "
      "layernorm). The steady-state kernel speedup is measured by "
      "`qgemm_sweep` (gated >=2x on Linear/attention shapes).\n");
  bench::finish(report);
  return 0;
}
