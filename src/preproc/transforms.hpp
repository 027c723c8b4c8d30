#pragma once

/// \file transforms.hpp
/// Image transforms of the preprocessing pipeline (§3.2): resize, crop,
/// pixel-wise normalization to a model-ready planar tensor, and the
/// perspective (homography) warp required by the CRSA ground-vehicle
/// camera feed.

#include <array>

#include "preproc/image.hpp"
#include "tensor/tensor.hpp"

namespace harvest::preproc {

enum class ResizeFilter { kNearest, kBilinear };

/// Resize to (out_w, out_h).
Image resize(const Image& input, std::int64_t out_w, std::int64_t out_h,
             ResizeFilter filter = ResizeFilter::kBilinear);

/// Crop a centered (size × size) square; the image must be at least that
/// large in both dimensions.
Image center_crop(const Image& input, std::int64_t size);

/// Per-channel normalization constants (fractions of full scale, the
/// torchvision convention).
struct Normalization {
  std::array<float, 3> mean = {0.485f, 0.456f, 0.406f};
  std::array<float, 3> stddev = {0.229f, 0.224f, 0.225f};
};

/// Convert HWC u8 [0,255] to planar CHW f32, scaled to [0,1] then
/// normalized: out[c] = (px/255 - mean[c]) / stddev[c]. Output shape
/// [C, H, W].
tensor::Tensor normalize_to_tensor(const Image& input, const Normalization& n);

/// Write the normalized image into `dst` at batch slot `slot`; `dst` must
/// be [N, C, H, W] matching the image geometry. Lets the batched
/// executor fill one contiguous tensor without staging copies.
void normalize_into(const PixelView& input, const Normalization& n,
                    tensor::Tensor& dst, std::int64_t slot);

/// A 3×3 projective transform mapping source → destination pixels.
class Homography {
 public:
  /// Identity transform.
  Homography();
  explicit Homography(const std::array<double, 9>& coefficients);

  /// Solve the homography that maps the four `src` corners onto the four
  /// `dst` corners (8-DOF DLT with Gaussian elimination). Returns an
  /// invalid-argument status for degenerate quads.
  static core::Result<Homography> from_quad(
      const std::array<std::array<double, 2>, 4>& src,
      const std::array<std::array<double, 2>, 4>& dst);

  /// Apply to a point.
  std::array<double, 2> apply(double x, double y) const;

  /// Inverse transform; fails when the matrix is singular.
  core::Result<Homography> inverse() const;

  const std::array<double, 9>& coefficients() const { return h_; }

 private:
  std::array<double, 9> h_;
};

/// Warp `input` through `h` (dst←src mapping is computed internally from
/// the inverse) into an (out_w × out_h) canvas with bilinear sampling;
/// out-of-bounds samples are black. This is the CRSA "perspective
/// transform" stage.
core::Result<Image> perspective_warp(const Image& input, const Homography& h,
                                     std::int64_t out_w, std::int64_t out_h);

/// The fused preprocessing pass: writes into `dst[slot]` (a [N, C, size,
/// size] tensor) exactly the floats of
///   normalize_into(resize(perspective_warp(src, *warp, w, h), size, size))
/// with the resize skipped when the frame is already size × size, and
/// with no warp when `warp` is null. It makes no intermediate image: for
/// each output pixel it takes the bilinear resize's four taps and
/// evaluates the warp only at those, so a 4K frame resized to 224² warps
/// about 2% of its pixels. Fails on `size` < 1 or a singular `warp`.
core::Status resize_normalize_into(const PixelView& src,
                                   const Homography* warp, std::int64_t size,
                                   const Normalization& n, tensor::Tensor& dst,
                                   std::int64_t slot);

/// The fixed ground-vehicle camera rectification used by the CRSA
/// pipeline: un-distorts the trapezoidal field-of-view of a forward
/// mounted camera into a top-down plot.
Homography crsa_rectification(std::int64_t width, std::int64_t height);

}  // namespace harvest::preproc
