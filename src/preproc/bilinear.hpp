#pragma once

/// \file bilinear.hpp
/// Private to the preprocessing library: the per-pixel arithmetic that
/// `resize`, `perspective_warp`, `normalize_into` and the fused
/// `resize_normalize_into` share. It exists once, so the fused pass and
/// the chain of transforms round to u8 at the same points with the same
/// double-precision expressions and stay byte-identical.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "preproc/image.hpp"
#include "preproc/transforms.hpp"

namespace harvest::preproc {

/// The two integer neighbours of a sample coordinate along one axis and
/// the weight of the second.
struct AxisTap {
  std::int64_t i0, i1;
  double w;
};

/// Taps of the coordinate `f`, which must lie in [0, n-1].
inline AxisTap axis_tap(double f, std::int64_t n) {
  const auto i0 = static_cast<std::int64_t>(f);
  return {i0, std::min(i0 + 1, n - 1), f - static_cast<double>(i0)};
}

/// The bilinear resize's taps along one axis of `in` pixels resampled to
/// `out`: pixel-centre sampling, clamped to the edge.
inline std::vector<AxisTap> resize_taps(std::int64_t in, std::int64_t out) {
  const double scale = static_cast<double>(in) / static_cast<double>(out);
  std::vector<AxisTap> taps(static_cast<std::size_t>(out));
  for (std::int64_t i = 0; i < out; ++i) {
    const double f = (static_cast<double>(i) + 0.5) * scale - 0.5;
    taps[static_cast<std::size_t>(i)] =
        axis_tap(std::clamp(f, 0.0, static_cast<double>(in - 1)), in);
  }
  return taps;
}

/// Blend one channel of the four neighbours, rounded to the nearest u8.
inline std::uint8_t bilinear_blend(std::uint8_t p00, std::uint8_t p10,
                                   std::uint8_t p01, std::uint8_t p11,
                                   double wx, double wy) {
  const double top =
      static_cast<double>(p00) * (1 - wx) + static_cast<double>(p10) * wx;
  const double bottom =
      static_cast<double>(p01) * (1 - wx) + static_cast<double>(p11) * wx;
  return static_cast<std::uint8_t>(
      std::clamp(top * (1 - wy) + bottom * wy + 0.5, 0.0, 255.0));
}

/// Every channel of `src` blended from the neighbours (tx, ty).
inline void bilinear_sample(const PixelView& src, AxisTap tx, AxisTap ty,
                            std::uint8_t* out) {
  const std::uint8_t* p00 = src.pixel(tx.i0, ty.i0);
  const std::uint8_t* p10 = src.pixel(tx.i1, ty.i0);
  const std::uint8_t* p01 = src.pixel(tx.i0, ty.i1);
  const std::uint8_t* p11 = src.pixel(tx.i1, ty.i1);
  for (std::int64_t c = 0; c < src.channels; ++c) {
    out[c] = bilinear_blend(p00[c], p10[c], p01[c], p11[c], tx.w, ty.w);
  }
}

/// Pixel (x, y) of `src` warped through a homography whose inverse is
/// `back`: black where the source point falls outside the frame.
inline void warp_sample(const PixelView& src, const Homography& back,
                        std::int64_t x, std::int64_t y, std::uint8_t* out) {
  const auto p = back.apply(static_cast<double>(x), static_cast<double>(y));
  if (p[0] < 0.0 || p[1] < 0.0 || p[0] > static_cast<double>(src.width - 1) ||
      p[1] > static_cast<double>(src.height - 1)) {
    std::fill(out, out + src.channels, std::uint8_t{0});
    return;
  }
  bilinear_sample(src, axis_tap(p[0], src.width), axis_tap(p[1], src.height),
                  out);
}

/// One normalized channel value: u8 → [0,1] → (v - mean) * inv_std.
inline float normalize_u8(std::uint8_t v, float mean, float inv_std) {
  return (static_cast<float>(v) / 255.0f - mean) * inv_std;
}

}  // namespace harvest::preproc
