#include "preproc/transforms.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "preproc/bilinear.hpp"

namespace harvest::preproc {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

Image resize(const Image& input, std::int64_t out_w, std::int64_t out_h,
             ResizeFilter filter) {
  HARVEST_CHECK_MSG(out_w > 0 && out_h > 0, "resize target must be positive");
  const std::int64_t in_w = input.width();
  const std::int64_t in_h = input.height();
  const std::int64_t channels = input.channels();
  Image out(out_w, out_h, channels);
  if (filter == ResizeFilter::kBilinear) {
    const PixelView in = input;
    const std::vector<AxisTap> cols = resize_taps(in_w, out_w);
    const std::vector<AxisTap> rows = resize_taps(in_h, out_h);
    for (std::int64_t y = 0; y < out_h; ++y) {
      for (std::int64_t x = 0; x < out_w; ++x) {
        bilinear_sample(in, cols[static_cast<std::size_t>(x)],
                        rows[static_cast<std::size_t>(y)], &out.at(x, y, 0));
      }
    }
    return out;
  }

  const double sx = static_cast<double>(in_w) / static_cast<double>(out_w);
  const double sy = static_cast<double>(in_h) / static_cast<double>(out_h);
  for (std::int64_t y = 0; y < out_h; ++y) {
    // Pixel-center sampling.
    const double src_y = (static_cast<double>(y) + 0.5) * sy - 0.5;
    const std::int64_t iy = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::lround(src_y)), 0, in_h - 1);
    for (std::int64_t x = 0; x < out_w; ++x) {
      const double src_x = (static_cast<double>(x) + 0.5) * sx - 0.5;
      const std::int64_t ix = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::lround(src_x)), 0, in_w - 1);
      for (std::int64_t c = 0; c < channels; ++c) {
        out.at(x, y, c) = input.at(ix, iy, c);
      }
    }
  }
  return out;
}

Image center_crop(const Image& input, std::int64_t size) {
  HARVEST_CHECK_MSG(input.width() >= size && input.height() >= size,
                    "crop larger than image");
  const std::int64_t x0 = (input.width() - size) / 2;
  const std::int64_t y0 = (input.height() - size) / 2;
  Image out(size, size, input.channels());
  for (std::int64_t y = 0; y < size; ++y) {
    for (std::int64_t x = 0; x < size; ++x) {
      for (std::int64_t c = 0; c < input.channels(); ++c) {
        out.at(x, y, c) = input.at(x0 + x, y0 + y, c);
      }
    }
  }
  return out;
}

Tensor normalize_to_tensor(const Image& input, const Normalization& n) {
  Tensor out(Shape{input.channels(), input.height(), input.width()},
             DType::kF32);
  Tensor batched = std::move(out).reshape(
      Shape{1, input.channels(), input.height(), input.width()});
  normalize_into(input, n, batched, 0);
  return std::move(batched).reshape(
      Shape{input.channels(), input.height(), input.width()});
}

void normalize_into(const PixelView& input, const Normalization& n,
                    Tensor& dst, std::int64_t slot) {
  const Shape& s = dst.shape();
  HARVEST_CHECK_MSG(s.rank() == 4 && s[1] == input.channels &&
                        s[2] == input.height && s[3] == input.width,
                    "normalize_into geometry mismatch");
  HARVEST_CHECK_MSG(slot >= 0 && slot < s[0], "batch slot out of range");
  const std::int64_t hw = input.height * input.width;
  float* base = dst.f32() + slot * input.channels * hw;
  for (std::int64_t c = 0; c < input.channels; ++c) {
    const float mean = n.mean[static_cast<std::size_t>(c % 3)];
    const float inv_std = 1.0f / n.stddev[static_cast<std::size_t>(c % 3)];
    float* plane = base + c * hw;
    for (std::int64_t i = 0; i < hw; ++i) {
      plane[i] = normalize_u8(input.data[i * input.channels + c], mean, inv_std);
    }
  }
}

core::Status resize_normalize_into(const PixelView& src,
                                   const Homography* warp, std::int64_t size,
                                   const Normalization& n, Tensor& dst,
                                   std::int64_t slot) {
  if (size < 1) {
    return core::Status::invalid_argument(
        "preprocessing output size must be positive (got " +
        std::to_string(size) + ")");
  }
  if (warp == nullptr && src.width == size && src.height == size) {
    normalize_into(src, n, dst, slot);
    return core::Status::ok();
  }
  Homography back;
  if (warp != nullptr) {
    auto inverse = warp->inverse();
    if (!inverse.is_ok()) return inverse.status();
    back = inverse.value();
  }
  const Shape& s = dst.shape();
  const std::int64_t channels = src.channels;
  HARVEST_CHECK_MSG(s.rank() == 4 && s[1] == channels && s[2] == size &&
                        s[3] == size,
                    "resize_normalize_into geometry mismatch");
  HARVEST_CHECK_MSG(slot >= 0 && slot < s[0], "batch slot out of range");

  // normalize_u8 of every u8 value, per channel.
  std::vector<float> lut(static_cast<std::size_t>(channels * 256));
  for (std::int64_t c = 0; c < channels; ++c) {
    const float mean = n.mean[static_cast<std::size_t>(c % 3)];
    const float inv_std = 1.0f / n.stddev[static_cast<std::size_t>(c % 3)];
    for (int v = 0; v < 256; ++v) {
      lut[static_cast<std::size_t>(c * 256 + v)] =
          normalize_u8(static_cast<std::uint8_t>(v), mean, inv_std);
    }
  }
  // The resize's taps; the warp keeps the frame's size, so they index
  // the warped frame as well.
  const std::vector<AxisTap> cols = resize_taps(src.width, size);
  const std::vector<AxisTap> rows = resize_taps(src.height, size);
  // The four warped taps of one output pixel (unused without a warp,
  // where a tap is the source pixel itself).
  std::vector<std::uint8_t> warped(static_cast<std::size_t>(4 * channels));
  const std::int64_t hw = size * size;
  float* base = dst.f32() + slot * channels * hw;
  for (std::int64_t y = 0; y < size; ++y) {
    const AxisTap ty = rows[static_cast<std::size_t>(y)];
    for (std::int64_t x = 0; x < size; ++x) {
      const AxisTap tx = cols[static_cast<std::size_t>(x)];
      const std::int64_t tap_x[4] = {tx.i0, tx.i1, tx.i0, tx.i1};
      const std::int64_t tap_y[4] = {ty.i0, ty.i0, ty.i1, ty.i1};
      const std::uint8_t* p[4];
      for (int k = 0; k < 4; ++k) {
        if (warp == nullptr) {
          p[k] = src.pixel(tap_x[k], tap_y[k]);
        } else {
          std::uint8_t* tap = warped.data() + k * channels;
          warp_sample(src, back, tap_x[k], tap_y[k], tap);
          p[k] = tap;
        }
      }
      float* out = base + y * size + x;
      for (std::int64_t c = 0; c < channels; ++c) {
        const std::uint8_t v =
            bilinear_blend(p[0][c], p[1][c], p[2][c], p[3][c], tx.w, ty.w);
        out[c * hw] = lut[static_cast<std::size_t>(c * 256 + v)];
      }
    }
  }
  return core::Status::ok();
}

Homography::Homography() : h_{1, 0, 0, 0, 1, 0, 0, 0, 1} {}

Homography::Homography(const std::array<double, 9>& coefficients)
    : h_(coefficients) {}

std::array<double, 2> Homography::apply(double x, double y) const {
  const double denom = h_[6] * x + h_[7] * y + h_[8];
  const double safe = std::abs(denom) < 1e-12 ? 1e-12 : denom;
  return {(h_[0] * x + h_[1] * y + h_[2]) / safe,
          (h_[3] * x + h_[4] * y + h_[5]) / safe};
}

namespace {

/// Solve a dense n×n system with partial pivoting; false when singular.
bool gaussian_solve(std::vector<double>& a, std::vector<double>& b, int n) {
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    for (int row = col + 1; row < n; ++row) {
      if (std::abs(a[static_cast<std::size_t>(row * n + col)]) >
          std::abs(a[static_cast<std::size_t>(pivot * n + col)])) {
        pivot = row;
      }
    }
    if (std::abs(a[static_cast<std::size_t>(pivot * n + col)]) < 1e-10) {
      return false;
    }
    if (pivot != col) {
      for (int k = 0; k < n; ++k) {
        std::swap(a[static_cast<std::size_t>(col * n + k)],
                  a[static_cast<std::size_t>(pivot * n + k)]);
      }
      std::swap(b[static_cast<std::size_t>(col)],
                b[static_cast<std::size_t>(pivot)]);
    }
    for (int row = col + 1; row < n; ++row) {
      const double factor = a[static_cast<std::size_t>(row * n + col)] /
                            a[static_cast<std::size_t>(col * n + col)];
      for (int k = col; k < n; ++k) {
        a[static_cast<std::size_t>(row * n + k)] -=
            factor * a[static_cast<std::size_t>(col * n + k)];
      }
      b[static_cast<std::size_t>(row)] -= factor * b[static_cast<std::size_t>(col)];
    }
  }
  for (int row = n - 1; row >= 0; --row) {
    double acc = b[static_cast<std::size_t>(row)];
    for (int k = row + 1; k < n; ++k) {
      acc -= a[static_cast<std::size_t>(row * n + k)] * b[static_cast<std::size_t>(k)];
    }
    b[static_cast<std::size_t>(row)] = acc / a[static_cast<std::size_t>(row * n + row)];
  }
  return true;
}

}  // namespace

core::Result<Homography> Homography::from_quad(
    const std::array<std::array<double, 2>, 4>& src,
    const std::array<std::array<double, 2>, 4>& dst) {
  // DLT: h maps src→dst with h8 = 1; 8 equations in 8 unknowns.
  std::vector<double> a(64, 0.0);
  std::vector<double> b(8, 0.0);
  for (int i = 0; i < 4; ++i) {
    const double x = src[static_cast<std::size_t>(i)][0];
    const double y = src[static_cast<std::size_t>(i)][1];
    const double u = dst[static_cast<std::size_t>(i)][0];
    const double v = dst[static_cast<std::size_t>(i)][1];
    double* row_u = a.data() + static_cast<std::size_t>(2 * i) * 8;
    double* row_v = a.data() + static_cast<std::size_t>(2 * i + 1) * 8;
    row_u[0] = x; row_u[1] = y; row_u[2] = 1;
    row_u[6] = -u * x; row_u[7] = -u * y;
    row_v[3] = x; row_v[4] = y; row_v[5] = 1;
    row_v[6] = -v * x; row_v[7] = -v * y;
    b[static_cast<std::size_t>(2 * i)] = u;
    b[static_cast<std::size_t>(2 * i + 1)] = v;
  }
  if (!gaussian_solve(a, b, 8)) {
    return core::Status::invalid_argument("degenerate quad for homography");
  }
  return Homography({b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], 1.0});
}

core::Result<Homography> Homography::inverse() const {
  // Adjugate / determinant of the 3×3 matrix.
  const auto& m = h_;
  const double det = m[0] * (m[4] * m[8] - m[5] * m[7]) -
                     m[1] * (m[3] * m[8] - m[5] * m[6]) +
                     m[2] * (m[3] * m[7] - m[4] * m[6]);
  if (std::abs(det) < 1e-12) {
    return core::Status::invalid_argument("homography is singular");
  }
  const double inv_det = 1.0 / det;
  return Homography({(m[4] * m[8] - m[5] * m[7]) * inv_det,
                     (m[2] * m[7] - m[1] * m[8]) * inv_det,
                     (m[1] * m[5] - m[2] * m[4]) * inv_det,
                     (m[5] * m[6] - m[3] * m[8]) * inv_det,
                     (m[0] * m[8] - m[2] * m[6]) * inv_det,
                     (m[2] * m[3] - m[0] * m[5]) * inv_det,
                     (m[3] * m[7] - m[4] * m[6]) * inv_det,
                     (m[1] * m[6] - m[0] * m[7]) * inv_det,
                     (m[0] * m[4] - m[1] * m[3]) * inv_det});
}

core::Result<Image> perspective_warp(const Image& input, const Homography& h,
                                     std::int64_t out_w, std::int64_t out_h) {
  auto inverse = h.inverse();
  if (!inverse.is_ok()) return inverse.status();
  const Homography& back = inverse.value();

  const PixelView in = input;
  Image out(out_w, out_h, in.channels);
  for (std::int64_t y = 0; y < out_h; ++y) {
    for (std::int64_t x = 0; x < out_w; ++x) {
      warp_sample(in, back, x, y, &out.at(x, y, 0));
    }
  }
  return out;
}

Homography crsa_rectification(std::int64_t width, std::int64_t height) {
  // Forward-mounted camera: the ground plane appears as a trapezoid
  // (narrow at the top of the frame). Map that trapezoid to the full
  // rectangle — the standard inverse-perspective mapping.
  const double w = static_cast<double>(width);
  const double h = static_cast<double>(height);
  const std::array<std::array<double, 2>, 4> src = {{
      {w * 0.30, h * 0.35},  // top-left of trapezoid
      {w * 0.70, h * 0.35},  // top-right
      {w * 1.00, h * 1.00},  // bottom-right
      {w * 0.00, h * 1.00},  // bottom-left
  }};
  const std::array<std::array<double, 2>, 4> dst = {{
      {0.0, 0.0}, {w, 0.0}, {w, h}, {0.0, h}}};
  auto result = Homography::from_quad(src, dst);
  HARVEST_CHECK_MSG(result.is_ok(), "fixed rectification quad is valid");
  return result.value();
}

}  // namespace harvest::preproc
