#pragma once

/// \file image.hpp
/// The raw image type of the preprocessing library: interleaved 8-bit
/// RGB (HWC), the layout cameras and decoders produce. Model-ready
/// tensors (planar CHW f32) are produced by `transforms.hpp`.

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "core/status.hpp"

namespace harvest::preproc {

class Image {
 public:
  Image() = default;
  Image(std::int64_t width, std::int64_t height, std::int64_t channels = 3)
      : width_(width), height_(height), channels_(channels),
        pixels_(static_cast<std::size_t>(width * height * channels), 0) {
    HARVEST_CHECK_MSG(width > 0 && height > 0 && channels > 0,
                      "image dims must be positive");
  }

  std::int64_t width() const { return width_; }
  std::int64_t height() const { return height_; }
  std::int64_t channels() const { return channels_; }
  std::int64_t pixel_count() const { return width_ * height_; }
  std::size_t byte_size() const { return pixels_.size(); }
  bool empty() const { return pixels_.empty(); }

  std::uint8_t* data() { return pixels_.data(); }
  const std::uint8_t* data() const { return pixels_.data(); }

  /// Channel `c` of pixel (x, y); bounds-checked in debug via at().
  std::uint8_t& at(std::int64_t x, std::int64_t y, std::int64_t c) {
    return pixels_[static_cast<std::size_t>((y * width_ + x) * channels_ + c)];
  }
  std::uint8_t at(std::int64_t x, std::int64_t y, std::int64_t c) const {
    return pixels_[static_cast<std::size_t>((y * width_ + x) * channels_ + c)];
  }

  bool same_dims(const Image& other) const {
    return width_ == other.width_ && height_ == other.height_ &&
           channels_ == other.channels_;
  }

 private:
  std::int64_t width_ = 0;
  std::int64_t height_ = 0;
  std::int64_t channels_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// A read-only window onto interleaved 8-bit pixels (HWC, rows packed)
/// that something else owns: an `Image`, or the payload of an encoded
/// raw frame. Made implicitly from an `Image`, as a `string_view` is
/// from a `string`; it must not outlive the pixels.
struct PixelView {
  const std::uint8_t* data = nullptr;
  std::int64_t width = 0;
  std::int64_t height = 0;
  std::int64_t channels = 0;

  PixelView() = default;
  PixelView(const std::uint8_t* pixels, std::int64_t w, std::int64_t h,
            std::int64_t c)
      : data(pixels), width(w), height(h), channels(c) {}
  PixelView(const Image& image)  // NOLINT(google-explicit-constructor)
      : data(image.data()), width(image.width()), height(image.height()),
        channels(image.channels()) {}

  /// The `channels` bytes of pixel (x, y).
  const std::uint8_t* pixel(std::int64_t x, std::int64_t y) const {
    return data + (y * width + x) * channels;
  }
};

/// Synthesize a deterministic "field plot" image: low-frequency green /
/// soil gradients plus plant-like blobs and sensor noise. Statistically
/// closer to agricultural imagery than white noise (and, importantly,
/// compressible — the lossy codec behaves realistically on it).
Image synthesize_field_image(std::int64_t width, std::int64_t height,
                             std::uint64_t seed);

/// Mean absolute per-channel difference between two equally sized
/// images; used by codec round-trip tests.
double mean_abs_diff(const Image& a, const Image& b);

}  // namespace harvest::preproc
