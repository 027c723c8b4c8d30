#pragma once

/// \file codec.hpp
/// Image container formats of the preprocessing substrate. Each dataset
/// in Table 2 arrives in a specific encoding (the paper attributes the
/// CPU-baseline variance across datasets to "differences in image
/// encoding formats (e.g., TIFF vs JPEG)", §4.2); these codecs make that
/// dimension real:
///
///   * kPpm    — PPM P6, trivial uncompressed container.
///   * kBmp    — 24-bit uncompressed Windows bitmap.
///   * kAtif   — "Ag-TIFF": LZW-compressed raster (lossless, TIFF stand-in).
///   * kAgJpeg — a real lossy DCT codec (8×8 DCT → quantize → zigzag →
///               RLE/varint entropy coding), the JPEG stand-in. Decoding
///               cost scales with pixel count exactly like real JPEG.
///   * kRaw    — camera feed, no container (CRSA frames).

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "preproc/image.hpp"

namespace harvest::preproc {

enum class ImageFormat : std::uint8_t { kPpm, kBmp, kAtif, kAgJpeg, kRaw };

const char* format_name(ImageFormat format);

/// An encoded image plus enough metadata to reason about it without
/// decoding (the dataset generators tag samples with their true size).
struct EncodedImage {
  ImageFormat format = ImageFormat::kRaw;
  std::int64_t width = 0;
  std::int64_t height = 0;
  std::vector<std::uint8_t> bytes;
};

/// Encode with the given container. `quality` only affects kAgJpeg
/// (1 = coarsest quantization, 100 = finest).
EncodedImage encode_image(const Image& image, ImageFormat format,
                          int quality = 85);

/// Decode any supported container (dispatches on `encoded.format`).
core::Result<Image> decode_image(const EncodedImage& encoded);

// Per-format entry points (implemented in codec_*.cpp).
std::vector<std::uint8_t> encode_ppm(const Image& image);
core::Result<Image> decode_ppm(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_bmp(const Image& image);
core::Result<Image> decode_bmp(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_atif(const Image& image);
core::Result<Image> decode_atif(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_agjpeg(const Image& image, int quality);
core::Result<Image> decode_agjpeg(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_raw(const Image& image);
core::Result<Image> decode_raw(const std::vector<std::uint8_t>& bytes);

/// Validate a raw frame's 16-byte header and payload length and view its
/// pixels in place, without the copy `decode_raw` makes (which runs the
/// same checks through this function). The view borrows `bytes`.
core::Result<PixelView> view_raw(const std::vector<std::uint8_t>& bytes);
core::Result<PixelView> view_raw(const std::vector<std::uint8_t>&&) = delete;

}  // namespace harvest::preproc
