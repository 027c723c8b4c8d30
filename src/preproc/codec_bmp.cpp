#include <cstring>

#include "preproc/codec.hpp"

namespace harvest::preproc {
namespace {

// 24-bit uncompressed BMP: 14-byte file header + 40-byte BITMAPINFOHEADER,
// bottom-up rows padded to 4-byte boundaries, BGR order.

constexpr std::size_t kFileHeaderSize = 14;
constexpr std::size_t kInfoHeaderSize = 40;

void put_u16(std::vector<std::uint8_t>& out, std::size_t pos, std::uint16_t v) {
  out[pos] = static_cast<std::uint8_t>(v & 0xFF);
  out[pos + 1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::vector<std::uint8_t>& out, std::size_t pos, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

std::uint16_t get_u16(const std::vector<std::uint8_t>& bytes, std::size_t pos) {
  return static_cast<std::uint16_t>(bytes[pos] | (bytes[pos + 1] << 8));
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& bytes, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | bytes[pos + static_cast<std::size_t>(i)];
  }
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_bmp(const Image& image) {
  HARVEST_CHECK_MSG(image.channels() == 3, "BMP encoder expects RGB");
  const std::int64_t w = image.width();
  const std::int64_t h = image.height();
  const std::size_t row_bytes = (static_cast<std::size_t>(w) * 3 + 3) & ~3ULL;
  const std::size_t payload = row_bytes * static_cast<std::size_t>(h);
  std::vector<std::uint8_t> out(kFileHeaderSize + kInfoHeaderSize + payload, 0);

  out[0] = 'B';
  out[1] = 'M';
  put_u32(out, 2, static_cast<std::uint32_t>(out.size()));
  put_u32(out, 10, kFileHeaderSize + kInfoHeaderSize);
  put_u32(out, 14, kInfoHeaderSize);
  put_u32(out, 18, static_cast<std::uint32_t>(w));
  put_u32(out, 22, static_cast<std::uint32_t>(h));
  put_u16(out, 26, 1);   // planes
  put_u16(out, 28, 24);  // bpp
  put_u32(out, 34, static_cast<std::uint32_t>(payload));

  std::uint8_t* rows = out.data() + kFileHeaderSize + kInfoHeaderSize;
  for (std::int64_t y = 0; y < h; ++y) {
    std::uint8_t* dst = rows + static_cast<std::size_t>(h - 1 - y) * row_bytes;
    for (std::int64_t x = 0; x < w; ++x) {
      dst[x * 3 + 0] = image.at(x, y, 2);  // B
      dst[x * 3 + 1] = image.at(x, y, 1);  // G
      dst[x * 3 + 2] = image.at(x, y, 0);  // R
    }
  }
  return out;
}

core::Result<Image> decode_bmp(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFileHeaderSize + kInfoHeaderSize || bytes[0] != 'B' ||
      bytes[1] != 'M') {
    return core::Status::invalid_argument("not a BMP");
  }
  const std::uint32_t data_offset = get_u32(bytes, 10);
  const std::int64_t w = static_cast<std::int32_t>(get_u32(bytes, 18));
  const std::int64_t h = static_cast<std::int32_t>(get_u32(bytes, 22));
  const std::uint16_t bpp = get_u16(bytes, 28);
  if (w <= 0 || h <= 0 || bpp != 24) {
    return core::Status::invalid_argument("unsupported BMP variant");
  }
  const std::size_t row_bytes = (static_cast<std::size_t>(w) * 3 + 3) & ~3ULL;
  if (bytes.size() < data_offset + row_bytes * static_cast<std::size_t>(h)) {
    return core::Status::invalid_argument("truncated BMP payload");
  }
  Image img(w, h, 3);
  const std::uint8_t* rows = bytes.data() + data_offset;
  for (std::int64_t y = 0; y < h; ++y) {
    const std::uint8_t* src =
        rows + static_cast<std::size_t>(h - 1 - y) * row_bytes;
    for (std::int64_t x = 0; x < w; ++x) {
      img.at(x, y, 0) = src[x * 3 + 2];
      img.at(x, y, 1) = src[x * 3 + 1];
      img.at(x, y, 2) = src[x * 3 + 0];
    }
  }
  return img;
}

std::vector<std::uint8_t> encode_raw(const Image& image) {
  // 16-byte header (width, height as i64 LE) + interleaved RGB payload —
  // the shape of a camera frame grabbed over CSI/USB.
  std::vector<std::uint8_t> out(16 + image.byte_size());
  const std::int64_t w = image.width();
  const std::int64_t h = image.height();
  std::uint8_t* base = out.data();  // non-null: size >= 16 by construction
  HARVEST_CHECK(base != nullptr);
  std::memcpy(base, &w, 8);
  std::memcpy(base + 8, &h, 8);
  std::memcpy(base + 16, image.data(), image.byte_size());
  return out;
}

core::Result<PixelView> view_raw(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 16) return core::Status::invalid_argument("truncated RAW");
  std::int64_t w = 0;
  std::int64_t h = 0;
  std::memcpy(&w, bytes.data(), 8);
  std::memcpy(&h, bytes.data() + 8, 8);
  if (w <= 0 || h <= 0 || w > 1 << 20 || h > 1 << 20) {
    return core::Status::invalid_argument("bad RAW geometry");
  }
  const std::size_t expected = static_cast<std::size_t>(w * h * 3);
  if (bytes.size() - 16 < expected) {
    return core::Status::invalid_argument("truncated RAW payload");
  }
  return PixelView(bytes.data() + 16, w, h, 3);
}

core::Result<Image> decode_raw(const std::vector<std::uint8_t>& bytes) {
  auto view = view_raw(bytes);
  if (!view.is_ok()) return view.status();
  const PixelView& pixels = view.value();
  Image img(pixels.width, pixels.height, pixels.channels);
  std::memcpy(img.data(), pixels.data, img.byte_size());
  return img;
}

}  // namespace harvest::preproc
