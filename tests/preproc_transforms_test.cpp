#include <gtest/gtest.h>

#include <cmath>

#include "preproc/transforms.hpp"

namespace harvest::preproc {
namespace {

Image constant_image(std::int64_t w, std::int64_t h, std::uint8_t value) {
  Image img(w, h, 3);
  for (std::size_t i = 0; i < img.byte_size(); ++i) img.data()[i] = value;
  return img;
}

// ----------------------------------------------------------------- resize

TEST(Resize, IdentityWhenSameSize) {
  const Image original = synthesize_field_image(24, 24, 1);
  const Image out = resize(original, 24, 24);
  EXPECT_EQ(mean_abs_diff(original, out), 0.0);
}

TEST(Resize, ConstantImageStaysConstant) {
  const Image flat = constant_image(37, 23, 99);
  for (ResizeFilter filter : {ResizeFilter::kNearest, ResizeFilter::kBilinear}) {
    const Image out = resize(flat, 224, 224, filter);
    for (std::size_t i = 0; i < out.byte_size(); ++i) {
      ASSERT_EQ(out.data()[i], 99);
    }
  }
}

TEST(Resize, OutputGeometry) {
  const Image original = synthesize_field_image(64, 48, 2);
  const Image out = resize(original, 100, 30);
  EXPECT_EQ(out.width(), 100);
  EXPECT_EQ(out.height(), 30);
  EXPECT_EQ(out.channels(), 3);
}

TEST(Resize, DownThenUpIsClose) {
  // A smooth image survives 2x down/up within a loose tolerance.
  const Image original = synthesize_field_image(64, 64, 3);
  const Image down = resize(original, 32, 32);
  const Image back = resize(down, 64, 64);
  EXPECT_LT(mean_abs_diff(original, back), 12.0);
}

TEST(Resize, NearestPreservesPalette) {
  // Nearest can only output values that exist in the input.
  Image two_tone(4, 4, 3);
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t x = 0; x < 4; ++x) {
      for (std::int64_t c = 0; c < 3; ++c) {
        two_tone.at(x, y, c) = x < 2 ? 10 : 240;
      }
    }
  }
  const Image out = resize(two_tone, 9, 9, ResizeFilter::kNearest);
  for (std::size_t i = 0; i < out.byte_size(); ++i) {
    EXPECT_TRUE(out.data()[i] == 10 || out.data()[i] == 240);
  }
}

// ------------------------------------------------------------------- crop

TEST(CenterCrop, TakesMiddleRegion) {
  Image img(6, 6, 3);
  for (std::int64_t y = 0; y < 6; ++y) {
    for (std::int64_t x = 0; x < 6; ++x) {
      for (std::int64_t c = 0; c < 3; ++c) {
        img.at(x, y, c) = static_cast<std::uint8_t>(y * 6 + x);
      }
    }
  }
  const Image crop = center_crop(img, 2);
  EXPECT_EQ(crop.width(), 2);
  EXPECT_EQ(crop.at(0, 0, 0), 2 * 6 + 2);
  EXPECT_EQ(crop.at(1, 1, 0), 3 * 6 + 3);
}

TEST(CenterCropDeath, RejectsOversizedCrop) {
  const Image img = constant_image(4, 4, 1);
  EXPECT_DEATH(center_crop(img, 5), "crop larger");
}

// -------------------------------------------------------------- normalize

TEST(Normalize, ValuesAndLayout) {
  Image img(2, 1, 3);
  img.at(0, 0, 0) = 255;  // R
  img.at(0, 0, 1) = 0;    // G
  img.at(0, 0, 2) = 128;  // B
  img.at(1, 0, 0) = 0;
  img.at(1, 0, 1) = 255;
  img.at(1, 0, 2) = 0;
  Normalization n;
  n.mean = {0.5f, 0.5f, 0.5f};
  n.stddev = {0.5f, 0.5f, 0.5f};
  tensor::Tensor out = normalize_to_tensor(img, n);
  EXPECT_EQ(out.shape(), tensor::Shape({3, 1, 2}));
  const float* d = out.f32();
  // Planar layout: R plane first (both pixels), then G, then B.
  EXPECT_NEAR(d[0], 1.0f, 1e-5f);             // (1.0-0.5)/0.5
  EXPECT_NEAR(d[1], -1.0f, 1e-5f);            // (0-0.5)/0.5
  EXPECT_NEAR(d[2], -1.0f, 1e-5f);            // G pixel 0
  EXPECT_NEAR(d[3], 1.0f, 1e-5f);             // G pixel 1
  EXPECT_NEAR(d[4], 128.0f / 255.0f * 2 - 1, 1e-4f);
  EXPECT_NEAR(d[5], -1.0f, 1e-5f);
}

TEST(Normalize, IntoBatchSlot) {
  const Image img = constant_image(4, 4, 255);
  Normalization n;
  n.mean = {0.0f, 0.0f, 0.0f};
  n.stddev = {1.0f, 1.0f, 1.0f};
  tensor::Tensor batch(tensor::Shape{2, 3, 4, 4}, tensor::DType::kF32);
  normalize_into(img, n, batch, 1);
  const float* d = batch.f32();
  for (int i = 0; i < 48; ++i) EXPECT_EQ(d[i], 0.0f);         // slot 0 untouched
  for (int i = 48; i < 96; ++i) EXPECT_NEAR(d[i], 1.0f, 1e-6f);  // slot 1
}

// ------------------------------------------------------------- homography

TEST(Homography, IdentityMapsPointsToThemselves) {
  Homography h;
  const auto p = h.apply(3.5, -2.0);
  EXPECT_DOUBLE_EQ(p[0], 3.5);
  EXPECT_DOUBLE_EQ(p[1], -2.0);
}

TEST(Homography, FromQuadMapsCornersExactly) {
  const std::array<std::array<double, 2>, 4> src = {
      {{10, 20}, {90, 15}, {95, 80}, {5, 85}}};
  const std::array<std::array<double, 2>, 4> dst = {
      {{0, 0}, {100, 0}, {100, 100}, {0, 100}}};
  auto result = Homography::from_quad(src, dst);
  ASSERT_TRUE(result.is_ok());
  for (int i = 0; i < 4; ++i) {
    const auto p = result.value().apply(src[static_cast<std::size_t>(i)][0],
                                        src[static_cast<std::size_t>(i)][1]);
    EXPECT_NEAR(p[0], dst[static_cast<std::size_t>(i)][0], 1e-6);
    EXPECT_NEAR(p[1], dst[static_cast<std::size_t>(i)][1], 1e-6);
  }
}

TEST(Homography, DegenerateQuadRejected) {
  const std::array<std::array<double, 2>, 4> collinear = {
      {{0, 0}, {1, 1}, {2, 2}, {3, 3}}};
  const std::array<std::array<double, 2>, 4> square = {
      {{0, 0}, {1, 0}, {1, 1}, {0, 1}}};
  EXPECT_FALSE(Homography::from_quad(collinear, square).is_ok());
}

TEST(Homography, InverseComposesToIdentity) {
  const std::array<std::array<double, 2>, 4> src = {
      {{12, 8}, {80, 12}, {88, 90}, {8, 82}}};
  const std::array<std::array<double, 2>, 4> dst = {
      {{0, 0}, {64, 0}, {64, 64}, {0, 64}}};
  auto forward = Homography::from_quad(src, dst);
  ASSERT_TRUE(forward.is_ok());
  auto backward = forward.value().inverse();
  ASSERT_TRUE(backward.is_ok());
  for (double x : {5.0, 30.0, 61.0}) {
    for (double y : {9.0, 44.0, 79.0}) {
      const auto mid = forward.value().apply(x, y);
      const auto back = backward.value().apply(mid[0], mid[1]);
      EXPECT_NEAR(back[0], x, 1e-6);
      EXPECT_NEAR(back[1], y, 1e-6);
    }
  }
}

TEST(PerspectiveWarp, IdentityPreservesImage) {
  const Image original = synthesize_field_image(32, 24, 4);
  auto warped = perspective_warp(original, Homography(), 32, 24);
  ASSERT_TRUE(warped.is_ok());
  EXPECT_EQ(mean_abs_diff(original, warped.value()), 0.0);
}

TEST(PerspectiveWarp, OutOfBoundsIsBlack) {
  const Image original = constant_image(10, 10, 200);
  // Shift right by 5: left half of output samples outside the input.
  Homography shift({1, 0, 5, 0, 1, 0, 0, 0, 1});
  auto warped = perspective_warp(original, shift, 10, 10);
  ASSERT_TRUE(warped.is_ok());
  EXPECT_EQ(warped.value().at(0, 5, 0), 0);    // outside
  EXPECT_EQ(warped.value().at(9, 5, 0), 200);  // inside
}

TEST(PerspectiveWarp, CrsaRectificationIsInvertibleAndFillsCenter) {
  const Homography h = crsa_rectification(384, 216);
  ASSERT_TRUE(h.inverse().is_ok());
  const Image frame = synthesize_field_image(384, 216, 5);
  auto warped = perspective_warp(frame, h, 384, 216);
  ASSERT_TRUE(warped.is_ok());
  // Bottom-center of the output comes from inside the trapezoid: not black.
  int nonzero = 0;
  for (std::int64_t x = 100; x < 284; ++x) {
    if (warped.value().at(x, 200, 1) > 0) ++nonzero;
  }
  EXPECT_GT(nonzero, 150);
}

TEST(ResizeNormalizeInto, SingularWarpAndEmptySizeRejected) {
  const Image frame = synthesize_field_image(16, 16, 6);
  tensor::Tensor dst(tensor::Shape{1, 3, 8, 8}, tensor::DType::kF32);
  const Homography singular({1, 2, 0, 2, 4, 0, 0, 0, 1});
  EXPECT_EQ(resize_normalize_into(frame, &singular, 8, Normalization{}, dst, 0)
                .code(),
            core::StatusCode::kInvalidArgument);
  EXPECT_EQ(resize_normalize_into(frame, nullptr, 0, Normalization{}, dst, 0)
                .code(),
            core::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace harvest::preproc
