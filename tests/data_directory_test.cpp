#include "data/directory.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "preproc/image.hpp"

namespace harvest::data {
namespace {

namespace fs = std::filesystem;

/// Builds a small ImageFolder tree under TempDir and removes it after.
/// Each test gets its own tree: ctest runs the cases as parallel
/// processes, and a shared one would be removed under a sibling.
class DirectoryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            (std::string("field_data_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "blight");
    fs::create_directories(root_ / "healthy");
    write_sample(root_ / "healthy" / "a.ppm", preproc::ImageFormat::kPpm, 1);
    write_sample(root_ / "healthy" / "b.agj", preproc::ImageFormat::kAgJpeg, 2);
    write_sample(root_ / "blight" / "c.bmp", preproc::ImageFormat::kBmp, 3);
    write_sample(root_ / "blight" / "d.atif", preproc::ImageFormat::kAtif, 4);
    // Distractors that must be skipped.
    std::FILE* notes = std::fopen((root_ / "healthy" / "notes.txt").c_str(), "wb");
    std::fputs("not an image", notes);
    std::fclose(notes);
  }

  void TearDown() override { fs::remove_all(root_); }

  void write_sample(const fs::path& path, preproc::ImageFormat format,
                    std::uint64_t seed) {
    const preproc::Image img = preproc::synthesize_field_image(16, 12, seed);
    ASSERT_TRUE(
        write_encoded(preproc::encode_image(img, format), path.string())
            .is_ok());
  }

  fs::path root_;
};

TEST_F(DirectoryFixture, DiscoversClassesAndFiles) {
  auto dataset = DirectoryDataset::open(root_.string());
  ASSERT_TRUE(dataset.is_ok()) << dataset.status().to_string();
  EXPECT_EQ(dataset.value().size(), 4);
  EXPECT_EQ(dataset.value().num_classes(), 2);
  // Sorted class order: blight=0, healthy=1.
  EXPECT_EQ(dataset.value().class_names()[0], "blight");
  EXPECT_EQ(dataset.value().class_names()[1], "healthy");
  EXPECT_EQ(dataset.value().label(0), 0);  // blight/c.bmp
  EXPECT_EQ(dataset.value().label(2), 1);  // healthy/a.ppm
}

TEST_F(DirectoryFixture, LoadsAndDecodesEveryContainer) {
  auto dataset = DirectoryDataset::open(root_.string());
  ASSERT_TRUE(dataset.is_ok());
  for (std::int64_t i = 0; i < dataset.value().size(); ++i) {
    auto image = dataset.value().load(i);
    ASSERT_TRUE(image.is_ok()) << dataset.value().file_path(i);
    EXPECT_EQ(image.value().width, 16);
    EXPECT_EQ(image.value().height, 12);
    auto decoded = preproc::decode_image(image.value());
    EXPECT_TRUE(decoded.is_ok());
  }
}

TEST_F(DirectoryFixture, DeterministicOrdering) {
  auto a = DirectoryDataset::open(root_.string());
  auto b = DirectoryDataset::open(root_.string());
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  for (std::int64_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value().file_path(i), b.value().file_path(i));
  }
}

TEST_F(DirectoryFixture, FlatDirectoryIsUnlabeled) {
  const fs::path flat = fs::path(::testing::TempDir()) / "flat_feed";
  fs::remove_all(flat);
  fs::create_directories(flat);
  write_sample(flat / "frame0.raw", preproc::ImageFormat::kRaw, 9);
  auto dataset = DirectoryDataset::open(flat.string());
  ASSERT_TRUE(dataset.is_ok());
  EXPECT_EQ(dataset.value().size(), 1);
  EXPECT_EQ(dataset.value().num_classes(), 0);
  EXPECT_EQ(dataset.value().label(0), -1);
  fs::remove_all(flat);
}

TEST_F(DirectoryFixture, MissingRootFails) {
  EXPECT_FALSE(DirectoryDataset::open("/no/such/root").is_ok());
}

TEST_F(DirectoryFixture, EmptyTreeFails) {
  const fs::path empty = fs::path(::testing::TempDir()) / "empty_root";
  fs::remove_all(empty);
  fs::create_directories(empty / "class_a");
  EXPECT_FALSE(DirectoryDataset::open(empty.string()).is_ok());
  fs::remove_all(empty);
}

TEST(DirectoryFormats, ExtensionMapping) {
  EXPECT_EQ(DirectoryDataset::format_for("x.PPM"), preproc::ImageFormat::kPpm);
  EXPECT_EQ(DirectoryDataset::format_for("x.agj"),
            preproc::ImageFormat::kAgJpeg);
  EXPECT_EQ(DirectoryDataset::format_for("x.tar.atif"),
            preproc::ImageFormat::kAtif);
  EXPECT_FALSE(DirectoryDataset::format_for("x.jpg").has_value());
  EXPECT_FALSE(DirectoryDataset::format_for("noext").has_value());
}

}  // namespace
}  // namespace harvest::data
