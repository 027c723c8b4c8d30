#include "nn/serialize.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

namespace harvest::nn {
namespace {

constexpr char kMagic[4] = {'H', 'V', 'S', 'T'};
constexpr std::uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool write_all(std::FILE* f, const void* data, std::size_t bytes) {
  return std::fwrite(data, 1, bytes, f) == bytes;
}

bool read_all(std::FILE* f, void* data, std::size_t bytes) {
  return std::fread(data, 1, bytes, f) == bytes;
}

}  // namespace

core::Status save_params(const std::vector<NamedParam>& params,
                         const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return core::Status::internal("cannot open " + path + " for write");

  const std::uint64_t count = params.size();
  if (!write_all(f.get(), kMagic, sizeof(kMagic)) ||
      !write_all(f.get(), &kVersion, sizeof(kVersion)) ||
      !write_all(f.get(), &count, sizeof(count))) {
    return core::Status::internal("write failed: " + path);
  }
  for (const NamedParam& param : params) {
    const auto name_len = static_cast<std::uint32_t>(param.name.size());
    const auto rank = static_cast<std::uint8_t>(param.tensor->shape().rank());
    if (!write_all(f.get(), &name_len, sizeof(name_len)) ||
        !write_all(f.get(), param.name.data(), name_len) ||
        !write_all(f.get(), &rank, sizeof(rank))) {
      return core::Status::internal("write failed: " + path);
    }
    for (std::size_t d = 0; d < rank; ++d) {
      const std::int64_t dim = param.tensor->shape()[d];
      if (!write_all(f.get(), &dim, sizeof(dim))) {
        return core::Status::internal("write failed: " + path);
      }
    }
    if (!write_all(f.get(), param.tensor->f32(), param.tensor->size_bytes())) {
      return core::Status::internal("write failed: " + path);
    }
  }
  return core::Status::ok();
}

core::Status load_params(const std::vector<NamedParam>& params,
                         const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return core::Status::not_found("cannot open " + path);

  char magic[4];
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!read_all(f.get(), magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return core::Status::invalid_argument(path + ": not a HVST checkpoint");
  }
  if (!read_all(f.get(), &version, sizeof(version)) || version != kVersion) {
    return core::Status::invalid_argument(path + ": unsupported version");
  }
  if (!read_all(f.get(), &count, sizeof(count))) {
    return core::Status::invalid_argument(path + ": truncated header");
  }

  std::map<std::string, NamedParam> by_name;
  for (const NamedParam& param : params) by_name[param.name] = param;
  std::set<std::string> seen;
  if (count != by_name.size()) {
    return core::Status::invalid_argument(
        path + ": tensor count mismatch (file " + std::to_string(count) +
        ", model " + std::to_string(by_name.size()) + ")");
  }

  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t name_len = 0;
    if (!read_all(f.get(), &name_len, sizeof(name_len)) || name_len > 4096) {
      return core::Status::invalid_argument(path + ": corrupt tensor name");
    }
    std::string name(name_len, '\0');
    std::uint8_t rank = 0;
    if (!read_all(f.get(), name.data(), name_len) ||
        !read_all(f.get(), &rank, sizeof(rank)) ||
        rank > tensor::Shape::kMaxRank) {
      return core::Status::invalid_argument(path + ": corrupt tensor header");
    }
    tensor::Shape shape;
    {
      std::int64_t dims[tensor::Shape::kMaxRank] = {};
      for (std::size_t d = 0; d < rank; ++d) {
        if (!read_all(f.get(), &dims[d], sizeof(dims[d])) || dims[d] <= 0) {
          return core::Status::invalid_argument(path + ": corrupt dims");
        }
      }
      switch (rank) {
        case 0: shape = tensor::Shape{}; break;
        case 1: shape = tensor::Shape{dims[0]}; break;
        case 2: shape = tensor::Shape{dims[0], dims[1]}; break;
        case 3: shape = tensor::Shape{dims[0], dims[1], dims[2]}; break;
        case 4: shape = tensor::Shape{dims[0], dims[1], dims[2], dims[3]}; break;
        default:
          shape = tensor::Shape{dims[0], dims[1], dims[2], dims[3], dims[4]};
      }
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return core::Status::invalid_argument(path + ": unknown tensor " + name);
    }
    // The count matches the model's, so a record stored twice means
    // another one is missing, and that tensor would keep its old values.
    if (!seen.insert(name).second) {
      return core::Status::invalid_argument(path + ": duplicate tensor " +
                                            name);
    }
    if (it->second.tensor->shape() != shape) {
      return core::Status::invalid_argument(
          path + ": shape mismatch for " + name + " (file " +
          shape.to_string() + ", model " +
          it->second.tensor->shape().to_string() + ")");
    }
    if (!read_all(f.get(), it->second.tensor->f32(),
                  it->second.tensor->size_bytes())) {
      return core::Status::invalid_argument(path + ": truncated data for " + name);
    }
  }
  if (std::fgetc(f.get()) != EOF) {
    return core::Status::invalid_argument(
        path + ": trailing bytes after the last tensor");
  }
  return core::Status::ok();
}

core::Status save_weights(Model& model, const std::string& path) {
  return save_params(model.params(), path);
}

core::Status load_weights(Model& model, const std::string& path) {
  return load_params(model.params(), path);
}

}  // namespace harvest::nn
