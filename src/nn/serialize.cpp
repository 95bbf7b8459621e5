#include "nn/serialize.hpp"

#include "util/log.hpp"

#include <cstdint>
#include <fstream>
#include <unordered_map>

namespace dg::nn {
namespace {

constexpr char kMagic[4] = {'D', 'G', 'T', 'P'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

bool save_params(const std::string& path, const NamedParams& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(kMagic, 4);
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint32_t>(params.size()));
  for (const auto& [name, t] : params) {
    write_pod(out, static_cast<std::uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    const Matrix& m = t.value();
    write_pod(out, static_cast<std::int32_t>(m.rows()));
    write_pod(out, static_cast<std::int32_t>(m.cols()));
    out.write(reinterpret_cast<const char*>(m.data()),
              static_cast<std::streamsize>(m.size() * sizeof(float)));
  }
  return static_cast<bool>(out);
}

bool load_params(const std::string& path, NamedParams& params) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff file_size = in.tellg();
  in.seekg(0);
  // Bytes left after the read position: no size field may claim more.
  const auto remaining = [&] {
    return static_cast<std::uint64_t>(file_size - static_cast<std::streamoff>(in.tellg()));
  };
  char magic[4];
  in.read(magic, 4);
  if (!in || std::string(magic, 4) != std::string(kMagic, 4)) return false;
  std::uint32_t version = 0, count = 0;
  if (!read_pod(in, version) || version != kVersion) return false;
  if (!read_pod(in, count)) return false;

  std::unordered_map<std::string, Matrix> loaded;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t name_len = 0;
    if (!read_pod(in, name_len) || name_len > remaining()) return false;
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    std::int32_t rows = 0, cols = 0;
    if (!read_pod(in, rows) || !read_pod(in, cols)) return false;
    if (rows < 0 || cols < 0) return false;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols) * sizeof(float);
    if (bytes > remaining()) {
      util::log_warn("checkpoint entry '", name, "' claims ", rows, "x", cols,
                     " floats past the end of the file");
      return false;
    }
    Matrix m(rows, cols);
    in.read(reinterpret_cast<char*>(m.data()), static_cast<std::streamsize>(bytes));
    if (!in) return false;
    loaded.emplace(std::move(name), std::move(m));
  }

  // All-or-nothing: validate every name and shape before the first write,
  // so a rejected checkpoint leaves the model exactly as it was.
  for (const auto& [name, t] : params) {
    const auto it = loaded.find(name);
    if (it == loaded.end()) {
      util::log_warn("checkpoint missing parameter '", name, "'");
      return false;
    }
    if (!it->second.same_shape(t.value())) {
      util::log_warn("checkpoint shape mismatch for '", name, "'");
      return false;
    }
  }
  for (auto& [name, t] : params) t.mutable_value() = std::move(loaded.at(name));
  return true;
}

}  // namespace dg::nn
