#include "nn/serialize.hpp"

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace passflow::nn {

namespace {
constexpr char kMagic[] = "PFCKPT1\n";
constexpr std::size_t kMagicLen = 8;

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("checkpoint truncated");
  return v;
}

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("checkpoint truncated");
  return v;
}
}  // namespace

void save_params(std::ostream& out, const std::vector<Param*>& params) {
  out.write(kMagic, kMagicLen);
  write_u64(out, params.size());
  for (const Param* p : params) {
    write_u32(out, static_cast<std::uint32_t>(p->name.size()));
    out.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_u64(out, p->value.rows());
    write_u64(out, p->value.cols());
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  if (!out) throw std::runtime_error("checkpoint write failed");
}

void load_params(std::istream& in, const std::vector<Param*>& params) {
  char magic[kMagicLen];
  in.read(magic, kMagicLen);
  if (!in || std::string(magic, kMagicLen) != std::string(kMagic, kMagicLen)) {
    throw std::runtime_error("bad checkpoint magic");
  }
  const std::uint64_t count = read_u64(in);
  if (count != params.size()) {
    throw std::runtime_error("checkpoint has " + std::to_string(count) +
                             " params, model has " +
                             std::to_string(params.size()));
  }
  for (Param* p : params) {
    // Checked before sizing the buffer, so a corrupt length cannot make the
    // loader allocate gigabytes.
    const std::uint32_t name_len = read_u32(in);
    if (name_len != p->name.size()) {
      throw std::runtime_error("checkpoint param name mismatch: expected '" +
                               p->name + "', got a name of " +
                               std::to_string(name_len) + " bytes");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    if (!in || name != p->name) {
      throw std::runtime_error("checkpoint param name mismatch: expected '" +
                               p->name + "', got '" + name + "'");
    }
    const std::uint64_t rows = read_u64(in);
    const std::uint64_t cols = read_u64(in);
    if (rows != p->value.rows() || cols != p->value.cols()) {
      throw std::runtime_error("checkpoint shape mismatch for " + p->name);
    }
    in.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.size() * sizeof(float)));
    if (!in) throw std::runtime_error("checkpoint truncated in " + p->name);
  }
}

void save_params_file(const std::string& path,
                      const std::vector<Param*>& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save_params(out, params);
}

void load_params_file(const std::string& path,
                      const std::vector<Param*>& params) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  load_params(in, params);
}

}  // namespace passflow::nn
