#include "imaging/io.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace diffreg::imaging {

bool read_file(const std::string& path,
               std::initializer_list<std::span<std::byte>> parts,
               std::string* rest) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (errno == ENOENT) return false;
    throw std::runtime_error("cannot open " + path);
  }
  bool full = true;
  for (std::span<std::byte> part : parts)
    full = full && std::fread(part.data(), 1, part.size(), f) == part.size();
  char buf[4096];
  for (std::size_t got = 0;
       full && rest && (got = std::fread(buf, 1, sizeof buf, f)) > 0;)
    rest->append(buf, got);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw std::runtime_error("cannot read " + path);
  if (!full) throw std::runtime_error("truncated file " + path);
  return true;
}

void write_file_atomic(
    const std::string& path,
    std::initializer_list<std::span<const std::byte>> parts) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  bool ok = f != nullptr;
  for (std::span<const std::byte> part : parts)
    ok = ok && std::fwrite(part.data(), 1, part.size(), f) == part.size();
  if (f) ok = std::fclose(f) == 0 && ok;
  // The rename is what makes the write atomic: a crash before this point
  // leaves the previous file untouched.
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot write " + path);
  }
}

void write_raw_volume(const std::string& path, const Int3& dims,
                      std::span<const real_t> full) {
  if (static_cast<index_t>(full.size()) != dims.prod())
    throw std::invalid_argument("write_raw_volume: size mismatch");
  write_file_atomic(path + ".raw", {std::as_bytes(full)});
  const std::string header =
      "ObjectType = Image\nNDims = 3\nDimSize = " + std::to_string(dims[0]) +
      ' ' + std::to_string(dims[1]) + ' ' + std::to_string(dims[2]) +
      "\nElementType = MET_DOUBLE\nElementDataFile = " + path + ".raw\n";
  write_file_atomic(path + ".mhd", {std::as_bytes(std::span(header))});
}

std::vector<real_t> read_raw_volume(const std::string& path,
                                    const Int3& dims) {
  const std::string file = path + ".raw";
  std::vector<real_t> full(dims.prod());
  // The size is checked first, so a long file's tail is never read.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(file, ec);
  const std::uintmax_t want = std::as_bytes(std::span(full)).size();
  if (size != want && !ec)
    throw std::runtime_error(
        (size < want ? "truncated file " : "oversized file ") + file + ": " +
        std::to_string(size) + " bytes, the grid needs " +
        std::to_string(want));
  if (ec || !read_file(file, {std::as_writable_bytes(std::span(full))}))
    throw std::runtime_error("cannot open " + file);
  for (real_t x : full)
    if (!std::isfinite(x))
      throw std::runtime_error("non-finite value in " + file);
  return full;
}

void write_pgm_slice(const std::string& path, const Int3& dims,
                     std::span<const real_t> full, index_t slice, real_t lo,
                     real_t hi) {
  if (slice < 0 || slice >= dims[0])
    throw std::invalid_argument("write_pgm_slice: slice out of range");
  const real_t* plane = full.data() + slice * dims[1] * dims[2];
  const index_t n = dims[1] * dims[2];
  if (hi <= lo) {
    lo = *std::min_element(plane, plane + n);
    hi = *std::max_element(plane, plane + n);
    if (hi <= lo) hi = lo + 1;
  }
  const std::string header = "P5\n" + std::to_string(dims[2]) + ' ' +
                             std::to_string(dims[1]) + "\n255\n";
  std::vector<unsigned char> bytes(n);
  for (index_t i = 0; i < n; ++i) {
    const real_t t = std::clamp((plane[i] - lo) / (hi - lo), real_t(0),
                                real_t(1));
    bytes[i] = static_cast<unsigned char>(t * 255 + real_t(0.5));
  }
  write_file_atomic(path, {std::as_bytes(std::span(header)),
                           std::as_bytes(std::span(bytes))});
}

}  // namespace diffreg::imaging
