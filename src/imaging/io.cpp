#include "imaging/io.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace diffreg::imaging {

void write_raw_volume(const std::string& path, const Int3& dims,
                      std::span<const real_t> full) {
  if (static_cast<index_t>(full.size()) != dims.prod())
    throw std::invalid_argument("write_raw_volume: size mismatch");
  {
    std::ofstream raw(path + ".raw", std::ios::binary);
    if (!raw) throw std::runtime_error("cannot open " + path + ".raw");
    raw.write(reinterpret_cast<const char*>(full.data()),
              static_cast<std::streamsize>(full.size() * sizeof(real_t)));
  }
  std::ofstream hdr(path + ".mhd");
  hdr << "ObjectType = Image\nNDims = 3\n"
      << "DimSize = " << dims[0] << ' ' << dims[1] << ' ' << dims[2] << '\n'
      << "ElementType = MET_DOUBLE\n"
      << "ElementDataFile = " << path << ".raw\n";
}

std::vector<real_t> read_raw_volume(const std::string& path,
                                    const Int3& dims) {
  std::ifstream raw(path + ".raw", std::ios::binary);
  if (!raw) throw std::runtime_error("cannot open " + path + ".raw");
  std::vector<real_t> full(dims.prod());
  raw.read(reinterpret_cast<char*>(full.data()),
           static_cast<std::streamsize>(full.size() * sizeof(real_t)));
  if (raw.gcount() !=
      static_cast<std::streamsize>(full.size() * sizeof(real_t)))
    throw std::runtime_error("read_raw_volume: truncated file " + path);
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
  std::ofstream pgm(path, std::ios::binary);
  if (!pgm) throw std::runtime_error("cannot open " + path);
  pgm << "P5\n" << dims[2] << ' ' << dims[1] << "\n255\n";
  std::vector<unsigned char> bytes(n);
  for (index_t i = 0; i < n; ++i) {
    const real_t t = std::clamp((plane[i] - lo) / (hi - lo), real_t(0),
                                real_t(1));
    bytes[i] = static_cast<unsigned char>(t * 255 + real_t(0.5));
  }
  pgm.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace diffreg::imaging
