#include "core/checkpoint.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "grid/field_io.hpp"
#include "imaging/io.hpp"

namespace diffreg::core {

namespace {

constexpr char kMagic[4] = {'D', 'R', 'C', 'K'};
constexpr std::uint32_t kVersion = 1;

/// Fixed-layout on-disk header (trivially copyable, broadcastable).
struct WireHeader {
  char magic[4];
  std::uint32_t version;
  std::int64_t fine[3];
  std::int64_t level[3];
  double beta;
  double beta_override;
  double gradient_reference;
  std::int32_t admissible;
  std::int32_t newton_iters_done;
};

WireHeader to_wire(const CheckpointHeader& h) {
  WireHeader w{};
  std::memcpy(w.magic, kMagic, sizeof kMagic);
  w.version = kVersion;
  for (int d = 0; d < 3; ++d) {
    w.fine[d] = h.fine_dims[d];
    w.level[d] = h.level_dims[d];
  }
  w.beta = h.beta;
  w.beta_override = h.beta_override;
  w.gradient_reference = h.gradient_reference;
  w.admissible = h.admissible ? 1 : 0;
  w.newton_iters_done = h.newton_iters_done;
  return w;
}

CheckpointHeader from_wire(const WireHeader& w) {
  CheckpointHeader h;
  for (int d = 0; d < 3; ++d) {
    h.fine_dims[d] = w.fine[d];
    h.level_dims[d] = w.level[d];
  }
  h.beta = w.beta;
  h.beta_override = w.beta_override;
  h.gradient_reference = w.gradient_reference;
  h.admissible = w.admissible != 0;
  h.newton_iters_done = w.newton_iters_done;
  return h;
}

/// Throws naming `path` unless `w` is a DRCK v1 header on valid grids and,
/// with `values`, holds values a solve can use.
void check_header(const WireHeader& w, const std::string& path,
                  bool values) {
  const auto require = [&](bool ok, const char* rule) {
    if (!ok)
      throw std::runtime_error(std::string("checkpoint ") + rule + ": " +
                               path);
  };
  require(std::memcmp(w.magic, kMagic, sizeof kMagic) == 0 &&
              w.version == kVersion,
          "is not a DRCK v1 file");
  for (int d = 0; d < 3; ++d)
    require(w.level[d] > 0 && w.fine[d] > 0, "grid dims are invalid");
  if (!values) return;
  require(std::isfinite(w.beta) && w.beta > 0, "beta is not finite and > 0");
  require(std::isfinite(w.beta_override), "beta_override is not finite");
  require(std::isfinite(w.gradient_reference) && w.gradient_reference >= 0,
          "gradient_reference is not finite and >= 0");
  require(w.admissible == 0 || w.admissible == 1, "admissible is not 0 or 1");
  require(w.newton_iters_done >= 0 && w.newton_iters_done <= kMaxNewtonIters,
          "newton_iters_done is not in [0, 2^20]");
}

}  // namespace

void write_checkpoint(grid::PencilDecomp& level_decomp,
                      const CheckpointHeader& header,
                      const grid::VectorField& velocity,
                      const std::string& path) {
  // Gather all three components first: the gathers are collective, so they
  // must complete on every rank before the root-only I/O outcome decides
  // whether to throw.
  std::vector<real_t> full[3];
  for (int d = 0; d < 3; ++d)
    full[d] = grid::gather_to_root(level_decomp,
                                   std::span<const real_t>(velocity[d]));
  const WireHeader wire = to_wire(header);
  imaging::root_io<CheckpointError>(level_decomp.comm(), [&] {
    imaging::write_file_atomic(
        path, {std::as_bytes(std::span(&wire, 1)),
               std::as_bytes(std::span(full[0])),
               std::as_bytes(std::span(full[1])),
               std::as_bytes(std::span(full[2]))});
  });
}

CheckpointHeader read_checkpoint_header(mpisim::Communicator& comm,
                                        const std::string& path) {
  std::vector<WireHeader> wire(1);
  imaging::root_io<CheckpointError>(comm, [&] {
    if (!imaging::read_file(path, {std::as_writable_bytes(std::span(wire))}))
      throw std::runtime_error("cannot open " + path);
    check_header(wire[0], path, /*values=*/true);
  });
  comm.broadcast(wire, 0);
  return from_wire(wire[0]);
}

grid::VectorField read_checkpoint_velocity(grid::PencilDecomp& level_decomp,
                                           const std::string& path) {
  std::vector<real_t> full[3];
  imaging::root_io<CheckpointError>(level_decomp.comm(), [&] {
    WireHeader wire{};
    for (auto& component : full)
      component.resize(static_cast<size_t>(level_decomp.dims().prod()));
    if (!imaging::read_file(path, {std::as_writable_bytes(std::span(&wire, 1)),
                                   std::as_writable_bytes(std::span(full[0])),
                                   std::as_writable_bytes(std::span(full[1])),
                                   std::as_writable_bytes(std::span(full[2]))}))
      throw std::runtime_error("cannot open " + path);
    check_header(wire, path, /*values=*/false);
    if (!(Int3{wire.level[0], wire.level[1], wire.level[2]} ==
          level_decomp.dims()))
      throw std::runtime_error("checkpoint grid dims do not match: " + path);
    for (const auto& component : full)
      if (grid::count_nonfinite(component) > 0)
        throw std::runtime_error("checkpoint velocity is not finite: " + path);
  });
  grid::VectorField v(level_decomp.local_real_size());
  for (int d = 0; d < 3; ++d)
    v[d] = grid::scatter_from_root(level_decomp,
                                   std::span<const real_t>(full[d]));
  return v;
}

std::function<void(const NewtonIterateInfo&)> checkpoint_hook(
    grid::PencilDecomp& decomp, const CheckpointHeader& base,
    const std::string& path, int every,
    std::function<void(const NewtonIterateInfo&)> caller) {
  return [&decomp, base, path, every,
          caller = std::move(caller)](const NewtonIterateInfo& info) {
    if (caller) caller(info);
    CheckpointHeader hdr = base;
    hdr.newton_iters_done += info.iterates_done;
    if (hdr.newton_iters_done % every != 0) return;
    hdr.gradient_reference = info.gradient_reference;
    write_checkpoint(decomp, hdr, *info.velocity, path);
  };
}

}  // namespace diffreg::core
