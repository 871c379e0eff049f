#include "core/plan_registry.hpp"

namespace diffreg::core {

// Leased handles borrow from the registry's maps (a SpectralOps references
// its PencilDecomp, a Transport or ResamplePlan its SpectralOps), so every
// lease is valid for the registry's lifetime — the maps never evict.

PlanRegistry::PlanRegistry(mpisim::Communicator comm)
    : comm_(comm),
      p1_(grid::choose_process_grid(comm.size()).first),
      p2_(grid::choose_process_grid(comm.size()).second) {}

PlanRegistry::PlanRegistry(grid::PencilDecomp& decomp)
    : comm_(decomp.comm()), p1_(decomp.p1()), p2_(decomp.p2()) {
  // A non-owning handle: the caller owns the adopted decomposition.
  decomps_.emplace(dims_key(decomp.dims()),
                   std::shared_ptr<grid::PencilDecomp>(
                       std::shared_ptr<grid::PencilDecomp>(), &decomp));
}

std::shared_ptr<grid::PencilDecomp> PlanRegistry::decomp(const Int3& dims) {
  ++stats_.leases;
  const DimsKey key = dims_key(dims);
  auto it = decomps_.find(key);
  if (it == decomps_.end()) {
    it = decomps_
             .emplace(key, std::make_shared<grid::PencilDecomp>(comm_, dims,
                                                                p1_, p2_))
             .first;
    ++stats_.decomp_builds;
  }
  return it->second;
}

std::shared_ptr<spectral::SpectralOps> PlanRegistry::spectral(
    const Int3& dims) {
  ++stats_.leases;
  const DimsKey key = dims_key(dims);
  auto it = spectrals_.find(key);
  if (it == spectrals_.end()) {
    auto d = decomp(dims);
    auto ops = std::make_shared<spectral::SpectralOps>(*d);
    it = spectrals_.emplace(key, std::move(ops)).first;
    ++stats_.spectral_builds;
  }
  return it->second;
}

std::shared_ptr<spectral::ResamplePlan> PlanRegistry::resample(
    const Int3& from, const Int3& to) {
  ++stats_.leases;
  const ResampleKey key{from[0], from[1], from[2], to[0], to[1], to[2]};
  auto it = resamples_.find(key);
  if (it == resamples_.end()) {
    auto src = spectral(from);
    auto dst = spectral(to);
    auto plan = std::make_shared<spectral::ResamplePlan>(*src, *dst);
    it = resamples_.emplace(key, std::move(plan)).first;
    ++stats_.resample_builds;
  }
  return it->second;
}

std::shared_ptr<semilag::Transport> PlanRegistry::acquire_transport(
    const Int3& dims, const semilag::TransportConfig& tc) {
  ++stats_.leases;
  auto& free_list = transport_pool_[transport_key(dims, tc)];
  if (!free_list.empty()) {
    auto t = free_list.back();
    free_list.pop_back();
    // Pool hygiene: a checked-out transport must behave like a fresh one —
    // no plans or velocity cache from the previous job — while keeping its
    // buffer capacity.
    t->invalidate_plans();
    return t;
  }
  auto ops = spectral(dims);
  auto t = std::make_shared<semilag::Transport>(*ops, tc);
  ++stats_.transport_builds;
  return t;
}

void PlanRegistry::release_transport(const Int3& dims,
                                     const semilag::TransportConfig& tc,
                                     std::shared_ptr<semilag::Transport> t) {
  transport_pool_[transport_key(dims, tc)].push_back(std::move(t));
}

bool PlanRegistry::recover_after_fault(double timeout_ms) {
  // The registry communicator first (shard-wide rendezvous), then each
  // decomposition's comm family. decomps_ is an ordered map over identical
  // keys on every rank, so the rendezvous sequence is rank-invariant.
  bool ok = comm_.recover_after_fault(timeout_ms);
  for (auto& [key, decomp] : decomps_)
    ok = decomp->recover_after_fault(timeout_ms) && ok;
  return ok;
}

void PlanRegistry::purge() {
  transport_pool_.clear();
  resamples_.clear();
  spectrals_.clear();
  decomps_.clear();
}

semilag::TransportConfig transport_config(const RegistrationOptions& opt) {
  semilag::TransportConfig tc;
  tc.nt = opt.nt;
  tc.method = opt.interp_method;
  tc.incompressible = opt.incompressible;
  return tc;
}

}  // namespace diffreg::core
