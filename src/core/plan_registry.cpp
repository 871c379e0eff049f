#include "core/plan_registry.hpp"

namespace diffreg::core {

// Leased handles borrow from the registry's maps (a SpectralOps references
// its PencilDecomp, a Transport its SpectralOps), so every lease is valid
// for the registry's lifetime — the maps never evict.

std::shared_ptr<grid::PencilDecomp> PlanRegistry::decomp(const Int3& dims) {
  ++stats_.leases;
  const DimsKey key = dims_key(dims);
  auto it = decomps_.find(key);
  if (it == decomps_.end()) {
    it = decomps_
             .emplace(key, std::make_shared<grid::PencilDecomp>(comm_, dims))
             .first;
    ++stats_.decomp_builds;
  }
  return it->second;
}

std::shared_ptr<spectral::SpectralOps> PlanRegistry::spectral(
    const Int3& dims, WirePrecision wire) {
  ++stats_.leases;
  const SpectralKey key{dims[0], dims[1], dims[2], static_cast<int>(wire)};
  auto it = spectrals_.find(key);
  if (it == spectrals_.end()) {
    auto d = decomp(dims);
    it = spectrals_
             .emplace(key, std::make_shared<spectral::SpectralOps>(*d, wire))
             .first;
    ++stats_.spectral_builds;
  }
  return it->second;
}

std::shared_ptr<spectral::ResamplePlan> PlanRegistry::resample(
    const Int3& from, const Int3& to, WirePrecision wire) {
  ++stats_.leases;
  const ResampleKey key{from[0], from[1], from[2], to[0],
                        to[1],   to[2],   static_cast<int>(wire)};
  auto it = resamples_.find(key);
  if (it == resamples_.end()) {
    auto src = decomp(from);
    auto dst = decomp(to);
    it = resamples_
             .emplace(key,
                      std::make_shared<spectral::ResamplePlan>(*src, *dst, wire))
             .first;
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
  auto ops = spectral(dims, tc.wire);
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

}  // namespace diffreg::core
