// PlanRegistry: the one owner of the solver's plans.
//
// Every plan family — pencil decompositions (two communicator splits each),
// spectral operator sets (a distributed FFT plan with all transpose
// buffers), grid-transfer plans (running the FFT plans of their two grids'
// operator sets), and transports (ghost exchanger + interpolation plans +
// time-history storage) — is built ONCE per key and leased: to batch jobs,
// to a bare-decomposition solver, to the two-level preconditioner's coarse
// grid and to every level of the grid pyramid. Nothing else in core/ builds
// one. Keys are dims plus, for transports, the transport configuration.
//
// A registry has ONE process grid p1 x p2: PlanRegistry(comm) uses the
// default near-square grid, and PlanRegistry(decomp) ADOPTS the caller's
// decomposition as its entry for those dims (the caller keeps ownership,
// and it must outlive the registry) and builds every other decomposition
// on the same p1 x p2, so every grid transfer is a pure layout remap.
//
// Two lease shapes:
//  * decomp/spectral/resample — genuinely shareable (stateless between
//    calls apart from scratch that every use overwrites): one shared entry,
//    handed out as shared_ptr leases.
//  * transport — job-scoped (it caches the job's velocity, departure-point
//    plans and time histories), so it is POOLED, not shared: acquire checks
//    one out (building only when the free list is empty), release checks it
//    back in with its buffers warm (TransportLease does both for a scope).
//    A reused transport keeps every allocation; only the per-velocity
//    departure plans rebuild (plans follow the velocity, buffers follow the
//    plan object).
//
// `stats()` exposes per-family build counters and the total lease count, so
// tests and benches can assert "B same-shape jobs built each plan exactly
// once" the same way Transport::plan_build_count() proves per-velocity
// reuse.
//
// Collective discipline: decomp construction splits the communicator and a
// first lease builds plans, so lease calls are COLLECTIVE over the
// registry's communicator — all ranks must lease the same keys in the same
// order (the usual SPMD discipline). The registry is per-rank state (each
// rank of an mpisim::run_spmd body constructs its own); it is not
// thread-shared and needs no locks.
#pragma once

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/options.hpp"
#include "grid/decomposition.hpp"
#include "semilag/transport.hpp"
#include "spectral/operators.hpp"
#include "spectral/resample.hpp"

namespace diffreg::core {

class PlanRegistry {
 public:
  /// The registry serves plans on (splits of) this communicator; all
  /// decompositions it builds use the default near-square process grid for
  /// the communicator's size.
  explicit PlanRegistry(mpisim::Communicator comm);

  /// Adopts `decomp` (not a build; it must outlive the registry and its
  /// leases) and builds every other decomposition on its communicator and
  /// p1 x p2 process grid.
  explicit PlanRegistry(grid::PencilDecomp& decomp);

  /// Decomposition for `dims` (built on first lease; two communicator
  /// splits). Collective.
  std::shared_ptr<grid::PencilDecomp> decomp(const Int3& dims);

  /// Spectral operator set (FFT plan + wavenumber tables) for `dims`,
  /// bound to decomp(dims). Collective.
  std::shared_ptr<spectral::SpectralOps> spectral(const Int3& dims);

  /// Grid-transfer plan spectral(from) -> spectral(to), running those two
  /// operator sets' FFT plans. Collective.
  std::shared_ptr<spectral::ResamplePlan> resample(const Int3& from,
                                                   const Int3& to);

  /// Checks a transport for (dims, tc) out of the pool, building one only
  /// when the free list is empty. The returned transport is invalidated
  /// (no cached velocity or histories) but keeps all buffer capacity from
  /// its previous job. Collective on first build.
  std::shared_ptr<semilag::Transport> acquire_transport(
      const Int3& dims, const semilag::TransportConfig& tc);

  /// Returns a transport to the pool for the next job with the same key.
  void release_transport(const Int3& dims, const semilag::TransportConfig& tc,
                         std::shared_ptr<semilag::Transport> transport);

  /// Collective fault recovery: quiesces and drains the registry's
  /// communicator and every cached decomposition's row/col communicators
  /// (map order — identical on all ranks), discarding stale in-flight
  /// payloads of an aborted exchange so the next lease observes a clean
  /// wire. Pooled transports need no extra scrubbing here: acquire_transport
  /// already invalidates plans/histories on checkout — the stale state a
  /// fault leaves behind lives in the communicators, which is what this
  /// drains. Returns false when any communicator is unrecoverable (a rank
  /// is truly down): the shard should be rebuilt, not reused. Never throws.
  bool recover_after_fault(double timeout_ms);

  /// Drops every cached plan and pooled transport (the failover purge: a
  /// rebuilt shard must not lease plans bound to the dead shard's
  /// communicators). Build counters are cumulative and survive the purge.
  void purge();

  struct Stats {
    int decomp_builds = 0;
    int spectral_builds = 0;
    int resample_builds = 0;
    int transport_builds = 0;
    int leases = 0;  ///< Lease/acquire calls served (builds + cache hits).
  };
  const Stats& stats() const { return stats_; }
  /// Total plan objects constructed across all families — the
  /// `plan_build_count` of the registry contract: stays flat while leases
  /// grow when jobs share infrastructure.
  int plan_build_count() const {
    return stats_.decomp_builds + stats_.spectral_builds +
           stats_.resample_builds + stats_.transport_builds;
  }

 private:
  using DimsKey = std::tuple<index_t, index_t, index_t>;
  // from-dims + to-dims.
  using ResampleKey =
      std::tuple<index_t, index_t, index_t, index_t, index_t, index_t>;
  // dims + nt + method + incompressible.
  using TransportKey = std::tuple<index_t, index_t, index_t, int, int, int>;

  static DimsKey dims_key(const Int3& d) { return {d[0], d[1], d[2]}; }
  static TransportKey transport_key(const Int3& d,
                                    const semilag::TransportConfig& tc) {
    return {d[0],
            d[1],
            d[2],
            tc.nt,
            static_cast<int>(tc.method),
            tc.incompressible ? 1 : 0};
  }

  mpisim::Communicator comm_;
  int p1_, p2_;  // the process grid of every decomposition
  std::map<DimsKey, std::shared_ptr<grid::PencilDecomp>> decomps_;
  std::map<DimsKey, std::shared_ptr<spectral::SpectralOps>> spectrals_;
  std::map<ResampleKey, std::shared_ptr<spectral::ResamplePlan>> resamples_;
  std::map<TransportKey, std::vector<std::shared_ptr<semilag::Transport>>>
      transport_pool_;
  Stats stats_;
};

/// The transport configuration (and pool key) of a solve with `opt`; its
/// two-level coarse grid uses the same one.
semilag::TransportConfig transport_config(const RegistrationOptions& opt);

/// A pooled transport checked out for one scope and released with its
/// buffers warm at its end. The registry must outlive the lease.
class TransportLease {
 public:
  TransportLease(PlanRegistry& registry, const Int3& dims,
                 const semilag::TransportConfig& tc)
      : registry_(registry),
        dims_(dims),
        tc_(tc),
        transport_(registry.acquire_transport(dims, tc)) {}
  ~TransportLease() {
    registry_.release_transport(dims_, tc_, std::move(transport_));
  }
  TransportLease(const TransportLease&) = delete;

  semilag::Transport& get() { return *transport_; }

 private:
  PlanRegistry& registry_;
  Int3 dims_;
  semilag::TransportConfig tc_;
  std::shared_ptr<semilag::Transport> transport_;
};

}  // namespace diffreg::core
