// Per-slice MAC schedulers: Round-Robin, Waterfilling and Proportional
// Fair. Each scheduler distributes the slice's PRB budget among the slice's
// backlogged UEs for one TTI.
//
// - RR cycles a pointer over backlogged users, ignoring channel state.
// - WF is throughput-greedy: PRBs go to the users with the best channel
//   (the discrete-resource analogue of power waterfilling), draining the
//   strongest links first.
// - PF ranks users by instantaneous-rate / EWMA-served-rate, trading
//   throughput against long-run fairness.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/telemetry.hpp"
#include "netsim/types.hpp"
#include "netsim/ue.hpp"

namespace explora::netsim {

/// The netsim.scheduler.* metrics a scheduler records into. Looking them
/// up builds name strings and takes the registry lock, so a gNB binds them
/// once and hands them to every scheduler it builds on a policy swap.
struct SchedulerMetrics {
  telemetry::Counter* tti_runs = nullptr;
  telemetry::Counter* prb_granted = nullptr;
  telemetry::Counter* prb_unused = nullptr;
  telemetry::Histogram* prb_per_tti = nullptr;

  /// Looks the metrics up in the active registry.
  [[nodiscard]] static SchedulerMetrics bind();
};

/// Strategy interface: allocate `prb_budget` PRBs among `ues` (all from one
/// slice) for the current TTI and serve their buffers.
class Scheduler {
 public:
  explicit Scheduler(const SchedulerMetrics& metrics);
  /// Flushes any pending grant telemetry so that replacing a scheduler
  /// mid-run (policy change) never drops recorded TTIs.
  virtual ~Scheduler();

  /// Runs one TTI. Implementations must serve at most `prb_budget` PRBs and
  /// only touch UEs with buffered data.
  virtual void schedule_tti(std::span<Ue*> ues, std::uint32_t prb_budget) = 0;

  [[nodiscard]] virtual SchedulerPolicy policy() const noexcept = 0;

  /// Folds the locally-accumulated per-TTI grant telemetry into the bound
  /// registry metrics. Schedulers run on the gNB's simulation thread, so
  /// record_grants accumulates in plain integers (no atomics on the TTI
  /// hot path) and the gNB flushes once per report window.
  void flush_telemetry() noexcept;

  /// Takes over the per-TTI scratch buffers of the scheduler this one
  /// replaces: their capacity, not their contents (every TTI refills
  /// them), so a policy swap does not grow them again.
  void reuse_scratch(Scheduler& replaced) noexcept;

 protected:
  /// Telemetry hook: every schedule_tti implementation reports how many of
  /// its budgeted PRBs it actually granted this TTI.
  void record_grants(std::uint32_t granted, std::uint32_t budget) noexcept;

  /// One backlogged UE's share of this TTI. A UE's bytes/PRB is fixed
  /// within a TTI, so each policy's grant loop reduces to a PRB count per
  /// UE, served in one call.
  struct Grant {
    std::uint64_t demand = 0;  ///< PRBs that drain the buffer
    std::uint32_t prbs = 0;    ///< PRBs granted this TTI
    std::uint64_t sent = 0;    ///< bytes served by serve_grants()
  };

  /// Fills active_ with the UEs in `ues` that have buffered data and
  /// grants_ with one zero grant per active UE.
  void collect_backlogged(std::span<Ue*> ues);
  /// Sorts order_ (indices into active_) by `before`.
  template <typename Before>
  void rank_active(Before before);
  /// Grants the UEs in order_ up to their demand, front to back, until
  /// `budget` is spent; returns the PRBs granted.
  std::uint32_t grant_in_order(std::uint32_t budget) noexcept;
  /// Serves every active UE its granted PRBs in one call each.
  void serve_grants();

  // Per-TTI scratch shared by every policy, indexed like active_. Hoisted
  // into members so the grant path never allocates in steady state: the
  // vectors keep their capacity across TTIs and only grow when UEs attach
  // (measured by the allocation gate over Gnb::run_tti in
  // tests/test_realtime.cpp, DESIGN.md §11).
  std::vector<Ue*> active_;
  std::vector<Grant> grants_;
  std::vector<std::uint32_t> order_;

 private:
  SchedulerMetrics metrics_;

  // Window-local accumulation, drained by flush_telemetry(). Grants are
  // bounded by the carrier size, so the per-TTI record is one increment of
  // a value-indexed tally; buckets, sum, min and max are all derived from
  // the tally at flush time, off the hot path.
  struct PendingGrants {
    std::uint64_t runs = 0;
    std::uint64_t granted = 0;
    std::uint64_t unused = 0;
    std::array<std::uint64_t, kTotalPrbs + 1> grant_tally{};
  };
  PendingGrants pending_{};
};

/// Factory keyed by policy; `pf_alpha` is the PF EWMA smoothing factor.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    SchedulerPolicy policy, double pf_alpha, const SchedulerMetrics& metrics);

/// Round-robin PRB allocation over backlogged users: whole rounds of one
/// PRB per UE with data left, then the leftover PRBs in cyclic order from
/// a start offset that rotates every TTI.
class RoundRobinScheduler final : public Scheduler {
 public:
  using Scheduler::Scheduler;
  void schedule_tti(std::span<Ue*> ues, std::uint32_t prb_budget) override;
  [[nodiscard]] SchedulerPolicy policy() const noexcept override {
    return SchedulerPolicy::kRoundRobin;
  }

 private:
  std::size_t next_ = 0;  ///< rotating start offset for fairness
};

/// Channel-greedy ("waterfilling") allocation: best SINR first, each UE
/// drained before the next is served.
class WaterfillingScheduler final : public Scheduler {
 public:
  using Scheduler::Scheduler;
  void schedule_tti(std::span<Ue*> ues, std::uint32_t prb_budget) override;
  [[nodiscard]] SchedulerPolicy policy() const noexcept override {
    return SchedulerPolicy::kWaterfilling;
  }
};

/// Proportional-fair allocation with EWMA throughput tracking. The metric
/// rate / average is fixed within a TTI (the average updates after the
/// grants), so UEs are drained in descending-metric order, the lower index
/// first on ties.
class ProportionalFairScheduler final : public Scheduler {
 public:
  ProportionalFairScheduler(double alpha, const SchedulerMetrics& metrics);

  void schedule_tti(std::span<Ue*> ues, std::uint32_t prb_budget) override;
  [[nodiscard]] SchedulerPolicy policy() const noexcept override {
    return SchedulerPolicy::kProportionalFair;
  }

 private:
  double alpha_;
};

}  // namespace explora::netsim
