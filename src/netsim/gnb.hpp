// The gNB MAC model: owns the UEs, enforces the current slicing/scheduling
// control, advances TTIs and emits KPI reports. This is the "RAN node"
// endpoint of the E2 interface in the O-RAN layer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netsim/kpi.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/types.hpp"
#include "netsim/ue.hpp"

namespace explora::netsim {

/// gNB runtime parameters.
struct GnbConfig {
  Tick report_period_ttis = 25;  ///< E2 KPM indication cadence
  double pf_alpha = 0.05;        ///< PF scheduler EWMA factor
};

class Gnb {
 public:
  /// @param ues the attached users (takes ownership; at least one).
  /// @param config runtime parameters.
  Gnb(std::vector<std::unique_ptr<Ue>> ues, GnbConfig config = {});

  /// Flushes any window-local telemetry still pending (see
  /// flush_telemetry) so end-of-run snapshots are always complete.
  ~Gnb();

  /// Applies a new slicing + scheduling control. PRBs must not exceed the
  /// carrier total; scheduler state is retained when the policy for a slice
  /// is unchanged (so PF averages survive pure-slicing updates).
  void apply_control(const SlicingControl& control);

  [[nodiscard]] const SlicingControl& control() const noexcept {
    return control_;
  }

  /// Advances one TTI: every channel in one batched pass
  /// (UeChannel::advance_all), then traffic arrivals, then per-slice
  /// scheduling under the current control.
  void run_tti();

  /// Runs exactly one report window (config.report_period_ttis TTIs) and
  /// returns the harvested KPI report.
  [[nodiscard]] KpiReport run_report_window();

  [[nodiscard]] Tick now() const noexcept { return now_; }
  [[nodiscard]] std::size_t num_ues() const noexcept { return ues_.size(); }
  /// UEs of one slice (slice-local ordering is construction order).
  [[nodiscard]] const std::vector<Ue*>& slice_ues(Slice slice) const {
    return slice_ues_[static_cast<std::size_t>(slice)];
  }

  /// Detaches the last-attached UE of `slice` (used by the action-steering
  /// experiments where the user count drops mid-run). Returns false when
  /// the slice has no users.
  bool detach_one_ue(Slice slice);

 private:
  std::vector<std::unique_ptr<Ue>> ues_;
  std::vector<UeChannel*> channels_;  ///< ues_'s channels, in ues_ order
  PerSlice<std::vector<Ue*>> slice_ues_{};
  PerSlice<std::unique_ptr<Scheduler>> schedulers_{};
  SlicingControl control_{};
  GnbConfig config_;
  Tick now_ = 0;

  // Telemetry (netsim.gnb.*), bound at construction. The gNB owns simulated
  // time, so it also drives the registry's tick clock for ScopedSpan users.
  // The closed loop records into plain window-local accumulators and folds
  // them into the shared registry atomics only every kTelemetryFlushWindows
  // report windows (plus on destruction), keeping the TTI loop — and the
  // window harvest — free of atomic read-modify-writes.
  static constexpr Tick kTelemetryFlushWindows = 8;
  telemetry::Registry* telemetry_;
  telemetry::Counter* ttis_;
  telemetry::Counter* report_windows_;
  telemetry::Counter* controls_applied_;
  telemetry::Histogram* cqi_;
  telemetry::Histogram* tbs_bytes_per_prb_;
  telemetry::Histogram* buffer_bytes_;
  SchedulerMetrics scheduler_metrics_;  ///< handed to every scheduler built
  telemetry::LocalHistogram cqi_local_;
  telemetry::LocalHistogram tbs_local_;
  telemetry::LocalHistogram buffer_local_;
  std::uint64_t pending_ttis_ = 0;
  std::uint64_t pending_windows_ = 0;
  Tick windows_since_flush_ = 0;

  void rebuild_slice_index();
  void flush_telemetry() noexcept;
};

}  // namespace explora::netsim
