#include "netsim/gnb.hpp"

#include <numeric>
#include <utility>

#include "common/contracts.hpp"

namespace explora::netsim {

Gnb::Gnb(std::vector<std::unique_ptr<Ue>> ues, GnbConfig config)
    : ues_(std::move(ues)), config_(config) {
  EXPLORA_EXPECTS(!ues_.empty());
  EXPLORA_EXPECTS(config_.report_period_ttis > 0);
  telemetry::Scope scope("netsim.gnb");
  telemetry_ = &scope.registry();
  ttis_ = &scope.counter("ttis");
  report_windows_ = &scope.counter("report_windows");
  controls_applied_ = &scope.counter("controls_applied");
  static constexpr std::int64_t kCqiBounds[] = {3, 6, 9, 12, 15};
  cqi_ = &scope.histogram("cqi", kCqiBounds);
  // 87 bytes/PRB is the CQI-15 ceiling enforced in channel.cpp.
  static constexpr std::int64_t kTbsBounds[] = {10, 20, 40, 60, 87};
  tbs_bytes_per_prb_ = &scope.histogram("tbs_bytes_per_prb", kTbsBounds);
  static constexpr std::int64_t kBufferBounds[] = {0,     1000,   4000,
                                                   16000, 64000, 256000};
  buffer_bytes_ = &scope.histogram("buffer_bytes", kBufferBounds);
  scheduler_metrics_ = SchedulerMetrics::bind();
  cqi_local_ = telemetry::LocalHistogram(cqi_);
  tbs_local_ = telemetry::LocalHistogram(tbs_bytes_per_prb_);
  buffer_local_ = telemetry::LocalHistogram(buffer_bytes_);
  rebuild_slice_index();
  for (std::size_t s = 0; s < kNumSlices; ++s) {
    EXPLORA_EXPECTS_MSG(slice_ues_[s].size() <= kMaxUesPerSlice,
                        "slice {} has {} UEs; a KPI report holds at most {}",
                        to_string(static_cast<Slice>(s)),
                        slice_ues_[s].size(), kMaxUesPerSlice);
  }
  // Default control: even-ish split, round robin everywhere.
  SlicingControl initial;
  initial.prbs = {18, 15, 17};
  initial.scheduling = {SchedulerPolicy::kRoundRobin,
                        SchedulerPolicy::kRoundRobin,
                        SchedulerPolicy::kRoundRobin};
  apply_control(initial);
}

Gnb::~Gnb() { flush_telemetry(); }

void Gnb::flush_telemetry() noexcept {
  if constexpr (!telemetry::kCompiledIn) return;
  // Schedulers also flush from their own destructors, so a mid-run policy
  // swap in apply_control never loses the replaced scheduler's window.
  for (auto& scheduler : schedulers_) {
    if (scheduler != nullptr) scheduler->flush_telemetry();
  }
  cqi_local_.flush();
  tbs_local_.flush();
  buffer_local_.flush();
  if (pending_ttis_ != 0) {
    ttis_->add(pending_ttis_);
    pending_ttis_ = 0;
  }
  if (pending_windows_ != 0) {
    report_windows_->add(pending_windows_);
    pending_windows_ = 0;
  }
  windows_since_flush_ = 0;
}

void Gnb::rebuild_slice_index() {
  for (auto& list : slice_ues_) list.clear();
  for (const auto& ue : ues_) {
    slice_ues_[static_cast<std::size_t>(ue->slice())].push_back(ue.get());
  }
}

void Gnb::apply_control(const SlicingControl& control) {
  // PRB disjointness: per-slice budgets partition the carrier, so their sum
  // must fit in it (no PRB can be granted to two slices). A zero budget is
  // legal — starving a slice is a modeled failure scenario, not a bug.
  const std::uint32_t total =
      std::accumulate(control.prbs.begin(), control.prbs.end(), 0u);
  EXPLORA_EXPECTS_MSG(total <= kTotalPrbs,
                      "slice PRB budgets sum to {} but the carrier has {}",
                      total, kTotalPrbs);
  // Malformed-control gate (fast tier, stays on in production): an empty
  // PRB mask or an out-of-range scheduler id must be rejected upstream
  // (E2Termination::on_message); reaching here with one is a bug. Checked
  // after the oversubscription contract so that violation keeps its more
  // specific message.
  EXPLORA_EXPECTS_MSG(is_valid_control(control),
                      "malformed control {} reached the gNB",
                      control.to_string());
  for (std::size_t s = 0; s < kNumSlices; ++s) {
    if (schedulers_[s] == nullptr ||
        schedulers_[s]->policy() != control.scheduling[s]) {
      auto fresh = make_scheduler(control.scheduling[s], config_.pf_alpha,
                                  scheduler_metrics_);
      if (schedulers_[s] != nullptr) fresh->reuse_scratch(*schedulers_[s]);
      schedulers_[s] = std::move(fresh);
    }
  }
  control_ = control;
  controls_applied_->add(1);
}

void Gnb::run_tti() {
  for (auto& ue : ues_) ue->begin_tti(now_);
  for (std::size_t s = 0; s < kNumSlices; ++s) {
    auto& ues = slice_ues_[s];
    if (ues.empty()) continue;
    schedulers_[s]->schedule_tti(std::span<Ue*>(ues), control_.prbs[s]);
  }
  ++now_;
  // Counted locally and folded into the ttis counter once per report
  // window.
  if (telemetry::kCompiledIn) ++pending_ttis_;
  // Advance the registry's tick clock: spans anywhere in the closed loop
  // measure durations against the gNB's simulated time, never wall-clock.
  telemetry_->set_now(now_);
}

KpiReport Gnb::run_report_window() {
  for (Tick i = 0; i < config_.report_period_ttis; ++i) run_tti();

  KpiReport report;
  report.window_end = now_;
  const double window_seconds =
      static_cast<double>(config_.report_period_ttis) / 1000.0;
  for (std::size_t s = 0; s < kNumSlices; ++s) {
    auto& slice_report = report.slices[s];
    for (Ue* ue : slice_ues_[s]) {
      const UeWindowCounters counters = ue->harvest_window();
      slice_report.tx_bitrate_mbps.push_back(
          static_cast<double>(counters.tx_bytes) * 8.0 / window_seconds /
          1e6);
      slice_report.tx_packets.push_back(
          static_cast<double>(counters.tx_packets));
      slice_report.buffer_bytes.push_back(
          static_cast<double>(ue->buffer_bytes()));
      cqi_local_.observe(static_cast<std::int64_t>(ue->channel().cqi()));
      tbs_local_.observe(
          static_cast<std::int64_t>(ue->channel().bytes_per_prb()));
      buffer_local_.observe(static_cast<std::int64_t>(ue->buffer_bytes()));
    }
  }
  if (telemetry::kCompiledIn) ++pending_windows_;
  // Fold the window-local accumulators into the registry on a fixed
  // deterministic cadence; the destructor drains whatever remains.
  if (++windows_since_flush_ >= kTelemetryFlushWindows) flush_telemetry();
  return report;
}

bool Gnb::detach_one_ue(Slice slice) {
  const auto slice_index = static_cast<std::size_t>(slice);
  if (slice_ues_[slice_index].empty()) return false;
  const Ue* victim = slice_ues_[slice_index].back();
  for (auto it = ues_.begin(); it != ues_.end(); ++it) {
    if (it->get() == victim) {
      ues_.erase(it);
      break;
    }
  }
  rebuild_slice_index();
  return true;
}

}  // namespace explora::netsim
