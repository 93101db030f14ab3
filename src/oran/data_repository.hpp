// The RIC's data repository plus its data-access microservice facade
// (Fig. 6): stores E2 KPI history for xApps to query, and archives the
// (state, action, explanation) tuples the EXPLORA xApp produces for later
// quality assurance / dataset generation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netsim/kpi.hpp"
#include "oran/rmr.hpp"

namespace explora::oran {

/// One archived explanation record (paper §5.1).
struct ExplanationRecord {
  std::uint64_t decision_id = 0;
  netsim::SlicingControl proposed;   ///< action suggested by the DRL agent
  netsim::SlicingControl enforced;   ///< action actually sent to the RAN
  bool replaced = false;
  std::string explanation;           ///< human-readable rationale

  friend bool operator==(const ExplanationRecord&,
                         const ExplanationRecord&) = default;
};

/// One archived degradation event from the EXPLORA xApp's unified
/// degradation ladder: staleness entry when the KPM indication stream
/// gaps, recovery when a full clean window has been observed again, and
/// serving-tier demotions/promotions from the explanation-serving ladder
/// (load pressure or the model-eval circuit breaker). One archive, one
/// record shape, regardless of which axis moved.
struct DegradationRecord {
  enum class Phase : std::uint8_t {
    kEnter = 0,    ///< staleness watchdog engaged (KPM gap)
    kRecover = 1,  ///< staleness cleared (clean streak complete)
    kDemote = 2,   ///< serving tier demoted (load/breaker)
    kPromote = 3,  ///< serving tier promoted (load/breaker)
  };
  Phase phase = Phase::kEnter;
  netsim::Tick detected_at = 0;        ///< window_end of the triggering report
  std::uint64_t missed_windows = 0;    ///< estimated indications lost (enter)
  /// Serving-tier movement (kDemote/kPromote only); values index
  /// xai::serving::Tier — stored as raw bytes because oran sits beside,
  /// not above, xai in the module DAG.
  std::uint8_t tier_from = 0;
  std::uint8_t tier_to = 0;
  std::string detail;                  ///< human-readable context

  friend bool operator==(const DegradationRecord&,
                         const DegradationRecord&) = default;
};

[[nodiscard]] std::string to_string(DegradationRecord::Phase phase);

class DataRepository final : public RmrEndpoint {
 public:
  /// @param history_capacity maximum retained KPI reports; the oldest go
  ///   first once it is reached.
  explicit DataRepository(std::size_t history_capacity = 8192);

  [[nodiscard]] std::string_view endpoint_name() const noexcept override {
    return "data_repo";
  }
  /// Subscribes to KPM indications (ignores other message types).
  void on_message(const RicMessage& message) override;

  /// Data-access queries.
  [[nodiscard]] std::size_t report_count() const noexcept {
    return reports_.size() - first_;
  }
  /// Most recent `count` reports (fewer while the history is shorter),
  /// oldest first. A view into the history: valid until the next
  /// indication arrives.
  [[nodiscard]] std::span<const netsim::KpiReport> latest_reports(
      std::size_t count) const noexcept;
  /// The retained history, oldest first; same lifetime as latest_reports.
  [[nodiscard]] std::span<const netsim::KpiReport> all_reports()
      const noexcept {
    return std::span(reports_).subspan(first_);
  }

  /// Explanation archive.
  void store_explanation(ExplanationRecord record);
  [[nodiscard]] const std::vector<ExplanationRecord>& explanations()
      const noexcept {
    return explanations_;
  }

  /// Degradation-event archive (quality assurance: when and why the
  /// EXPLORA xApp stopped trusting the telemetry stream).
  void store_degradation(DegradationRecord record);
  [[nodiscard]] const std::vector<DegradationRecord>& degradations()
      const noexcept {
    return degradations_;
  }

 private:
  std::size_t capacity_;
  /// The history in one block, so views of it are spans: the live reports
  /// are reports_[first_..]. The block is reserved at the first report for
  /// capacity_ plus an eighth, so it never grows or moves, and its pages
  /// become resident only as reports fill them. At capacity each arrival
  /// retires the oldest by advancing first_; when the block is full the
  /// live reports move to the front, so each report moves at most about
  /// 8 times (capacity_ over the eighth).
  std::vector<netsim::KpiReport> reports_;
  std::size_t first_ = 0;
  std::vector<ExplanationRecord> explanations_;
  std::vector<DegradationRecord> degradations_;
};

}  // namespace explora::oran
