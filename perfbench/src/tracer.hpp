// In-memory span tracer for the traced benchmark mode. Every span records
// its layer, start/end (steady_clock ns), the enclosing span and the
// decision it belongs to. Spans nest strictly (the closed loop is
// single-threaded from the caller's point of view), so a layer's self time
// is its span's duration minus the durations of its direct children.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t {
  kDecision,        ///< root: one decision period (or one replay pass)
  kWindow,          ///< E2 report window: gNB TTIs + RMR dispatch self time
  kRepo,            ///< DataRepository::on_message
  kDrlIngest,       ///< DrlXapp::on_message, KPM that does not decide
  kDrlDecide,       ///< DrlXapp::on_message, decision-triggering KPM
  kExploraKpm,      ///< ExploraXapp::on_message, KPM indication
  kExploraControl,  ///< ExploraXapp::on_message, RAN control
  kE2termApply,     ///< E2Termination::on_message (control apply)
  kBookkeeping,     ///< harness reward + KPI harvest
  kServingSubmit,   ///< ExplainService::submit
  kServingTickBusy, ///< ExplainService::on_tick that dispatched
  kServingTickIdle, ///< ExplainService::on_tick that did not
  kTraceParse,      ///< TraceReplaySource::parse
  kReplayDecode,    ///< TraceFrame::decode + message lifetime, per frame
  kCount,
};

[[nodiscard]] std::string_view to_string(Layer layer) noexcept;

struct Span {
  Layer layer = Layer::kDecision;
  std::int32_t parent = -1;
  std::uint32_t decision = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  ///< summed durations of direct children
};

/// Per-layer aggregate: span count and summed self time.
struct LayerTotals {
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> count{};
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_ns{};
  std::int64_t root_ns = 0;  ///< summed duration of kDecision spans

  [[nodiscard]] std::uint64_t n(Layer layer) const {
    return count[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::int64_t self(Layer layer) const {
    return self_ns[static_cast<std::size_t>(layer)];
  }
  /// Mean self time per span in µs; 0 when the layer never ran.
  [[nodiscard]] double mean_us(Layer layer) const {
    const std::uint64_t spans = n(layer);
    return spans == 0 ? 0.0
                      : static_cast<double>(self(layer)) / 1e3 /
                            static_cast<double>(spans);
  }
  void add(const LayerTotals& other);
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  void set_decision(std::uint32_t decision) noexcept { decision_ = decision; }

  [[nodiscard]] std::int32_t open(Layer layer) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{layer, stack_.empty() ? -1 : stack_.back(),
                          decision_, now_ns(), 0, 0});
    stack_.push_back(index);
    return index;
  }
  void relabel(std::int32_t index, Layer layer) {
    spans_[static_cast<std::size_t>(index)].layer = layer;
  }
  void close(std::int32_t index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    stack_.pop_back();
    if (span.parent >= 0) {
      spans_[static_cast<std::size_t>(span.parent)].child_ns +=
          span.end_ns - span.start_ns;
    }
  }

  [[nodiscard]] LayerTotals totals() const;
  /// Writes the spans as CSV (layer,parent,decision,start_ns,end_ns,self_ns).
  void write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t decision_ = 0;
};

/// RAII span; a null tracer makes it a no-op (the untraced mode).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void relabel(Layer layer) {
    if (tracer_ != nullptr) tracer_->relabel(index_, layer);
  }

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace perfbench
