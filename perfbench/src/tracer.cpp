#include "tracer.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::string_view to_string(Layer layer) noexcept {
  switch (layer) {
    case Layer::kDecision: return "decision";
    case Layer::kWindow: return "window";
    case Layer::kRepo: return "repo";
    case Layer::kDrlIngest: return "drl_ingest";
    case Layer::kDrlDecide: return "drl_decide";
    case Layer::kExploraKpm: return "explora_kpm";
    case Layer::kExploraControl: return "explora_control";
    case Layer::kE2termApply: return "e2term_apply";
    case Layer::kBookkeeping: return "bookkeeping";
    case Layer::kServingSubmit: return "serving_submit";
    case Layer::kServingTickBusy: return "serving_tick_busy";
    case Layer::kServingTickIdle: return "serving_tick_idle";
    case Layer::kTraceParse: return "trace_parse";
    case Layer::kReplayDecode: return "replay_decode";
    case Layer::kCount: break;
  }
  return "unknown";
}

void LayerTotals::add(const LayerTotals& other) {
  for (std::size_t i = 0; i < count.size(); ++i) {
    count[i] += other.count[i];
    self_ns[i] += other.self_ns[i];
  }
  root_ns += other.root_ns;
}

LayerTotals Tracer::totals() const {
  LayerTotals totals;
  for (const Span& span : spans_) {
    const auto layer = static_cast<std::size_t>(span.layer);
    const std::int64_t duration = span.end_ns - span.start_ns;
    ++totals.count[layer];
    totals.self_ns[layer] += duration - span.child_ns;
    if (span.layer == Layer::kDecision) totals.root_ns += duration;
  }
  return totals;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "layer,parent,decision,start_ns,end_ns,self_ns\n";
  for (const Span& span : spans_) {
    out << to_string(span.layer) << ',' << span.parent << ',' << span.decision
        << ',' << span.start_ns << ',' << span.end_ns << ','
        << (span.end_ns - span.start_ns - span.child_ns) << '\n';
  }
}

}  // namespace perfbench
