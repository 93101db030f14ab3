#include "ml/features.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace explora::ml {

namespace {

[[nodiscard]] std::size_t flat_index(netsim::Kpi kpi, netsim::Slice slice) {
  return static_cast<std::size_t>(kpi) * netsim::kNumSlices +
         static_cast<std::size_t>(slice);
}

}  // namespace

KpiNormalizer::KpiNormalizer() { ranges_.fill(Range{}); }

KpiNormalizer::Range& KpiNormalizer::range(netsim::Kpi kpi,
                                           netsim::Slice slice) {
  return ranges_[flat_index(kpi, slice)];
}

const KpiNormalizer::Range& KpiNormalizer::range(netsim::Kpi kpi,
                                                 netsim::Slice slice) const {
  return ranges_[flat_index(kpi, slice)];
}

void KpiNormalizer::observe(const netsim::KpiReport& report) {
  for (std::size_t k = 0; k < netsim::kNumKpis; ++k) {
    for (std::size_t l = 0; l < netsim::kNumSlices; ++l) {
      const auto kpi = static_cast<netsim::Kpi>(k);
      const auto slice = static_cast<netsim::Slice>(l);
      const double v = report.value(kpi, slice);
      Range& r = range(kpi, slice);
      r.lo = std::min(r.lo, v);
      r.hi = std::max(r.hi, v);
    }
  }
}

double KpiNormalizer::normalize(netsim::Kpi kpi, netsim::Slice slice,
                                double value) const {
  const Range& r = range(kpi, slice);
  const double span = r.hi - r.lo;
  if (span <= 0.0) return 0.0;
  const double unit = (value - r.lo) / span;  // [0, 1] on the fitted range
  return std::clamp(unit * 2.0 - 1.0, -1.0, 1.0);
}

double KpiNormalizer::denormalize(netsim::Kpi kpi, netsim::Slice slice,
                                  double value) const {
  const Range& r = range(kpi, slice);
  const double unit = (std::clamp(value, -1.0, 1.0) + 1.0) / 2.0;
  return r.lo + unit * (r.hi - r.lo);
}

void KpiNormalizer::serialize(common::Writer& writer) const {
  writer.varint(ranges_.size());
  for (const Range& r : ranges_) {
    writer.f64(r.lo);
    writer.f64(r.hi);
  }
}

void KpiNormalizer::deserialize(common::Reader& reader) {
  if (reader.varint() != ranges_.size()) {
    throw common::SerializeError("normalizer size mismatch");
  }
  for (Range& r : ranges_) {
    r.lo = reader.f64();
    r.hi = reader.f64();
  }
}

void InputWindow::push(const netsim::KpiReport& report) noexcept {
  if (size_ < kHistory) {
    ring_[(oldest_ + size_++) % kHistory] = report;
  } else {
    ring_[oldest_] = report;
    oldest_ = (oldest_ + 1) % kHistory;
  }
}

Vector InputWindow::flatten(const KpiNormalizer& normalizer) const {
  Vector out(kInputDim);
  flatten(normalizer, out);
  return out;
}

void InputWindow::flatten(const KpiNormalizer& normalizer,
                          std::span<double> out) const {
  EXPLORA_EXPECTS(ready());
  EXPLORA_EXPECTS(out.size() == kInputDim);
  std::size_t next = 0;
  for (std::size_t m = 0; m < size_; ++m) {
    const netsim::KpiReport& report = at(m);
    for (std::size_t k = 0; k < netsim::kNumKpis; ++k) {
      for (std::size_t l = 0; l < netsim::kNumSlices; ++l) {
        const auto kpi = static_cast<netsim::Kpi>(k);
        const auto slice = static_cast<netsim::Slice>(l);
        out[next++] =
            normalizer.normalize(kpi, slice, report.value(kpi, slice));
      }
    }
  }
}

const netsim::KpiReport& InputWindow::latest() const {
  EXPLORA_EXPECTS(size_ > 0);
  return at(size_ - 1);
}

double InputWindow::window_mean(netsim::Kpi kpi, netsim::Slice slice) const {
  EXPLORA_EXPECTS(size_ > 0);
  double sum = 0.0;
  for (std::size_t m = 0; m < size_; ++m) sum += at(m).value(kpi, slice);
  return sum / static_cast<double>(size_);
}

netsim::SlicingControl to_control(const AgentAction& action) {
  const auto& catalog = netsim::prb_catalog();
  EXPLORA_EXPECTS(action.prb_choice < catalog.size());
  netsim::SlicingControl control;
  control.prbs = catalog[action.prb_choice];
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    EXPLORA_EXPECTS(action.sched_choice[s] < netsim::kNumSchedulerPolicies);
    control.scheduling[s] =
        static_cast<netsim::SchedulerPolicy>(action.sched_choice[s]);
  }
  return control;
}

AgentAction from_control(const netsim::SlicingControl& control) {
  AgentAction action;
  action.prb_choice = netsim::prb_catalog_index(control.prbs);
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    action.sched_choice[s] =
        static_cast<std::size_t>(control.scheduling[s]);
  }
  return action;
}

}  // namespace explora::ml
