#include "oran/data_repository.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace explora::oran {

DataRepository::DataRepository(std::size_t history_capacity)
    : capacity_(history_capacity) {
  EXPLORA_EXPECTS(history_capacity > 0);
}

void DataRepository::on_message(const RicMessage& message) {
  if (message.type != MessageType::kKpmIndication) return;
  if (reports_.capacity() == 0) {
    reports_.reserve(capacity_ + std::max<std::size_t>(1, capacity_ / 8));
  }
  if (report_count() == capacity_) ++first_;
  if (reports_.size() == reports_.capacity()) {
    reports_.erase(reports_.begin(),
                   reports_.begin() + static_cast<std::ptrdiff_t>(first_));
    first_ = 0;
  }
  reports_.push_back(message.kpm().report);
}

std::span<const netsim::KpiReport> DataRepository::latest_reports(
    std::size_t count) const noexcept {
  const std::span<const netsim::KpiReport> history = all_reports();
  return history.last(std::min(count, history.size()));
}

void DataRepository::store_explanation(ExplanationRecord record) {
  explanations_.push_back(std::move(record));
}

void DataRepository::store_degradation(DegradationRecord record) {
  degradations_.push_back(std::move(record));
}

std::string to_string(DegradationRecord::Phase phase) {
  switch (phase) {
    case DegradationRecord::Phase::kEnter: return "enter";
    case DegradationRecord::Phase::kRecover: return "recover";
    case DegradationRecord::Phase::kDemote: return "demote";
    case DegradationRecord::Phase::kPromote: return "promote";
  }
  return "?";
}

}  // namespace explora::oran
