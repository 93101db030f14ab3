// Steps standalone UEs through one TTI the way Gnb::run_tti does: every
// channel advances in one UeChannel::advance_all pass, then each UE pulls
// its arrivals.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "netsim/ue.hpp"

namespace explora::testfix {

inline void step_tti(std::span<netsim::Ue* const> ues, netsim::Tick now) {
  std::vector<netsim::UeChannel*> channels;
  for (netsim::Ue* ue : ues) channels.push_back(&ue->channel());
  netsim::UeChannel::advance_all(channels);
  for (netsim::Ue* ue : ues) ue->pull_arrivals(now);
}

inline void step_tti(const std::vector<std::unique_ptr<netsim::Ue>>& ues,
                     netsim::Tick now) {
  std::vector<netsim::Ue*> raw;
  for (const auto& ue : ues) raw.push_back(ue.get());
  step_tti(raw, now);
}

inline void step_tti(netsim::Ue& ue, netsim::Tick now) {
  netsim::Ue* const one = &ue;
  step_tti(std::span<netsim::Ue* const>(&one, 1), now);
}

}  // namespace explora::testfix
