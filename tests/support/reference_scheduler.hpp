// Test-only oracle: RR/WF/PF written as per-PRB grant loops. Each loop
// hands out one PRB at a time and re-reads the channel and buffer on every
// grant, which makes it slow but a literal reading of the policy's
// definition. The differential test in test_scheduler.cpp checks the
// production schedulers, which compute one grant per UE, against it byte
// for byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "netsim/ue.hpp"

namespace explora::netsim::reference {

/// Serves one PRB worth of data to a UE; returns bytes actually sent.
inline std::uint64_t serve_one_prb(Ue& ue) {
  return ue.serve(ue.channel().bytes_per_prb());
}

inline std::vector<Ue*> backlogged(std::span<Ue*> ues) {
  std::vector<Ue*> out;
  for (Ue* ue : ues) {
    if (ue->has_data()) out.push_back(ue);
  }
  return out;
}

/// Per-PRB round robin. `next` is the rotating start offset the scheduler
/// keeps between TTIs. Returns the PRBs granted.
inline std::uint32_t round_robin_tti(std::span<Ue*> ues,
                                     std::uint32_t prb_budget,
                                     std::size_t& next) {
  const std::vector<Ue*> active = backlogged(ues);
  if (active.empty() || prb_budget == 0) return 0;
  next %= active.size();
  std::size_t cursor = next;
  std::uint32_t remaining = prb_budget;
  // Cycle until the budget is spent or nobody has data left.
  std::size_t idle_passes = 0;
  while (remaining > 0 && idle_passes < active.size()) {
    Ue& ue = *active[cursor];
    cursor = (cursor + 1) % active.size();
    if (!ue.has_data()) {
      ++idle_passes;
      continue;
    }
    idle_passes = 0;
    serve_one_prb(ue);
    --remaining;
  }
  next = (next + 1) % active.size();
  return prb_budget - remaining;
}

/// Per-PRB waterfilling: best SINR first, ties by UE id.
inline std::uint32_t waterfilling_tti(std::span<Ue*> ues,
                                      std::uint32_t prb_budget) {
  std::vector<Ue*> active = backlogged(ues);
  if (active.empty() || prb_budget == 0) return 0;
  std::sort(active.begin(), active.end(), [](const Ue* a, const Ue* b) {
    if (a->channel().sinr_db() != b->channel().sinr_db()) {
      return a->channel().sinr_db() > b->channel().sinr_db();
    }
    return a->id() < b->id();
  });
  std::uint32_t remaining = prb_budget;
  for (Ue* ue : active) {
    while (remaining > 0 && ue->has_data()) {
      serve_one_prb(*ue);
      --remaining;
    }
    if (remaining == 0) break;
  }
  return prb_budget - remaining;
}

/// Per-PRB proportional fair: every PRB goes to the UE with the best
/// rate / EWMA ratio (first maximum wins), then the EWMA is updated.
inline std::uint32_t proportional_fair_tti(std::span<Ue*> ues,
                                           std::uint32_t prb_budget,
                                           double alpha) {
  const std::vector<Ue*> active = backlogged(ues);
  std::vector<double> served_bits(active.size(), 0.0);
  std::uint32_t granted = 0;
  if (!active.empty() && prb_budget > 0) {
    std::uint32_t remaining = prb_budget;
    while (remaining > 0) {
      double best_metric = -1.0;
      std::size_t best = active.size();
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (!active[i]->has_data()) continue;
        const double inst = active[i]->channel().bits_per_prb();
        const double avg = std::max(active[i]->pf_average(), 1e-3);
        const double metric = inst / avg;
        if (metric > best_metric) {
          best_metric = metric;
          best = i;
        }
      }
      if (best == active.size()) break;  // all drained
      const std::uint64_t sent = serve_one_prb(*active[best]);
      served_bits[best] += static_cast<double>(sent) * 8.0;
      --remaining;
    }
    granted = prb_budget - remaining;
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    double& avg = active[i]->pf_average();
    avg = (1.0 - alpha) * avg + alpha * served_bits[i];
  }
  return granted;
}

}  // namespace explora::netsim::reference
