// The attributed graph G = (N, E, B) at the heart of EXPLORA (§4.1-4.2):
//   - nodes N: multi-modal actions (SlicingControl) taken by the agent,
//   - attributes B: per-(KPI, slice) distributions of the network state
//     observed *after* the action was enforced (its consequence),
//   - edges E: temporal transitions between subsequently enforced actions,
//     with occurrence counts.
// This re-establishes the input-output link the autoencoder breaks
// (Challenge 1), encodes the memory of the decision process in the edge
// structure (Challenge 2), and keeps each mode of the multi-modal action
// inspectable (Challenge 3).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "netsim/kpi.hpp"
#include "netsim/types.hpp"

namespace explora::core {

/// Attribute count P = K x L (one distribution per KPI per slice).
inline constexpr std::size_t kNumAttributes =
    netsim::kNumKpis * netsim::kNumSlices;

/// Flat attribute index for (kpi, slice).
[[nodiscard]] constexpr std::size_t attribute_index(
    netsim::Kpi kpi, netsim::Slice slice) noexcept {
  return static_cast<std::size_t>(kpi) * netsim::kNumSlices +
         static_cast<std::size_t>(slice);
}

/// Human-readable attribute name, e.g. "tx_bitrate[eMBB]".
[[nodiscard]] std::string attribute_name(std::size_t attribute);

/// One node: an action and the empirical distribution of its consequences.
struct ActionNode {
  netsim::SlicingControl action;
  /// Slice-aggregate KPI distributions (reward estimation, JS comparison).
  std::vector<common::SampleStore> attributes;  ///< size kNumAttributes
  /// Per-user KPI distributions — the paper's Appendix-B attribute form
  /// ("SL0 [225, 234]"): every UE's value enters as an individual sample.
  std::vector<common::SampleStore> user_attributes;  ///< size kNumAttributes
  std::uint64_t visits = 0;      ///< times the action was enforced
  std::uint64_t samples = 0;     ///< KPI reports recorded under the action

  /// Mean of one slice-aggregate attribute's distribution (0 when empty).
  [[nodiscard]] double attribute_mean(netsim::Kpi kpi,
                                      netsim::Slice slice) const;
  /// Mean per-user value of one attribute (0 when empty).
  [[nodiscard]] double user_attribute_mean(netsim::Kpi kpi,
                                           netsim::Slice slice) const;
};

class AttributedGraph {
 public:
  struct Config {
    std::size_t attribute_capacity = 256;  ///< reservoir size per attribute
    std::uint64_t seed = 97;
  };

  AttributedGraph();
  explicit AttributedGraph(Config config);

  /// Registers that `action` was enforced; creates its node when new,
  /// increments visits, and records the temporal edge from the previously
  /// enforced action (including self-edges for repeated actions).
  void begin_action(const netsim::SlicingControl& action);

  /// Records one post-action KPI report into the current action's
  /// attributes. Requires at least one begin_action() call.
  void record_consequence(const netsim::KpiReport& report);

  /// Resets the temporal linkage without clearing knowledge (e.g. across
  /// episode boundaries), so no spurious edge is created.
  void break_temporal_link() noexcept;

  // --- queries -----------------------------------------------------------
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edges_.size();
  }
  [[nodiscard]] std::uint64_t total_transitions() const noexcept {
    return total_transitions_;
  }
  [[nodiscard]] bool contains(const netsim::SlicingControl& action) const;
  /// Node for an action; nullptr when the action was never observed.
  [[nodiscard]] const ActionNode* find(
      const netsim::SlicingControl& action) const;
  [[nodiscard]] const std::vector<ActionNode>& nodes() const noexcept {
    return nodes_;
  }
  /// First-hop out-neighbours of an action's node (indices into nodes()),
  /// a view valid until the graph next changes. Empty when the action is
  /// unknown.
  [[nodiscard]] std::span<const std::size_t> neighbors(
      const netsim::SlicingControl& action) const;
  [[nodiscard]] const ActionNode& node(std::size_t index) const;
  /// Count of observed transitions a -> b (0 when never seen).
  [[nodiscard]] std::uint64_t edge_visits(
      const netsim::SlicingControl& from,
      const netsim::SlicingControl& to) const;
  /// All edges as (from_index, to_index, count).
  [[nodiscard]] std::vector<std::tuple<std::size_t, std::size_t,
                                       std::uint64_t>> edges() const;

  /// Multi-line structural summary (node/edge counts, top actions).
  [[nodiscard]] std::string describe(std::size_t top_n = 8) const;

  /// GraphViz (dot) rendering of the graph (the paper's Fig. 12 artwork):
  /// node size annotation = visit count, edge label = transition count.
  /// Nodes with fewer than `min_visits` visits are elided to keep large
  /// graphs readable.
  [[nodiscard]] std::string to_dot(std::uint64_t min_visits = 1) const;

 private:
  [[nodiscard]] std::size_t find_or_create(
      const netsim::SlicingControl& action);

  Config config_;
  std::vector<ActionNode> nodes_;
  std::unordered_map<netsim::SlicingControl, std::size_t,
                     netsim::SlicingControlHash> index_;
  /// Edge key: from * kEdgeStride + to (node indices).
  std::unordered_map<std::uint64_t, std::uint64_t> edges_;
  std::vector<std::vector<std::size_t>> adjacency_;  ///< out-neighbours
  std::optional<std::size_t> current_node_;
  std::uint64_t total_transitions_ = 0;
  std::uint64_t next_attribute_seed_ = 1;
};

}  // namespace explora::core
