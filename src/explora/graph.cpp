#include "explora/graph.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/format.hpp"

namespace explora::core {

namespace {

constexpr std::uint64_t kEdgeStride = 1u << 20;  // far above any node count

[[nodiscard]] std::uint64_t edge_key(std::size_t from, std::size_t to) {
  return static_cast<std::uint64_t>(from) * kEdgeStride +
         static_cast<std::uint64_t>(to);
}

}  // namespace

std::string attribute_name(std::size_t attribute) {
  EXPLORA_EXPECTS(attribute < kNumAttributes);
  const auto kpi =
      static_cast<netsim::Kpi>(attribute / netsim::kNumSlices);
  const auto slice =
      static_cast<netsim::Slice>(attribute % netsim::kNumSlices);
  return common::format("{}[{}]", netsim::to_string(kpi),
                        netsim::to_string(slice));
}

double ActionNode::attribute_mean(netsim::Kpi kpi,
                                  netsim::Slice slice) const {
  return attributes[attribute_index(kpi, slice)].mean();
}

double ActionNode::user_attribute_mean(netsim::Kpi kpi,
                                       netsim::Slice slice) const {
  return user_attributes[attribute_index(kpi, slice)].mean();
}

AttributedGraph::AttributedGraph() : AttributedGraph(Config{}) {}

AttributedGraph::AttributedGraph(Config config) : config_(config) {
  EXPLORA_EXPECTS(config.attribute_capacity > 0);
}

std::size_t AttributedGraph::find_or_create(
    const netsim::SlicingControl& action) {
  const auto it = index_.find(action);
  if (it != index_.end()) return it->second;

  const std::size_t node_index = nodes_.size();
  EXPLORA_ASSERT(node_index < kEdgeStride);
  ActionNode node;
  node.action = action;
  node.attributes.reserve(kNumAttributes);
  node.user_attributes.reserve(kNumAttributes);
  for (std::size_t p = 0; p < kNumAttributes; ++p) {
    node.attributes.emplace_back(config_.attribute_capacity,
                                 config_.seed + next_attribute_seed_++);
    node.user_attributes.emplace_back(config_.attribute_capacity,
                                      config_.seed + next_attribute_seed_++);
  }
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  index_.emplace(action, node_index);
  return node_index;
}

void AttributedGraph::begin_action(const netsim::SlicingControl& action) {
  const std::size_t node_index = find_or_create(action);
  ++nodes_[node_index].visits;
  if (current_node_.has_value()) {
    const std::size_t from = *current_node_;
    const auto key = edge_key(from, node_index);
    auto [it, inserted] = edges_.try_emplace(key, 0);
    ++it->second;
    if (inserted) adjacency_[from].push_back(node_index);
    ++total_transitions_;
  }
  current_node_ = node_index;
}

void AttributedGraph::record_consequence(const netsim::KpiReport& report) {
  EXPLORA_EXPECTS(current_node_.has_value());
  ActionNode& node = nodes_[*current_node_];
  for (std::size_t k = 0; k < netsim::kNumKpis; ++k) {
    for (std::size_t l = 0; l < netsim::kNumSlices; ++l) {
      const auto kpi = static_cast<netsim::Kpi>(k);
      const auto slice = static_cast<netsim::Slice>(l);
      const std::size_t index = attribute_index(kpi, slice);
      node.attributes[index].add(report.value(kpi, slice));
      // Appendix-B attribute form: one sample per user.
      const netsim::SliceKpiReport& slice_report =
          report.slices[static_cast<std::size_t>(slice)];
      const netsim::PerUeValues* per_ue = nullptr;
      switch (kpi) {
        case netsim::Kpi::kTxBitrate:
          per_ue = &slice_report.tx_bitrate_mbps;
          break;
        case netsim::Kpi::kTxPackets:
          per_ue = &slice_report.tx_packets;
          break;
        case netsim::Kpi::kBufferSize:
          per_ue = &slice_report.buffer_bytes;
          break;
      }
      if (per_ue != nullptr) {
        for (double value : *per_ue) node.user_attributes[index].add(value);
      }
    }
  }
  ++node.samples;
}

void AttributedGraph::break_temporal_link() noexcept {
  current_node_.reset();
}

bool AttributedGraph::contains(const netsim::SlicingControl& action) const {
  return index_.find(action) != index_.end();
}

const ActionNode* AttributedGraph::find(
    const netsim::SlicingControl& action) const {
  const auto it = index_.find(action);
  return it == index_.end() ? nullptr : &nodes_[it->second];
}

std::span<const std::size_t> AttributedGraph::neighbors(
    const netsim::SlicingControl& action) const {
  const auto it = index_.find(action);
  if (it == index_.end()) return {};
  return adjacency_[it->second];
}

const ActionNode& AttributedGraph::node(std::size_t index) const {
  EXPLORA_EXPECTS(index < nodes_.size());
  return nodes_[index];
}

std::uint64_t AttributedGraph::edge_visits(
    const netsim::SlicingControl& from,
    const netsim::SlicingControl& to) const {
  const auto from_it = index_.find(from);
  const auto to_it = index_.find(to);
  if (from_it == index_.end() || to_it == index_.end()) return 0;
  const auto it = edges_.find(edge_key(from_it->second, to_it->second));
  return it == edges_.end() ? 0 : it->second;
}

std::vector<std::tuple<std::size_t, std::size_t, std::uint64_t>>
AttributedGraph::edges() const {
  std::vector<std::tuple<std::size_t, std::size_t, std::uint64_t>> out;
  out.reserve(edges_.size());
  for (const auto& [key, count] : edges_) {  // det-ok: unordered-iter (sorted below)
    out.emplace_back(static_cast<std::size_t>(key / kEdgeStride),
                     static_cast<std::size_t>(key % kEdgeStride), count);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string AttributedGraph::describe(std::size_t top_n) const {
  std::string out = common::format(
      "AttributedGraph: {} nodes, {} edges, {} transitions\n", nodes_.size(),
      edges_.size(), total_transitions_);
  std::vector<std::size_t> order(nodes_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return nodes_[a].visits > nodes_[b].visits;
  });
  const std::size_t shown = std::min(top_n, order.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const ActionNode& node = nodes_[order[i]];
    out += common::format("  {} visits={} samples={} out-degree={}\n",
                          node.action.to_string(), node.visits, node.samples,
                          adjacency_[order[i]].size());
  }
  return out;
}

std::string AttributedGraph::to_dot(std::uint64_t min_visits) const {
  std::string out = "digraph explora {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  std::vector<bool> kept(nodes_.size(), false);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const ActionNode& node = nodes_[i];
    if (node.visits < min_visits) continue;
    kept[i] = true;
    out += common::format("  n{} [label=\"{}\\nvisits={}\"];\n", i,
                          node.action.to_string(), node.visits);
  }
  for (const auto& [from, to, count] : edges()) {
    if (!kept[from] || !kept[to]) continue;
    out += common::format("  n{} -> n{} [label=\"{}\"];\n", from, to,
                          count);
  }
  out += "}\n";
  return out;
}

}  // namespace explora::core
