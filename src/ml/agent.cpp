#include "ml/agent.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "ml/gemm.hpp"
#include "ml/nn.hpp"
#include "netsim/types.hpp"

namespace explora::ml {

std::array<std::size_t, kNumHeads + 1> head_offsets() {
  std::array<std::size_t, kNumHeads + 1> offsets{};
  offsets[1] = netsim::prb_catalog().size();
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    offsets[2 + s] = offsets[1 + s] + netsim::kNumSchedulerPolicies;
  }
  return offsets;
}

std::array<std::size_t, kNumHeads> head_choices(
    const AgentAction& action) noexcept {
  std::array<std::size_t, kNumHeads> choices{};
  choices[0] = action.prb_choice;
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    choices[1 + s] = action.sched_choice[s];
  }
  return choices;
}

namespace {

/// Audit helper: ml::softmax on `head` (which audits the simplex) puts
/// exactly `prob` at `choice`.
[[nodiscard]] bool matches_softmax(std::span<const double> head,
                                   std::size_t choice, double prob) {
  std::vector<double> probs(head.begin(), head.end());
  softmax(probs);
  return std::bit_cast<std::uint64_t>(probs[choice]) ==
         std::bit_cast<std::uint64_t>(prob);
}

}  // namespace

Matrix softmax_chosen(const Matrix& logits, const AgentAction& chosen,
                      const char* agent) {
  constexpr std::size_t kLanes = gemm::kSoftmaxLanes;
  const auto offsets = head_offsets();
  const auto choices = head_choices(chosen);
  const std::size_t cols = logits.cols();
  EXPLORA_EXPECTS(cols == offsets[kNumHeads]);
  for (std::size_t h = 0; h < kNumHeads; ++h) {
    EXPLORA_EXPECTS(choices[h] < offsets[h + 1] - offsets[h]);
  }
  Matrix out(logits.rows(), kNumHeads);
  // Row group r0.. transposed: column c of row r0 + l at block[c * kLanes +
  // l], so head h's span starts at block + offsets[h] * kLanes. Lanes past
  // the last row are zero-filled and their results dropped.
  std::vector<double> block(cols * kLanes);
  std::array<double, kLanes> probs{};
  for (std::size_t r0 = 0; r0 < logits.rows(); r0 += kLanes) {
    const std::size_t rows = std::min(kLanes, logits.rows() - r0);
    if (rows < kLanes) std::fill(block.begin(), block.end(), 0.0);
    for (std::size_t l = 0; l < rows; ++l) {
      const double* row = logits.data().data() + (r0 + l) * cols;
      for (std::size_t c = 0; c < cols; ++c) block[c * kLanes + l] = row[c];
    }
    for (std::size_t h = 0; h < kNumHeads; ++h) {
      const std::size_t width = offsets[h + 1] - offsets[h];
      gemm::softmax_chosen_lanes(block.data() + offsets[h] * kLanes, width,
                                 choices[h], probs.data());
      for (std::size_t l = 0; l < rows; ++l) {
        out(r0 + l, h) = probs[l];
        EXPLORA_AUDIT_MSG(
            matches_softmax(logits.data().subspan((r0 + l) * cols + offsets[h],
                                                  width),
                            choices[h], probs[l]),
            "{} head {}: lane softmax disagrees with ml::softmax", agent, h);
      }
    }
  }
  return out;
}

Matrix PolicyAgent::chosen_probabilities(const Matrix& states,
                                         const AgentAction& chosen) const {
  const auto choices = head_choices(chosen);
  Matrix out(states.rows(), kNumHeads);
  for (std::size_t r = 0; r < states.rows(); ++r) {
    const auto heads = head_distributions(
        states.data().subspan(r * states.cols(), states.cols()));
    EXPLORA_EXPECTS(heads.size() == kNumHeads);
    for (std::size_t h = 0; h < kNumHeads; ++h) {
      EXPLORA_EXPECTS(choices[h] < heads[h].size());
      out(r, h) = heads[h][choices[h]];
    }
  }
  return out;
}

}  // namespace explora::ml
