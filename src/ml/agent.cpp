#include "ml/agent.hpp"

#include "common/contracts.hpp"
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

Matrix softmax_chosen(Matrix& logits, const AgentAction& chosen,
                      const char* agent) {
  const auto offsets = head_offsets();
  const auto choices = head_choices(chosen);
  EXPLORA_EXPECTS(logits.cols() == offsets[kNumHeads]);
  for (std::size_t h = 0; h < kNumHeads; ++h) {
    EXPLORA_EXPECTS(choices[h] < offsets[h + 1] - offsets[h]);
  }
  Matrix out(logits.rows(), kNumHeads);
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto row = logits.data().subspan(r * logits.cols(), logits.cols());
    for (std::size_t h = 0; h < kNumHeads; ++h) {
      const auto head = row.subspan(offsets[h], offsets[h + 1] - offsets[h]);
      softmax(head);
      EXPLORA_AUDIT_MSG(contracts::is_probability_simplex(head),
                        "{} head {} is not a probability distribution", agent,
                        h);
      out(r, h) = head[choices[h]];
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
