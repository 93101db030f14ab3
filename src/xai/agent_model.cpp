#include "xai/agent_model.hpp"

namespace explora::xai {

MatrixModelFn head_probability_model(const ml::PolicyAgent& agent,
                                     const ml::AgentAction& chosen) {
  return [&agent, chosen](const ml::Matrix& probes) {
    return agent.chosen_probabilities(probes, chosen);
  };
}

}  // namespace explora::xai
