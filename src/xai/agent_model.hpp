// Bridges a trained PolicyAgent into the XAI explainers' matrix-batched
// model interface. This is the "model under explanation" of the paper's
// Figs. 3-4: latent state in, probability the agent assigns to the chosen
// component of each action head out (kNumHeads outputs: PRB split + one
// scheduler per slice).
#pragma once

#include "ml/agent.hpp"
#include "xai/shap.hpp"

namespace explora::xai {

/// Wraps `agent` into a MatrixModelFn: row r of the result holds the
/// per-head probabilities of `chosen`'s components at probe row r. It
/// forwards the whole probe matrix to PolicyAgent::chosen_probabilities —
/// for Mlp-backed agents that is one blocked-GEMM sweep per layer and an
/// in-place softmax per head, with no per-probe allocation and
/// probabilities bit-identical to head_distributions. The agent must
/// outlive the returned callable; safe to invoke concurrently.
[[nodiscard]] MatrixModelFn head_probability_model(
    const ml::PolicyAgent& agent, const ml::AgentAction& chosen);

}  // namespace explora::xai
