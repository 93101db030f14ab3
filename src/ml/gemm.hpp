// Blocked GEMM core behind DenseLayer::forward / Mlp::forward_batch, with
// a deterministic fixed reduction order.
//
// Every backend computes, for each (batch row b, output neuron r):
//
//   acc = ((w[r][0]*x[b][0]) + w[r][1]*x[b][1]) + ... + w[r][in-1]*x[b][in-1]
//   y[b][r] = epilogue(acc [+ bias[r]])
//
// i.e. one multiply and one add per term, strictly in ascending input
// order — the exact dependency chain of the naive scalar loop. Weights
// reach the kernels in one layout only, PanelWeights: transposed panels of
// kPanelWidth neurons, which a DenseLayer stores as its only copy. The
// SIMD backends vectorize ACROSS output neurons (each vector lane owns one
// r and keeps its own sequential-over-c chain, one aligned panel load per
// input c) and never accumulate with FMA or horizontal reductions, so
// their results are byte-identical to the scalar reference on every
// input. The tanh epilogue is detmath::tanh (common/detmath.hpp) in every
// backend: the SIMD ones run a lane-wise copy of its operation sequence,
// fused sites included. So do exp_array and softmax_chosen_lanes (the
// SHAP probe softmax) with detmath::exp. That invariant is
// what keeps golden traces and SHAP attributions unchanged when
// EXPLORA_SIMD toggles; tests/test_gemm.cpp, tests/test_tanh.cpp and
// tests/test_exp.cpp enforce it, and tools/lint_determinism.py bans raw
// intrinsics outside these kernels and libm's tanh and exp under src/.
//
// Backend selection is the math layer's (common/detmath.hpp): one
// selection, read by these kernels and by netsim's channel draws alike.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/detmath.hpp"

namespace explora::ml::gemm {

using detmath::active_backend;
using detmath::Backend;
using detmath::backend_available;
using detmath::ScopedBackend;
using detmath::set_backend;
using detmath::to_string;

/// Element-wise finisher fused into the kernel while the output tile is
/// cache-hot: y = act(acc + bias). kNone ignores `bias` (may be null).
enum class Epilogue : std::uint8_t {
  kNone = 0,
  kBias = 1,
  kBiasRelu = 2,
  kBiasTanh = 3,
};

/// Output neurons per weight panel: one 512-bit register, or two 256-bit
/// halves.
inline constexpr std::size_t kPanelWidth = 8;

/// Doubles in the panel layout of an out x in weight matrix.
[[nodiscard]] constexpr std::size_t panel_size(std::size_t out,
                                               std::size_t in) noexcept {
  return (out + kPanelWidth - 1) / kPanelWidth * in * kPanelWidth;
}

/// Offset of weight (r, c) in the panel layout: panel p = r / 8 holds
/// neurons [8p, 8p + 8), and within it the 8 weights of input c sit
/// contiguous at offset c * 8.
[[nodiscard]] constexpr std::size_t panel_index(std::size_t r, std::size_t c,
                                                std::size_t in) noexcept {
  return (r / kPanelWidth) * in * kPanelWidth + c * kPanelWidth +
         r % kPanelWidth;
}

/// An out x in weight matrix in the panel layout, the only form the
/// kernels read: `panels` is 64-byte aligned, holds panel_size(out, in)
/// doubles, and the lanes of the last panel past `out` are zero.
struct PanelWeights {
  const double* panels = nullptr;
  std::size_t out = 0;
  std::size_t in = 0;
};

/// Writes w (out x in, row-major) into `panels` (panel_size(out, in)
/// doubles) in the panel layout, pad lanes zero.
void pack(const double* w, std::size_t out, std::size_t in,
          double* panels) noexcept;

/// y (batch x out) = x (batch x in) * w^T, plus the fused epilogue. x and y
/// are row-major and must not alias. `bias` must have `w.out` elements
/// unless the epilogue is kNone.
void run(PanelWeights w, const double* x, std::size_t batch, double* y,
         const double* bias, Epilogue epilogue);

/// y[i] = detmath::exp(x[i]) for i < n, on the active
/// backend's lanes; byte-identical to the scalar port on every backend.
void exp_array(const double* x, double* y, std::size_t n);

/// Independent softmaxes that softmax_chosen_lanes() runs side by side,
/// one per vector lane: a 512-bit register, or two 256-bit halves.
inline constexpr std::size_t kSoftmaxLanes = 8;

/// probs[l] = the probability softmax l of kSoftmaxLanes assigns to its
/// element `chosen`. Each softmax has `width` (> chosen) logits, element j
/// of softmax l at block[j * kSoftmaxLanes + l] (so element j of every
/// lane is one vector load). Each lane runs ml::softmax's arithmetic in
/// its element order — first-maximum peak scan, exp(v - peak) by
/// detmath::exp's bits, a sequential sum from 0 — then divides its
/// chosen term by the sum, so probs[l] is bit-identical to element
/// `chosen` of ml::softmax on lane l.
void softmax_chosen_lanes(const double* block, std::size_t width,
                          std::size_t chosen, double* probs);

namespace detail {

/// Portable reference kernel — the reduction-order contract in executable
/// form. Every SIMD backend must match it byte-for-byte.
void scalar_kernel(PanelWeights w, const double* x, std::size_t batch,
                   double* y, const double* bias, Epilogue epilogue);
/// Reference exp_array / softmax_chosen_lanes (detmath::exp per
/// element); the scalar backend runs these.
void scalar_exp_array(const double* x, double* y, std::size_t n) noexcept;
void scalar_softmax_chosen_lanes(const double* block, std::size_t width,
                                 std::size_t chosen, double* probs) noexcept;

#if defined(EXPLORA_SIMD_AVX2)
void avx2_kernel(PanelWeights w, const double* x, std::size_t batch,
                 double* y, const double* bias, Epilogue epilogue);
void avx2_exp_array(const double* x, double* y, std::size_t n) noexcept;
void avx2_softmax_chosen_lanes(const double* block, std::size_t width,
                               std::size_t chosen, double* probs) noexcept;
#endif
#if defined(EXPLORA_SIMD_AVX512)
void avx512_kernel(PanelWeights w, const double* x, std::size_t batch,
                   double* y, const double* bias, Epilogue epilogue);
void avx512_exp_array(const double* x, double* y, std::size_t n) noexcept;
void avx512_softmax_chosen_lanes(const double* block, std::size_t width,
                                 std::size_t chosen, double* probs) noexcept;
#endif

/// Scalar epilogue over one panel of one row: dst[l] for l < valid from
/// acc[l] and bias[r0 + l]. The scalar kernel finishes every panel with it
/// and the SIMD backends their partial ones, so the finisher semantics
/// cannot drift between them.
void apply_epilogue(double* dst, const double* acc, const double* bias,
                    std::size_t r0, std::size_t valid,
                    Epilogue epilogue) noexcept;

}  // namespace detail

}  // namespace explora::ml::gemm
