// Blocked GEMM core behind Matrix::multiply / Mlp::forward_batch, with a
// deterministic fixed reduction order.
//
// Every backend computes, for each (batch row b, output neuron r):
//
//   acc = ((w[r][0]*x[b][0]) + w[r][1]*x[b][1]) + ... + w[r][in-1]*x[b][in-1]
//   y[b][r] = epilogue(acc [+ bias[r]])
//
// i.e. one multiply and one add per term, strictly in ascending input
// order — the exact dependency chain of the naive scalar loop. The SIMD
// backends vectorize ACROSS output neurons (each vector lane owns one r
// and keeps its own sequential-over-c chain, reading a packed transposed
// weight panel) and never accumulate with FMA or horizontal reductions,
// so their results are byte-identical to the scalar fallback on every
// input. The tanh epilogue is ml::fdlibm_tanh (ml/tanh.hpp) in every
// backend: the SIMD ones run a lane-wise copy of its operation sequence,
// fused sites included. So do exp_array and softmax_chosen_lanes (the
// SHAP probe softmax) with ml::glibc_exp (ml/exp.hpp). That invariant is
// what keeps golden traces and SHAP attributions unchanged when
// EXPLORA_SIMD toggles; tests/test_gemm.cpp, tests/test_tanh.cpp and
// tests/test_exp.cpp enforce it, and tools/lint_determinism.py bans raw
// intrinsics outside these kernels and libm's tanh and exp under src/.
//
// Backend selection: the best compiled-in backend the CPU supports is
// picked on first use (avx512 > avx2 > neon > scalar); the EXPLORA_SIMD
// environment variable ("off"/"0"/"scalar" to disable, or a backend name
// like "avx2" to pin one) and set_backend()/ScopedBackend (tests, benches)
// override it at runtime. Configure-time: the EXPLORA_SIMD CMake option
// compiles the SIMD translation units out entirely.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/aligned.hpp"

namespace explora::ml::gemm {

enum class Backend : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
  kAvx512 = 3,
};

[[nodiscard]] const char* to_string(Backend backend) noexcept;

/// Element-wise finisher fused into the kernel while the output tile is
/// cache-hot: y = act(acc + bias). kNone ignores `bias` (may be null).
enum class Epilogue : std::uint8_t {
  kNone = 0,
  kBias = 1,
  kBiasRelu = 2,
  kBiasTanh = 3,
};

/// True when `backend` is compiled in and supported by this CPU. kScalar
/// is always available.
[[nodiscard]] bool backend_available(Backend backend) noexcept;

/// Backend the next run() call dispatches to.
[[nodiscard]] Backend active_backend() noexcept;

/// Selects the dispatch backend. Returns false (keeping the current one)
/// when `backend` is unavailable on this build/CPU.
bool set_backend(Backend backend) noexcept;

/// RAII backend override for tests and benches; restores the previous
/// backend on destruction. Selecting an unavailable backend is a no-op
/// (engaged() reports whether the switch took).
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend backend) noexcept
      : previous_(active_backend()), engaged_(set_backend(backend)) {}
  ~ScopedBackend() { set_backend(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
  [[nodiscard]] bool engaged() const noexcept { return engaged_; }

 private:
  Backend previous_;
  bool engaged_;
};

/// y (batch x out) = x (batch x in) * w (out x in)^T, plus the fused
/// epilogue. All pointers are row-major and must not alias. `bias` must
/// have `out` elements unless the epilogue is kNone.
void run(const double* w, std::size_t out, std::size_t in, const double* x,
         std::size_t batch, double* y, const double* bias, Epilogue epilogue);

/// y[i] = ml::glibc_exp(x[i]) for i < n (ml/exp.hpp), on the active
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
/// ml::glibc_exp's bits, a sequential sum from 0 — then divides its
/// chosen term by the sum, so probs[l] is bit-identical to element
/// `chosen` of ml::softmax on lane l.
void softmax_chosen_lanes(const double* block, std::size_t width,
                          std::size_t chosen, double* probs);

namespace detail {

/// Portable reference kernel — the reduction-order contract in executable
/// form. Every SIMD backend must match it byte-for-byte.
void scalar_kernel(const double* w, std::size_t out, std::size_t in,
                   const double* x, std::size_t batch, double* y,
                   const double* bias, Epilogue epilogue);
/// Reference exp_array / softmax_chosen_lanes (ml::glibc_exp per
/// element); the scalar and NEON backends run these.
void scalar_exp_array(const double* x, double* y, std::size_t n) noexcept;
void scalar_softmax_chosen_lanes(const double* block, std::size_t width,
                                 std::size_t chosen, double* probs) noexcept;

#if defined(EXPLORA_SIMD_AVX2)
void avx2_kernel(const double* w, std::size_t out, std::size_t in,
                 const double* x, std::size_t batch, double* y,
                 const double* bias, Epilogue epilogue);
void avx2_exp_array(const double* x, double* y, std::size_t n) noexcept;
void avx2_softmax_chosen_lanes(const double* block, std::size_t width,
                               std::size_t chosen, double* probs) noexcept;
#endif
#if defined(EXPLORA_SIMD_AVX512)
void avx512_kernel(const double* w, std::size_t out, std::size_t in,
                   const double* x, std::size_t batch, double* y,
                   const double* bias, Epilogue epilogue);
void avx512_exp_array(const double* x, double* y, std::size_t n) noexcept;
void avx512_softmax_chosen_lanes(const double* block, std::size_t width,
                                 std::size_t chosen, double* probs) noexcept;
#endif
#if defined(EXPLORA_SIMD_NEON)
void neon_kernel(const double* w, std::size_t out, std::size_t in,
                 const double* x, std::size_t batch, double* y,
                 const double* bias, Epilogue epilogue);
#endif

/// Output neurons per packed weight panel of the x86 backends: one 512-bit
/// register, or two 256-bit halves.
inline constexpr std::size_t kPanelWidth = 8;

/// Packs w (out x in, row-major) into the x86 backends' transposed panels,
/// resizing `packed` to fit: panel p holds neurons [p*8, p*8+8), the 8
/// weights of input c contiguous at offset c*8 (one aligned vector load
/// per (panel, c)), lanes past `out` zero. Returns the panel count.
std::size_t pack_panels(const double* w, std::size_t out, std::size_t in,
                        common::AlignedVector<double>& packed);

/// Scalar epilogue over one packed tile; shared by the SIMD backends so
/// the finisher semantics can't drift from scalar_kernel's.
void apply_epilogue(double* dst, const double* acc, const double* bias,
                    std::size_t r0, std::size_t valid,
                    Epilogue epilogue) noexcept;

}  // namespace detail

}  // namespace explora::ml::gemm
