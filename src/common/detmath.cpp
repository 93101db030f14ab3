// Backend selection for the whole repo and the dispatch of detmath's lane
// entry points (see common/detmath.hpp). ml::gemm's kernels read the same
// selection.
#include "common/detmath.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace explora::detmath {

const char* to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kAvx512: return "avx512";
  }
  return "?";
}

namespace detail {

void scalar_log_array(const double* x, double* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] = log(x[i]);
}

void scalar_log_sincos_array(const double* x, const double* a, double* log_x,
                             double* sin_a, double* cos_a,
                             std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    log_x[i] = log(x[i]);
    const SinCos sc = sincos(a[i]);
    sin_a[i] = sc.sin;
    cos_a[i] = sc.cos;
  }
}

}  // namespace detail

namespace {

[[nodiscard]] bool compiled_in(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(EXPLORA_SIMD_AVX2)
      return true;
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(EXPLORA_SIMD_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

[[nodiscard]] bool cpu_supports(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      // The ports' fused sites are FMA instructions in the AVX2 lanes.
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

[[nodiscard]] Backend detect_backend() noexcept {
  // Runtime escape hatch mirroring the CMake option, for A/B runs of an
  // already-built binary. Results are byte-identical either way, so this
  // only ever changes speed.
  if (const char* env = std::getenv("EXPLORA_SIMD")) {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
        std::strcmp(env, "scalar") == 0) {
      return Backend::kScalar;
    }
    // Pin a specific backend by name; silently falls through to auto
    // detection when it is not available on this build/CPU.
    for (Backend pin : {Backend::kAvx512, Backend::kAvx2}) {
      if (std::strcmp(env, to_string(pin)) == 0 && compiled_in(pin) &&
          cpu_supports(pin)) {
        return pin;
      }
    }
  }
  for (Backend best : {Backend::kAvx512, Backend::kAvx2}) {
    if (compiled_in(best) && cpu_supports(best)) return best;
  }
  return Backend::kScalar;
}

[[nodiscard]] std::atomic<Backend>& backend_slot() noexcept {
  // Relaxed: any racing reader still gets a valid backend.
  static std::atomic<Backend> slot{detect_backend()};
  return slot;
}

}  // namespace

bool backend_available(Backend backend) noexcept {
  return compiled_in(backend) && cpu_supports(backend);
}

Backend active_backend() noexcept {
  return backend_slot().load(std::memory_order_relaxed);
}

bool set_backend(Backend backend) noexcept {
  if (!backend_available(backend)) return false;
  backend_slot().store(backend, std::memory_order_relaxed);
  return true;
}

void log_array(const double* x, double* y, std::size_t n) noexcept {
  switch (active_backend()) {
#if defined(EXPLORA_SIMD_AVX2)
    case Backend::kAvx2:
      detail::avx2_log_array(x, y, n);
      return;
#endif
#if defined(EXPLORA_SIMD_AVX512)
    case Backend::kAvx512:
      detail::avx512_log_array(x, y, n);
      return;
#endif
    default:
      detail::scalar_log_array(x, y, n);
      return;
  }
}

void log_sincos_array(const double* x, const double* a, double* log_x,
                      double* sin_a, double* cos_a, std::size_t n) noexcept {
  switch (active_backend()) {
#if defined(EXPLORA_SIMD_AVX2)
    case Backend::kAvx2:
      detail::avx2_log_sincos_array(x, a, log_x, sin_a, cos_a, n);
      return;
#endif
#if defined(EXPLORA_SIMD_AVX512)
    case Backend::kAvx512:
      detail::avx512_log_sincos_array(x, a, log_x, sin_a, cos_a, n);
      return;
#endif
    default:
      detail::scalar_log_sincos_array(x, a, log_x, sin_a, cos_a, n);
      return;
  }
}

}  // namespace explora::detmath
