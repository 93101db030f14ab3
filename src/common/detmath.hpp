// The repo's one math layer: every transcendental that feeds a golden runs
// here, bit-identical on every host, libm, compiler flag and SIMD backend.
//
// Scalar ports (DESIGN.md §10.6 has the table provenance and fused sites):
//
//   exp     glibc 2.36 e_exp.c (FMA variant)      detmath_exp.cpp
//   log     glibc 2.36 e_log.c (FMA variant)      detmath_log.cpp
//   sincos  glibc 2.36 s_sincos.c (FMA variant),  detmath_sincos.cpp
//           with the unfused __branred above 105414350
//   tanh    fdlibm s_tanh.c / s_expm1.c as glibc  detmath_tanh.cpp
//           builds it with FMA
//
// Each is equal, bit for bit, to the function glibc 2.36's ifunc selects
// on an x86-64 CPU with FMA and AVX2. Every TU is compiled with
// -ffp-contract=off (root CMakeLists.txt), so each fused site is an
// explicit std::fma (or vfmadd lane) and every other operation rounds
// alone. The tables are glibc's, copied as hex literals from the installed
// libm.so.6.
//
// Lanes: log_array and log_sincos_array run AVX-512 or AVX2 copies of the
// scalar ports' operation sequences (detmath_avx512.cpp,
// detmath_avx2.cpp); exp and tanh have lane copies in the GEMM kernels
// (ml/gemm_<isa>.cpp). Lanes outside a copy's range recompute with the
// scalar port, so every backend returns the scalar bytes.
//
// Backend selection: the best compiled-in backend the CPU supports is
// picked on first use (avx512 > avx2 > scalar); the EXPLORA_SIMD
// environment variable ("off"/"0"/"scalar" to disable, or a backend name
// like "avx2" to pin one) and set_backend()/ScopedBackend (tests, benches)
// override it at runtime. It is the repo's one selection: ml::gemm's
// kernels and netsim's channel draws both read it. Configure-time: the
// EXPLORA_SIMD CMake option compiles the SIMD translation units out
// entirely; on other architectures the scalar ports run.
#pragma once

#include <cstddef>
#include <cstdint>

namespace explora::detmath {

/// Version of the bits this layer returns. Bump it whenever any function
/// here (scalar port or lanes) changes a result on any input, by as little
/// as one ulp: trained models are cached under it (harness::load_or_train),
/// so weights trained under other numerics are never loaded.
inline constexpr std::uint32_t kNumericsVersion = 1;

/// exp(x): glibc's e_exp.c. Error below 1 ulp (tests/test_exp.cpp
/// measures it against expl). Does not set errno.
[[nodiscard]] double exp(double x) noexcept;

/// log(x): glibc's e_log.c. log(+-0) = -inf, log(x < 0) = NaN. Does not
/// set errno.
[[nodiscard]] double log(double x) noexcept;

struct SinCos {
  double sin = 0.0;
  double cos = 0.0;
};

/// sin(x) and cos(x): glibc's s_sincos.c, whose two results are also
/// glibc's sin(x) and cos(x). inf and NaN give NaN. Does not set errno.
[[nodiscard]] SinCos sincos(double x) noexcept;

/// tanh(x): fdlibm's s_tanh.c. Error below 3 ulp (tests/test_tanh.cpp
/// measures it against tanhl).
[[nodiscard]] double tanh(double x) noexcept;

/// y[i] = log(x[i]) for i < n, on the active backend's lanes.
void log_array(const double* x, double* y, std::size_t n) noexcept;

/// log_x[i] = log(x[i]) and {sin_a[i], cos_a[i]} = sincos(a[i]) for
/// i < n, on the active backend's lanes: Box-Muller's pair, in one pass so
/// that the two dependency chains overlap.
void log_sincos_array(const double* x, const double* a, double* log_x,
                      double* sin_a, double* cos_a, std::size_t n) noexcept;

enum class Backend : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

[[nodiscard]] const char* to_string(Backend backend) noexcept;

/// True when `backend` is compiled in and supported by this CPU. kScalar
/// is always available.
[[nodiscard]] bool backend_available(Backend backend) noexcept;

/// Backend the next dispatched call runs on.
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

namespace exp_constants {

inline constexpr int kTableBits = 7;
inline constexpr std::uint64_t kTableSize = std::uint64_t{1} << kTableBits;

// glibc's __exp_data scalars, written as hex literals of their exact bits.
inline constexpr double kInvLn2N = 0x1.71547652b82fep+7;  ///< N / ln2
inline constexpr double kNegLn2HiN = -0x1.62e42fefa0000p-8;
inline constexpr double kNegLn2LoN = -0x1.cf79abc9e3b3ap-47;
inline constexpr double kShift = 0x1.8p52;
inline constexpr double kC2 = 0x1.ffffffffffdbdp-2;
inline constexpr double kC3 = 0x1.555555555543cp-3;
inline constexpr double kC4 = 0x1.55555cf172b91p-5;
inline constexpr double kC5 = 0x1.1111167a4d017p-7;

/// glibc's __exp_data.tab: for j = 0..N-1, entry 2j is the bits of tail_j
/// and entry 2j + 1 the bits of 2^(j/N) / (1 + tail_j) minus j << 45.
alignas(64) extern const std::uint64_t kTable[2 * kTableSize];

/// |x| range the lane copies compute on the main path; exp returns 1 + x
/// below it, and the scalar port takes over at or above it (the special
/// cases near overflow and underflow, inf and NaN).
inline constexpr double kExpVectorMin = 0x1p-54;
inline constexpr double kExpVectorMax = 512.0;

}  // namespace exp_constants

namespace tanh_constants {

// fdlibm's expm1 constants, written as hex literals of their exact bits.
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;
inline constexpr double kQ1 = -0x1.11111111110f4p-5;
inline constexpr double kQ2 = 0x1.a01a019fe5585p-10;
inline constexpr double kQ3 = -0x1.4ce199eaadbb7p-14;
inline constexpr double kQ4 = 0x1.0cfca86e65239p-18;
inline constexpr double kQ5 = -0x1.afdb76e09c32dp-23;

/// expm1's reduction thresholds on |argument|. fdlibm compares high words
/// (hx > 0x3fd62e42 and hx < 0x3ff0a2b2); on doubles that is |a| >= these.
inline constexpr double kHalfLn2Edge = 0x1.62e43p-2;        ///< k = 0 below
inline constexpr double kThreeHalvesLn2Edge = 0x1.0a2b2p+0;  ///< k = -1 below

/// |x| range the lane copies compute; tanh returns x * (1 + x) below it
/// and +-1 at or above it (and handles +-0, inf and NaN there too).
inline constexpr double kTanhVectorMin = 0x1p-55;
inline constexpr double kTanhVectorMax = 22.0;

}  // namespace tanh_constants

namespace log_constants {

inline constexpr int kTableBits = 7;
inline constexpr std::uint64_t kTableSize = std::uint64_t{1} << kTableBits;

// glibc's __log_data scalars, written as hex literals of their exact bits.
inline constexpr double kLn2Hi = 0x1.62e42fefa3800p-1;
inline constexpr double kLn2Lo = 0x1.ef35793c76730p-45;
/// log1p(r) - r ~ r^2 (A0 + r A1 + ... + r^4 A4) on the table path.
inline constexpr double kA[5] = {
    -0x1.0000000000001p-1, 0x1.555555551305bp-2, -0x1.fffffffeb459p-3,
    0x1.999b324f10111p-3,  -0x1.55575e506c89fp-3};
/// log(1 + r) ~ r + r^2 B0 + r^3 (B1 + ... + r^9 B10) near 1.
inline constexpr double kB[11] = {
    -0x1p-1,
    0x1.5555555555577p-2,  -0x1.ffffffffffdcbp-3, 0x1.999999995dd0cp-3,
    -0x1.55555556745a7p-3, 0x1.24924a344de3p-3,   -0x1.fffffa4423d65p-4,
    0x1.c7184282ad6cap-4,  -0x1.999eb43b068ffp-4, 0x1.78182f7afd085p-4,
    -0x1.5521375d145cdp-4};

/// x's bits minus kOff put z = x / 2^k in [kOff, 2 kOff) (glibc's OFF).
inline constexpr std::uint64_t kOff = 0x3fe6000000000000ULL;

/// glibc's __log_data.tab: for i = 0..N-1, entry 2i is the bits of 1/c_i
/// and entry 2i + 1 the bits of log(c_i), c_i near the centre of
/// subinterval i of [kOff, 2 kOff).
alignas(64) extern const std::uint64_t kTable[2 * kTableSize];

/// The near-1 path covers [kNearOneMin, kNearOneMax); the table path the
/// other normal positive finite x. Lane copies compute both and leave
/// zero, subnormals, negatives, inf and NaN to the scalar port.
inline constexpr double kNearOneMin = 0x1.ep-1;      ///< 1 - 2^-4
inline constexpr double kNearOneMax = 0x1.109p+0;    ///< 1 + 0x1.09p-4
inline constexpr double kLogVectorMin = 0x1p-1022;   ///< smallest normal

}  // namespace log_constants

namespace sincos_constants {

// s_sin.c / usncs.h constants, written as hex literals of their exact bits.
inline constexpr double kBig = 0x1.8p45;  ///< rounds |x| to a multiple of 2^-7
inline constexpr double kHp0 = 0x1.921fb54442d18p+0;  ///< pi/2, high part
inline constexpr double kHp1 = 0x1.1a62633145c07p-54;  ///< pi/2, low part
inline constexpr double kSn3 = -0x1.5555555555515p-3;
inline constexpr double kSn5 = 0x1.11110e829872fp-7;
inline constexpr double kCs2 = 0x1p-1;
inline constexpr double kCs4 = -0x1.5555555555535p-5;
inline constexpr double kCs6 = 0x1.6c16bedd9e239p-10;
// TAYLOR_SIN's series, s1 = -1/3! ... s5 = -1/11!.
inline constexpr double kS1 = -0x1.5555555555555p-3;
inline constexpr double kS2 = 0x1.1111111110ecep-7;
inline constexpr double kS3 = -0x1.a01a019db08b8p-13;
inline constexpr double kS4 = 0x1.71de27b9a7ed9p-19;
inline constexpr double kS5 = -0x1.addffc2fcdf59p-26;
/// do_sin evaluates TAYLOR_SIN below this |x|, the table above.
inline constexpr double kTaylorMax = 0x1.020c49ba5e354p-3;  ///< 0.126
// reduce_sincos: x - n pi/2 in 136 bits, for |x| < kReduceMax.
inline constexpr double kHpInv = 0x1.45f306dc9c883p-1;  ///< 2/pi
inline constexpr double kToInt = 0x1.8p52;
inline constexpr double kMp1 = 0x1.921fb58000000p+0;
inline constexpr double kMp2 = -0x1.dde973c000000p-27;
inline constexpr double kPp3 = -0x1.cb3b398000000p-55;
inline constexpr double kPp4 = -0x1.d747f23e32ed7p-83;

/// s_sincos.c's branch edges on |x| (it compares high words; these are
/// the doubles whose high word is the edge and whose low word is zero).
inline constexpr double kTinyMax = 0x1p-27;                ///< 0x3e400000
inline constexpr double kSmallMax = 0x1.b6p-1;             ///< 0x3feb6000
inline constexpr double kMidMax = 0x1.368fdp+1;            ///< 0x400368fd
inline constexpr double kReduceMax = 0x1.921fbp+26;        ///< 0x419921fb

/// glibc's __sincostab: for k = 0..109, sin(k/128) as a high part and a
/// low part, then cos(k/128) likewise (four doubles per k).
inline constexpr std::size_t kTableEntries = 110;
alignas(64) extern const std::uint64_t kTable[4 * kTableEntries];

}  // namespace sincos_constants

namespace detail {

/// Reference log_array / log_sincos_array (the scalar ports per element);
/// the scalar backend runs these.
void scalar_log_array(const double* x, double* y, std::size_t n) noexcept;
void scalar_log_sincos_array(const double* x, const double* a, double* log_x,
                             double* sin_a, double* cos_a,
                             std::size_t n) noexcept;

#if defined(EXPLORA_SIMD_AVX2)
void avx2_log_array(const double* x, double* y, std::size_t n) noexcept;
void avx2_log_sincos_array(const double* x, const double* a, double* log_x,
                           double* sin_a, double* cos_a,
                           std::size_t n) noexcept;
#endif
#if defined(EXPLORA_SIMD_AVX512)
void avx512_log_array(const double* x, double* y, std::size_t n) noexcept;
void avx512_log_sincos_array(const double* x, const double* a, double* log_x,
                             double* sin_a, double* cos_a,
                             std::size_t n) noexcept;
#endif

}  // namespace detail

}  // namespace explora::detmath

// On x86-64 builds without FMA in the baseline ISA, the scalar ports are
// cloned: CPUs with FMA run a clone whose std::fma calls are single
// vfmadd instructions, older ones the default clone calling libm's fma.
// fma is exactly rounded, so the two return the same bits; the clone only
// saves the calls. ThreadSanitizer builds keep one body: GCC instruments
// the clones' ifunc resolver, which the loader runs before the TSan
// runtime is up, so every binary would crash at start-up.
#if defined(__x86_64__) && defined(__ELF__) && !defined(__FMA__) && \
    !defined(__SANITIZE_THREAD__)
#define EXPLORA_DETMATH_FMA_CLONES \
  __attribute__((target_clones("fma", "default")))
#else
#define EXPLORA_DETMATH_FMA_CLONES
#endif
