// The repo's one exp: a port of glibc 2.36's exp (sysdeps/ieee754/dbl-64/
// e_exp.c, the table-driven ARM optimized-routines algorithm) that is
// bit-identical to the FMA variant glibc's ifunc picks on x86-64 CPUs
// with FMA and AVX2, so every softmax produces the same bytes on every
// host, libm and SIMD backend.
//
// Algorithm: exp(x) = 2^(k/N) * exp(r) with N = 128, k = round(x N / ln2)
// and |r| <= ln2 / 2N. 2^(k/N) is scale * (1 + tail), scale built from
// kTable[2j + 1] + (k << 45) and tail = kTable[2j], j = k mod N; exp(r) - 1
// is a degree-5 polynomial. The table is glibc's __exp_data.tab, copied as
// hex literals from the installed libm.so.6 (found by searching the file
// for the bytes of invln2N; kTable[1] = 0x3ff0000000000000 and kTable[3] =
// 0x3feff63da9fb3335 identify it).
//
// Fused sites, read off the disassembly of that FMA variant (the TU is
// compiled with -ffp-contract=off, so the compiler can neither add nor drop
// a fusion):
//
//   kd  = fma(x, invln2N, shift)          (then k = bits of kd, kd -= shift)
//   r   = fma(kd, negln2loN, fma(kd, negln2hiN, x))
//   tmp = fma(r2 * r2, fma(r, C5, C4), fma(fma(r, C3, C2), r2, tail + r))
//   exp = fma(scale, tmp, scale)
//
// plus fma(scale, tmp, scale) * 2^1009 on the overflow-side special case;
// the underflow-side special case is unfused (scale * tmp is computed once
// and reused there).
//
// The AVX2 and AVX-512 GEMM backends (ml/gemm_<isa>.cpp) carry lane-wise
// copies of the main path for ml::gemm::exp_array and
// softmax_chosen_lanes: lanes with |x| < kExpVectorMin return 1 + x (each
// softmax peak, where x - peak = 0), lanes with |x| >= kExpVectorMax, inf
// or NaN fall back to glibc_exp(). tests/test_exp.cpp pins the bits of
// both against a committed digest.
#pragma once

#include <cstdint>

namespace explora::ml {

/// exp(x), bit-identical on every host; see the file comment. Error is
/// below 1 ulp (tests/test_exp.cpp measures it against expl). Does not set
/// errno.
[[nodiscard]] double glibc_exp(double x) noexcept;

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

/// |x| range the vector copies compute on the main path; exp returns
/// 1 + x below it, and the scalar port takes over at or above it (the
/// special cases near overflow and underflow, inf and NaN).
inline constexpr double kExpVectorMin = 0x1p-54;
inline constexpr double kExpVectorMax = 512.0;

}  // namespace exp_constants

}  // namespace explora::ml
