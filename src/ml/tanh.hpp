// The repo's one tanh: a port of fdlibm's s_tanh.c / s_expm1.c that is
// bit-identical to glibc's FMA build of the same sources, so the tanh
// networks (PPO hidden layers, the autoencoder latent) produce the
// same bytes on every host, libm and SIMD backend.
//
// fdlibm's arithmetic is fused with std::fma at exactly these sites and no
// others (the TU is compiled with -ffp-contract=off, so the compiler can
// neither add nor drop a fusion):
//
//   k  = (int)fma(invln2, a, +-0.5)      hi = fma(-t, ln2_hi, a)
//   R1 = fma(hxs, Q1, 1)   R2 = fma(hxs, Q3, Q2)   R3 = fma(hxs, Q5, Q4)
//   r1 = fma(h4, R3, fma(h2, R2, R1))
//   t  = fma(-r1, hfx, 3)                denominator fma(-x, t, 6)
//   k == 0:  x - fma(x, e, -hxs)         e = fma(x, e - c, -c) - hxs
//   k == -1: fma(0.5, x - e, -0.5)
//
// The AVX2 and AVX-512 GEMM backends (ml/gemm_<isa>.cpp) carry lane-wise
// copies of the same operation sequence for their tanh epilogue; lanes
// outside [kTanhVectorMin, kTanhVectorMax) fall back to fdlibm_tanh().
// tests/test_tanh.cpp pins the bits of both against a committed digest.
#pragma once

namespace explora::ml {

/// tanh(x), bit-identical on every host; see the file comment. Error is
/// below 3 ulp (tests/test_tanh.cpp measures it against tanhl).
[[nodiscard]] double fdlibm_tanh(double x) noexcept;

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

/// |x| range the vector copies compute; tanh returns x * (1 + x) below it
/// and +-1 at or above it (and handles +-0, inf and NaN there too).
inline constexpr double kTanhVectorMin = 0x1p-55;
inline constexpr double kTanhVectorMax = 22.0;

}  // namespace tanh_constants

}  // namespace explora::ml
