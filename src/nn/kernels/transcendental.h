// Lane-generic exp / tanh / sigmoid — the one transcendental core behind
// every backend. Internal to nn/kernels: gemm_scalar.cc instantiates it with
// `double` lanes and gemm_avx2.cc with `__m256d` lanes.
//
// The algorithm uses only correctly rounded add/sub/mul/div, compares,
// selects and integer bit moves (no FMA, no libm, no min/max), and both TUs
// are compiled with -ffp-contract=off. Every lane therefore computes the
// same IEEE operation sequence as the scalar instantiation: results are
// bitwise equal across ISAs and independent of n, offset and lane, which is
// the elementwise contract of simd.h.
//
// exp(x) = 2^k · e^r with k = rint(x·log2 e) and r = x − k·ln2 reduced in
// two Cody–Waite steps (|r| ≤ ~0.347). e^r − 1 = r·q(r) is a degree-13
// Taylor sum in Horner form (truncation < 0.05 ulp). 2^k is built from
// exponent bits as 2^k1 · 2^k2 with k1 + k2 = k, so results that overflow
// or land in the subnormal range round once, in the last multiply.
//
// A lane type L supplies:
//   using V = <lane vector>;  using M = <compare mask>;
//   V Set(double);  V Add/Sub/Mul/Div(V, V);
//   M Gt(V, V), Lt(V, V)            ordered compares (false on NaN)
//   V Select(M, V if_true, V if_false)
//   V Abs(V), Neg(V)                sign-bit clear / flip
//   V OrSign(V mag, V sign_src)     mag | signbit(sign_src)
//   V ShiftToExponent(V v)          bits(v) << 52 (integer shift)
#ifndef HEAD_NN_KERNELS_TRANSCENDENTAL_H_
#define HEAD_NN_KERNELS_TRANSCENDENTAL_H_

#include <limits>

namespace head::nn::kernels::internal {

namespace exp_core {

inline constexpr double kLog2e = 1.4426950408889634074;
// ln 2 split so that k·kLn2Hi is exact for |k| < 2^11 (kLn2Hi has 32
// significant bits).
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
// Adding then subtracting 1.5·2^52 rounds a double to the nearest integer;
// the sum's low mantissa bits then hold that integer.
inline constexpr double kShifter = 0x1.8p52;
// bits(k + kShifterBias) << 52 is the bit pattern of 2^k for
// −1022 ≤ k ≤ 1023: the low 12 bits of the sum are k + 1023.
inline constexpr double kShifterBias = 0x1.8p52 + 1023.0;

// Arguments outside [kMinArg, kMaxArg] select +0 / +inf directly. Inside,
// the reduction stays valid (|k| ≤ 1076, so 2^k1 and 2^k2 are normal) and
// the last multiply overflows or underflows by itself where libm does.
inline constexpr double kMaxArg = 710.0;
inline constexpr double kMinArg = -746.0;

// tanh(|x|) rounds to 1 well below this; the e^{2|x|} − 1 path stays finite
// up to it (2|x| ≤ 40, k ≤ 58).
inline constexpr double kTanhOneArg = 20.0;

// q(r) = (e^r − 1)/r = Σ_{n=0}^{12} r^n/(n+1)!, highest order first. Each
// factorial is an exact double, so each coefficient is correctly rounded.
inline constexpr double kQ[13] = {
    1.0 / 6227020800.0,  // 1/13!
    1.0 / 479001600.0,   // 1/12!
    1.0 / 39916800.0,    // 1/11!
    1.0 / 3628800.0,     // 1/10!
    1.0 / 362880.0,      // 1/9!
    1.0 / 40320.0,       // 1/8!
    1.0 / 5040.0,        // 1/7!
    1.0 / 720.0,         // 1/6!
    1.0 / 120.0,         // 1/5!
    1.0 / 24.0,          // 1/4!
    1.0 / 6.0,           // 1/3!
    1.0 / 2.0,           // 1/2!
    1.0,                 // 1/1!
};

}  // namespace exp_core

/// e^x split as (e^r − 1, 2^k1, 2^k2) with e^x = (1 + pm1) · s1 · s2.
/// Meaningful for x in [kMinArg, kMaxArg]; finite garbage (never a trap)
/// outside, which callers select away.
template <class L>
struct ExpParts {
  typename L::V pm1, s1, s2;
};

template <class L>
inline ExpParts<L> ExpReduce(typename L::V x) {
  using V = typename L::V;
  using namespace exp_core;
  const V shifter = L::Set(kShifter);
  const V k = L::Sub(L::Add(L::Mul(x, L::Set(kLog2e)), shifter), shifter);
  const V k1 = L::Sub(L::Add(L::Mul(k, L::Set(0.5)), shifter), shifter);
  const V k2 = L::Sub(k, k1);
  const V r = L::Sub(L::Sub(x, L::Mul(k, L::Set(kLn2Hi))),
                     L::Mul(k, L::Set(kLn2Lo)));
  V q = L::Set(kQ[0]);
  for (int i = 1; i < 13; ++i) q = L::Add(L::Mul(q, r), L::Set(kQ[i]));
  const V bias = L::Set(kShifterBias);
  return {L::Mul(r, q), L::ShiftToExponent(L::Add(k1, bias)),
          L::ShiftToExponent(L::Add(k2, bias))};
}

/// e^x: ≤ 2 ulp from libm on normal results; +inf above ln(DBL_MAX), +0
/// below the subnormal range, NaN for NaN.
template <class L>
inline typename L::V Exp(typename L::V x) {
  using namespace exp_core;
  const ExpParts<L> e = ExpReduce<L>(x);
  typename L::V y =
      L::Mul(L::Mul(L::Add(L::Set(1.0), e.pm1), e.s1), e.s2);
  y = L::Select(L::Gt(x, L::Set(kMaxArg)),
                L::Set(std::numeric_limits<double>::infinity()), y);
  return L::Select(L::Lt(x, L::Set(kMinArg)), L::Set(0.0), y);
}

/// tanh x = sign(x) · m / (m + 2) with m = e^{2|x|} − 1 assembled as
/// 2^k·(e^r − 1) + (2^k − 1), so small |x| has no cancellation (k = 0 gives
/// m = e^r − 1 exactly as the polynomial computes it). tanh(±0) = ±0.
template <class L>
inline typename L::V Tanh(typename L::V x) {
  using V = typename L::V;
  using namespace exp_core;
  const V ax = L::Abs(x);
  const ExpParts<L> e = ExpReduce<L>(L::Add(ax, ax));
  const V s = L::Mul(e.s1, e.s2);
  const V m = L::Add(L::Mul(s, e.pm1), L::Sub(s, L::Set(1.0)));
  V t = L::Div(m, L::Add(m, L::Set(2.0)));
  t = L::Select(L::Gt(ax, L::Set(kTanhOneArg)), L::Set(1.0), t);
  return L::OrSign(t, x);
}

/// 1 / (1 + e^{−x}): exactly 1 where e^{−x} < 2^-53 and exactly 0 where
/// e^{−x} overflows, as the libm formula did.
template <class L>
inline typename L::V Sigmoid(typename L::V x) {
  const typename L::V one = L::Set(1.0);
  return L::Div(one, L::Add(one, Exp<L>(L::Neg(x))));
}

}  // namespace head::nn::kernels::internal

#endif  // HEAD_NN_KERNELS_TRANSCENDENTAL_H_
