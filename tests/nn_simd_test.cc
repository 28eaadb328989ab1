// Parity and dispatch tests for the SIMD kernel layer (src/nn/kernels).
//
// Contract under test (simd.h, DESIGN.md "SIMD kernel dispatch"):
//   * Every GEMM-family op agrees between the scalar and AVX2 backends to
//     ≤ 1e-6 relative (FMA contraction is the only divergence source).
//   * Elementwise kernels (axpy, activations, exp, Adam, rowwise-max) are
//     bitwise identical across backends, for every element position — the
//     vector tail included — and for special inputs (±0, subnormals,
//     overflow/underflow limits, ±inf, NaN).
//   * exp / tanh / sigmoid stay within 2 / 4 / 4 ulp of libm, saturate
//     where libm does and propagate NaN.
//   * fast_math OFF pins GEMM to the scalar schedule regardless of the
//     active ISA — bitwise equality with the scalar backend.
//   * AVX2 GEMM results are invariant to row-blocking, packing, thread
//     count, and the m-size dispatch path (uniform-arithmetic design).
//   * End to end: a full BP-DQN update loop and an LST-GAT training run
//     land on the same parameters under fast-math AVX2 and scalar.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "nn/autograd.h"
#include "nn/kernels/kernel_table.h"
#include "nn/kernels/simd.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "parallel/thread_pool.h"
#include "perception/lst_gat.h"
#include "perception/trainer.h"
#include "rl/nets.h"
#include "rl/pdqn_agent.h"

namespace head {
namespace {

namespace kernels = nn::kernels;

// Relative tolerance for scalar-vs-AVX2 GEMM parity. FMA keeps the AVX2
// path within ~1e-13 of scalar at these shapes; 1e-6 is the contract.
constexpr double kRelTol = 1e-6;

double RelDiff(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) / scale;
}

void ExpectTensorRelNear(const nn::Tensor& a, const nn::Tensor& b,
                         double tol = kRelTol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.size(); ++i) {
    ASSERT_LE(RelDiff(a[i], b[i]), tol) << "element " << i;
  }
}

void ExpectTensorBitwise(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

// Saves and restores the process-global ISA + fast_math state around each
// test so order does not matter.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_isa_ = kernels::ActiveIsa();
    saved_fast_math_ = kernels::FastMathEnabled();
  }
  void TearDown() override {
    kernels::SetActiveIsa(saved_isa_);
    kernels::SetFastMath(saved_fast_math_);
  }

  // True (and the backend switched) when AVX2 is usable; otherwise the
  // caller should skip the AVX2 leg.
  static bool UseAvx2() { return kernels::SetActiveIsa(kernels::Isa::kAvx2); }
  static void UseScalar() {
    ASSERT_TRUE(kernels::SetActiveIsa(kernels::Isa::kScalar));
  }

  kernels::Isa saved_isa_ = kernels::Isa::kScalar;
  bool saved_fast_math_ = true;
};

struct GemmShape {
  int m, n, k;
};

// Remainder coverage: every combination of full/partial 4-row blocks and
// 8-column panels, degenerate m=1 / n=1 / k=1 vectors, and sizes straddling
// the packed-path threshold (m >= 8).
const GemmShape kShapes[] = {
    {1, 1, 1},  {1, 8, 4},   {1, 5, 7},    {3, 5, 7},    {4, 8, 16},
    {5, 9, 17}, {7, 1, 13},  {8, 8, 8},    {9, 16, 4},   {13, 29, 31},
    {16, 3, 2}, {64, 64, 64}, {33, 7, 1},  {2, 24, 40},  {12, 12, 12},
};

TEST_F(SimdTest, GemmShapeGridScalarVsAvx2) {
  if (!UseAvx2()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  kernels::SetFastMath(true);
  Rng rng(101);
  for (const GemmShape& s : kShapes) {
    const nn::Tensor a = nn::Tensor::Uniform(s.m, s.k, -1.0, 1.0, rng);
    const nn::Tensor b = nn::Tensor::Uniform(s.k, s.n, -1.0, 1.0, rng);
    const nn::Tensor bias = nn::Tensor::Uniform(1, s.n, -1.0, 1.0, rng);
    const nn::Tensor at = nn::Tensor::Uniform(s.k, s.m, -1.0, 1.0, rng);
    const nn::Tensor bt = nn::Tensor::Uniform(s.n, s.k, -1.0, 1.0, rng);

    ASSERT_TRUE(UseAvx2());
    const nn::Tensor mm_v = nn::MatMul(a, b);
    const nn::Tensor af_v = nn::Affine(a, b, bias);
    const nn::Tensor ta_v = nn::MatMulTransposeA(at, b);
    const nn::Tensor tb_v = nn::MatMulTransposeB(a, bt);

    UseScalar();
    ExpectTensorRelNear(mm_v, nn::MatMul(a, b));
    ExpectTensorRelNear(af_v, nn::Affine(a, b, bias));
    ExpectTensorRelNear(ta_v, nn::MatMulTransposeA(at, b));
    ExpectTensorRelNear(tb_v, nn::MatMulTransposeB(a, bt));
  }
}

TEST_F(SimdTest, GemmZeroSizedDimensions) {
  // m/n/k = 0 must be a no-op (beyond init) on every backend: the kernels
  // are called on raw buffers so zero trip counts exercise the loop guards.
  const double a[4] = {1, 2, 3, 4};
  const double b[4] = {5, 6, 7, 8};
  const double bias[2] = {-1.0, 2.5};
  for (const bool use_avx2 : {false, true}) {
    if (use_avx2 && !UseAvx2()) continue;
    if (!use_avx2) UseScalar();
    double c[4] = {9, 9, 9, 9};
    kernels::GemmNN(0, 2, 2, a, b, nullptr, kernels::GemmInit::kZero, c);
    EXPECT_EQ(c[0], 9.0);  // m == 0: untouched
    kernels::GemmNN(2, 2, 0, a, b, nullptr, kernels::GemmInit::kZero, c);
    for (double v : c) EXPECT_EQ(v, 0.0);  // k == 0: init only
    kernels::GemmNN(1, 2, 0, a, b, bias, kernels::GemmInit::kBias, c);
    EXPECT_EQ(c[0], bias[0]);
    EXPECT_EQ(c[1], bias[1]);
    kernels::GemmTN(2, 2, 0, a, b, kernels::GemmInit::kZero, c);
    for (double v : c) EXPECT_EQ(v, 0.0);
    kernels::GemmNT(2, 2, 0, a, b, c);
    for (double v : c) EXPECT_EQ(v, 0.0);
  }
}

TEST_F(SimdTest, FastMathOffPinsScalarScheduleBitwise) {
  if (!UseAvx2()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Rng rng(7);
  const nn::Tensor a = nn::Tensor::Uniform(13, 31, -1.0, 1.0, rng);
  const nn::Tensor b = nn::Tensor::Uniform(31, 17, -1.0, 1.0, rng);
  const nn::Tensor bias = nn::Tensor::Uniform(1, 17, -1.0, 1.0, rng);

  UseScalar();
  kernels::SetFastMath(true);
  const nn::Tensor mm_s = nn::MatMul(a, b);
  const nn::Tensor af_s = nn::Affine(a, b, bias);

  ASSERT_TRUE(UseAvx2());
  kernels::SetFastMath(false);
  EXPECT_FALSE(kernels::FastMathEnabled());
  // AVX2 backend active but fast_math off: GEMMs run the scalar schedule.
  ExpectTensorBitwise(mm_s, nn::MatMul(a, b));
  ExpectTensorBitwise(af_s, nn::Affine(a, b, bias));

  kernels::SetFastMath(true);
  EXPECT_TRUE(kernels::FastMathEnabled());
}

// Bit-for-bit equality, with every NaN equal to every other NaN (the
// payload is not part of the contract).
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Inputs that stress the transcendental core's edges: signed zeros,
// subnormals, tiny and huge magnitudes, both sides of the exp overflow
// (ln DBL_MAX ≈ 709.78) and underflow (≈ −745.13) limits, the tanh
// saturation band, ±inf and NaN.
std::vector<double> SpecialInputs() {
  const double inf = std::numeric_limits<double>::infinity();
  return {0.0,      -0.0,      4.9e-324,  -4.9e-324, 1e-310,   -1e-310,
          1e-300,   -1e-300,   1e-17,     -1e-17,    1e-9,     -1e-9,
          0.1733,   -0.1733,   0.3466,    -0.3466,   1.0,      -1.0,
          18.7,     -18.7,     19.5,      -19.5,     20.0,     -20.0,
          20.5,     -20.5,     36.7,      -36.7,     37.5,     -37.5,
          708.39,   -708.39,   709.78,    -709.78,   709.7827128933840,
          709.7827128933841,   709.79,    710.0,     710.5,    -745.13,
          -745.1332191019411,  -745.1332191019412,   -745.2,   -746.0,
          -746.5,   800.0,     -800.0,    1e300,     -1e300,   inf,
          -inf,     std::numeric_limits<double>::quiet_NaN()};
}

TEST_F(SimdTest, ElementwiseKernelsBitwiseAcrossIsas) {
  if (!kernels::CpuSupportsAvx2Fma()) {
    GTEST_SKIP() << "no AVX2+FMA on this machine";
  }
  Rng rng(19);
  const int n = 1027;  // odd length: exercises the vector tail
  std::vector<double> x(n), y0(n), g(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-2.0, 2.0);
    y0[i] = rng.Uniform(-2.0, 2.0);
    g[i] = rng.Uniform(-1.0, 1.0);
  }

  const kernels::ActKind kActs[] = {
      kernels::ActKind::kRelu, kernels::ActKind::kLeakyRelu,
      kernels::ActKind::kTanh, kernels::ActKind::kSigmoid};

  // Axpy.
  std::vector<double> ys = y0, yv = y0;
  UseScalar();
  kernels::Axpy(n, 0.37, x.data(), ys.data());
  ASSERT_TRUE(UseAvx2());
  kernels::Axpy(n, 0.37, x.data(), yv.data());
  for (int i = 0; i < n; ++i) ASSERT_EQ(ys[i], yv[i]) << i;

  for (kernels::ActKind act : kActs) {
    // Forward (in place).
    std::vector<double> fs = x, fv = x;
    UseScalar();
    kernels::ActForward(act, 0.2, n, fs.data());
    ASSERT_TRUE(UseAvx2());
    kernels::ActForward(act, 0.2, n, fv.data());
    for (int i = 0; i < n; ++i) ASSERT_EQ(fs[i], fv[i]) << i;
    // Backward from the (identical) outputs.
    std::vector<double> gs(n), gv(n);
    UseScalar();
    kernels::ActBackward(act, 0.2, n, fs.data(), g.data(), gs.data());
    ASSERT_TRUE(UseAvx2());
    kernels::ActBackward(act, 0.2, n, fv.data(), g.data(), gv.data());
    for (int i = 0; i < n; ++i) ASSERT_EQ(gs[i], gv[i]) << i;
  }

  // Rowwise max (values and argmax), including ties and negatives.
  const int rows = 9, cols = 13;
  std::vector<double> mat(rows * cols);
  for (double& v : mat) v = rng.Uniform(-1.0, 1.0);
  mat[2 * cols + 3] = mat[2 * cols + 7] = 5.0;  // tie: first index wins
  std::vector<double> out_s(rows), out_v(rows);
  std::vector<int> arg_s(rows), arg_v(rows);
  UseScalar();
  kernels::RowwiseMax(rows, cols, mat.data(), out_s.data(), arg_s.data());
  ASSERT_TRUE(UseAvx2());
  kernels::RowwiseMax(rows, cols, mat.data(), out_v.data(), arg_v.data());
  for (int r = 0; r < rows; ++r) {
    ASSERT_EQ(out_s[r], out_v[r]) << r;
    ASSERT_EQ(arg_s[r], arg_v[r]) << r;
  }
  EXPECT_EQ(arg_s[2], 3);

  // Fused Adam step.
  std::vector<double> ms(n, 0.0), vs2(n, 0.0), ps(n), mv(n, 0.0),
      vv(n, 0.0), pv(n);
  for (int i = 0; i < n; ++i) ps[i] = pv[i] = x[i];
  for (int step = 1; step <= 3; ++step) {
    const double bc1 = 1.0 - std::pow(0.9, step);
    const double bc2 = 1.0 - std::pow(0.999, step);
    UseScalar();
    kernels::AdamStep(n, 1e-3, 0.9, 0.999, 1e-8, bc1, bc2, g.data(),
                      ms.data(), vs2.data(), ps.data());
    ASSERT_TRUE(UseAvx2());
    kernels::AdamStep(n, 1e-3, 0.9, 0.999, 1e-8, bc1, bc2, g.data(),
                      mv.data(), vv.data(), pv.data());
  }
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(ps[i], pv[i]) << i;
    ASSERT_EQ(ms[i], mv[i]) << i;
    ASSERT_EQ(vs2[i], vv[i]) << i;
  }

  // The transcendental and activation kernels at special inputs, for every
  // n in 1..9 at offsets 0..3 with the inputs rotated through every lane
  // and tail slot: each element must carry the bits it gets alone on the
  // scalar backend.
  const std::vector<double> special = SpecialInputs();
  const int ns = static_cast<int>(special.size());
  struct Kernel {
    const char* name;
    std::function<void(int, double*)> run;
  };
  const Kernel kKernels[] = {
      {"exp", [](int n, double* x) { kernels::Exp(n, x); }},
      {"tanh",
       [](int n, double* x) {
         kernels::ActForward(kernels::ActKind::kTanh, 0.0, n, x);
       }},
      {"sigmoid",
       [](int n, double* x) {
         kernels::ActForward(kernels::ActKind::kSigmoid, 0.0, n, x);
       }},
      {"relu",
       [](int n, double* x) {
         kernels::ActForward(kernels::ActKind::kRelu, 0.0, n, x);
       }},
      {"leaky_relu",
       [](int n, double* x) {
         kernels::ActForward(kernels::ActKind::kLeakyRelu, 0.2, n, x);
       }},
  };
  for (const Kernel& k : kKernels) {
    // Reference: every input alone (n = 1) on the scalar backend.
    UseScalar();
    std::vector<double> ref(ns);
    for (int j = 0; j < ns; ++j) {
      double v = special[j];
      k.run(1, &v);
      ref[j] = v;
    }
    // Every n in 1..9 at offsets 0..3, with the specials rotated through
    // every lane and tail slot, on both backends.
    for (const bool avx2 : {false, true}) {
      if (avx2) {
        ASSERT_TRUE(UseAvx2());
      } else {
        UseScalar();
      }
      for (int n = 1; n <= 9; ++n) {
        for (int offset = 0; offset < 4; ++offset) {
          for (int start = 0; start < ns; ++start) {
            std::vector<double> buf(offset + n, 0.5);
            for (int i = 0; i < n; ++i) {
              buf[offset + i] = special[(start + i) % ns];
            }
            k.run(n, buf.data() + offset);
            for (int i = 0; i < n; ++i) {
              const int j = (start + i) % ns;
              ASSERT_TRUE(SameBits(buf[offset + i], ref[j]))
                  << k.name << " x=" << special[j] << " n=" << n
                  << " offset=" << offset << " lane=" << i
                  << (avx2 ? " avx2 " : " scalar ") << buf[offset + i]
                  << " vs " << ref[j];
            }
            for (int i = 0; i < offset; ++i) ASSERT_EQ(buf[i], 0.5);
          }
        }
      }
    }
  }
}

// Distance in units in the last place, on the ordered integer line of
// doubles (so +inf is one ulp above DBL_MAX and ±0 are adjacent).
int64_t UlpDistance(double a, double b) {
  auto ordered = [](double v) {
    const int64_t i = std::bit_cast<int64_t>(v);
    return i < 0 ? std::numeric_limits<int64_t>::min() - i : i;
  };
  const int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

// Dense sweep: a uniform grid over the whole exp domain plus log-spaced
// magnitudes from the subnormals to 1e3, both signs.
std::vector<double> SweepInputs() {
  std::vector<double> x;
  for (int i = 0; i <= 200000; ++i) x.push_back(-760.0 + i * (1480.0 / 200000));
  for (int i = 0; i <= 100000; ++i) {
    const double m = std::pow(10.0, -323.0 + i * (326.0 / 100000));
    x.push_back(m);
    x.push_back(-m);
  }
  for (int i = 0; i <= 100000; ++i) x.push_back(-2.0 + i * (4.0 / 100000));
  const std::vector<double> special = SpecialInputs();
  for (double v : special) {
    if (!std::isnan(v)) x.push_back(v);
  }
  return x;
}

TEST_F(SimdTest, TranscendentalsWithinUlpOfLibm) {
  const std::vector<double> x = SweepInputs();
  const int n = static_cast<int>(x.size());
  for (const bool avx2 : {false, true}) {
    if (avx2 && !UseAvx2()) continue;
    if (!avx2) UseScalar();
    std::vector<double> e = x, t = x, s = x;
    kernels::Exp(n, e.data());
    kernels::ActForward(kernels::ActKind::kTanh, 0.0, n, t.data());
    kernels::ActForward(kernels::ActKind::kSigmoid, 0.0, n, s.data());
    int64_t worst_exp = 0, worst_tanh = 0, worst_sigmoid = 0;
    for (int i = 0; i < n; ++i) {
      const double xi = x[i];
      // References in extended precision, rounded once to double.
      const double ref_exp = static_cast<double>(std::exp(
          static_cast<long double>(xi)));
      const double ref_tanh = static_cast<double>(std::tanh(
          static_cast<long double>(xi)));
      const double ref_sigmoid = static_cast<double>(
          1.0L / (1.0L + std::exp(-static_cast<long double>(xi))));
      // The double-precision libm formulas the kernels replace: where they
      // saturate to an exact 0, ±1 or inf, the kernels must too.
      const double libm_exp = std::exp(xi);
      const double libm_tanh = std::tanh(xi);
      const double libm_sigmoid = 1.0 / (1.0 + std::exp(-xi));

      if (std::fabs(libm_exp) >= std::numeric_limits<double>::min()) {
        const int64_t d = UlpDistance(e[i], ref_exp);
        worst_exp = std::max(worst_exp, d);
        ASSERT_LE(d, 2) << "exp(" << xi << ") = " << e[i] << " vs "
                        << ref_exp;
        ASSERT_LE(UlpDistance(e[i], libm_exp), 2) << "exp(" << xi << ")";
      } else {
        // Subnormal or zero result: within a couple of subnormal steps.
        ASSERT_LE(UlpDistance(e[i], ref_exp), 2) << "exp(" << xi << ")";
      }
      if (libm_exp == 0.0 || std::isinf(libm_exp)) {
        ASSERT_EQ(e[i], libm_exp) << "exp(" << xi << ")";
      }

      const int64_t dt = UlpDistance(t[i], ref_tanh);
      worst_tanh = std::max(worst_tanh, dt);
      ASSERT_LE(dt, 4) << "tanh(" << xi << ") = " << t[i] << " vs "
                       << ref_tanh;
      ASSERT_LE(UlpDistance(t[i], libm_tanh), 4) << "tanh(" << xi << ")";
      if (std::fabs(libm_tanh) == 1.0) {
        ASSERT_EQ(t[i], libm_tanh) << "tanh(" << xi << ")";
      }
      ASSERT_EQ(std::signbit(t[i]), std::signbit(xi)) << "tanh(" << xi << ")";

      const int64_t ds = UlpDistance(s[i], ref_sigmoid);
      if (libm_sigmoid >= std::numeric_limits<double>::min()) {
        worst_sigmoid = std::max(worst_sigmoid, ds);
        ASSERT_LE(ds, 4) << "sigmoid(" << xi << ") = " << s[i] << " vs "
                         << ref_sigmoid;
        ASSERT_LE(UlpDistance(s[i], libm_sigmoid), 4)
            << "sigmoid(" << xi << ")";
      }
      if (libm_sigmoid == 0.0 || libm_sigmoid == 1.0) {
        ASSERT_EQ(s[i], libm_sigmoid) << "sigmoid(" << xi << ")";
      }
    }
    std::printf("%s: worst ulp exp %lld tanh %lld sigmoid %lld\n",
                avx2 ? "avx2" : "scalar", static_cast<long long>(worst_exp),
                static_cast<long long>(worst_tanh),
                static_cast<long long>(worst_sigmoid));
  }
}

TEST_F(SimdTest, TranscendentalSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool avx2 : {false, true}) {
    if (avx2 && !UseAvx2()) continue;
    if (!avx2) UseScalar();
    std::vector<double> e = {0.0, -0.0, inf, -inf, 800.0, -800.0, nan};
    kernels::Exp(static_cast<int>(e.size()), e.data());
    EXPECT_EQ(e[0], 1.0);
    EXPECT_EQ(e[1], 1.0);
    EXPECT_EQ(e[2], inf);
    EXPECT_EQ(e[3], 0.0);
    EXPECT_EQ(e[4], inf);
    EXPECT_EQ(e[5], 0.0);
    EXPECT_TRUE(std::isnan(e[6]));

    std::vector<double> t = {0.0, -0.0, 1e-310, -1e-310, 30.0, -30.0,
                             inf, -inf, nan};
    kernels::ActForward(kernels::ActKind::kTanh, 0.0,
                        static_cast<int>(t.size()), t.data());
    EXPECT_EQ(std::bit_cast<uint64_t>(t[0]), std::bit_cast<uint64_t>(0.0));
    EXPECT_EQ(std::bit_cast<uint64_t>(t[1]), std::bit_cast<uint64_t>(-0.0));
    EXPECT_EQ(t[2], 1e-310);
    EXPECT_EQ(t[3], -1e-310);
    EXPECT_EQ(t[4], 1.0);
    EXPECT_EQ(t[5], -1.0);
    EXPECT_EQ(t[6], 1.0);
    EXPECT_EQ(t[7], -1.0);
    EXPECT_TRUE(std::isnan(t[8]));

    std::vector<double> s = {0.0, 40.0, -710.0, inf, -inf, nan};
    kernels::ActForward(kernels::ActKind::kSigmoid, 0.0,
                        static_cast<int>(s.size()), s.data());
    EXPECT_EQ(s[0], 0.5);
    EXPECT_EQ(s[1], 1.0);
    EXPECT_EQ(s[2], 0.0);
    EXPECT_EQ(s[3], 1.0);
    EXPECT_EQ(s[4], 0.0);
    EXPECT_TRUE(std::isnan(s[5]));
  }
}

// A NaN that enters an activation or a softmax must come out as NaN: the
// non-finite guards of the learners count on seeing it.
TEST_F(SimdTest, NanPropagatesThroughActivationsAndSoftmax) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto expect_nan_at = [](const nn::Var& v, int r, int c, const char* what) {
    EXPECT_TRUE(std::isnan(v.value().At(r, c))) << what;
  };
  for (const bool avx2 : {false, true}) {
    if (avx2 && !UseAvx2()) continue;
    if (!avx2) UseScalar();
    nn::ResetTape();
    nn::Tensor xt = nn::Tensor::Full(3, 6, 0.25);
    xt.At(1, 4) = nan;
    const nn::Var x = nn::Var::Constant(xt);
    expect_nan_at(nn::Tanh(x), 1, 4, "nn::Tanh");
    expect_nan_at(nn::Sigmoid(x), 1, 4, "nn::Sigmoid");
    const nn::Var soft = nn::SoftmaxRows(x);
    for (int c = 0; c < 6; ++c) expect_nan_at(soft, 1, c, "SoftmaxRows");
    EXPECT_FALSE(std::isnan(soft.value().At(0, 0)));

    const nn::Var w = nn::Var::Param(nn::Tensor::Full(6, 5, 0.1));
    nn::Tensor bt = nn::Tensor::Full(1, 5, 0.0);
    bt.At(0, 2) = nan;
    const nn::Var b = nn::Var::Param(bt);
    const nn::Var ones = nn::Var::Constant(nn::Tensor::Full(3, 6, 1.0));
    for (const nn::FusedAct act : {nn::FusedAct::kTanh,
                                   nn::FusedAct::kSigmoid}) {
      const nn::Var y = nn::AffineAct(ones, w, b, act);
      for (int r = 0; r < 3; ++r) expect_nan_at(y, r, 2, "AffineAct");
      EXPECT_FALSE(std::isnan(y.value().At(0, 0)));
    }
  }
}

TEST_F(SimdTest, AffineActMatchesUnfusedComposition) {
  Rng rng(23);
  for (const bool use_avx2 : {false, true}) {
    if (use_avx2 && !UseAvx2()) continue;
    if (!use_avx2) UseScalar();
    kernels::SetFastMath(true);
    nn::ResetTape();
    const nn::Var x =
        nn::Var::Constant(nn::Tensor::Uniform(6, 10, -1.0, 1.0, rng));
    const nn::Var w =
        nn::Var::Param(nn::Tensor::Uniform(10, 7, -1.0, 1.0, rng));
    const nn::Var b =
        nn::Var::Param(nn::Tensor::Uniform(1, 7, -0.5, 0.5, rng));
    const nn::Var w2 = nn::Var::Param(w.value());
    const nn::Var b2 = nn::Var::Param(b.value());

    struct Case {
      nn::FusedAct act;
      nn::Var (*unfused)(const nn::Var&);
    };
    const nn::Var fused_relu =
        nn::AffineAct(x, w, b, nn::FusedAct::kRelu);
    const nn::Var fused_leaky =
        nn::AffineAct(x, w, b, nn::FusedAct::kLeakyRelu, 0.2);
    const nn::Var fused_tanh = nn::AffineAct(x, w, b, nn::FusedAct::kTanh);
    const nn::Var ref_relu = nn::Relu(nn::Affine(x, w2, b2));
    const nn::Var ref_leaky = nn::LeakyRelu(nn::Affine(x, w2, b2), 0.2);
    const nn::Var ref_tanh = nn::Tanh(nn::Affine(x, w2, b2));

    // Forward: the fused node applies the activation in place on the same
    // affine output — values must match bitwise within a backend.
    ExpectTensorBitwise(fused_relu.value(), ref_relu.value());
    ExpectTensorBitwise(fused_leaky.value(), ref_leaky.value());
    ExpectTensorBitwise(fused_tanh.value(), ref_tanh.value());

    // Gradients: the fused backward recovers act' from the output; allow
    // rounding-level slack vs the unfused node pair.
    const nn::Var loss = nn::Add(
        nn::Sum(fused_relu), nn::Add(nn::Sum(fused_leaky),
                                     nn::Sum(fused_tanh)));
    const nn::Var ref_loss = nn::Add(
        nn::Sum(ref_relu), nn::Add(nn::Sum(ref_leaky), nn::Sum(ref_tanh)));
    nn::Backward(loss);
    nn::Backward(ref_loss);
    ExpectTensorRelNear(w.grad(), w2.grad(), 1e-9);
    ExpectTensorRelNear(b.grad(), b2.grad(), 1e-9);
  }
}

TEST_F(SimdTest, DualAffineMatchesUnfusedComposition) {
  Rng rng(29);
  for (const bool use_avx2 : {false, true}) {
    if (use_avx2 && !UseAvx2()) continue;
    if (!use_avx2) UseScalar();
    kernels::SetFastMath(true);
    nn::ResetTape();
    const nn::Var x =
        nn::Var::Constant(nn::Tensor::Uniform(5, 6, -1.0, 1.0, rng));
    const nn::Var h =
        nn::Var::Constant(nn::Tensor::Uniform(5, 4, -1.0, 1.0, rng));
    const nn::Var w1 =
        nn::Var::Param(nn::Tensor::Uniform(6, 8, -1.0, 1.0, rng));
    const nn::Var w2 =
        nn::Var::Param(nn::Tensor::Uniform(4, 8, -1.0, 1.0, rng));
    const nn::Var b =
        nn::Var::Param(nn::Tensor::Uniform(1, 8, -0.5, 0.5, rng));
    const nn::Var w1r = nn::Var::Param(w1.value());
    const nn::Var w2r = nn::Var::Param(w2.value());
    const nn::Var br = nn::Var::Param(b.value());

    const nn::Var fused = nn::DualAffine(x, w1, h, w2, b);
    const nn::Var ref = nn::Add(nn::Affine(x, w1r, br), nn::MatMul(h, w2r));
    ExpectTensorRelNear(fused.value(), ref.value(), 1e-12);

    nn::Backward(nn::Sum(fused));
    nn::Backward(nn::Sum(ref));
    ExpectTensorRelNear(w1.grad(), w1r.grad(), 1e-9);
    ExpectTensorRelNear(w2.grad(), w2r.grad(), 1e-9);
    ExpectTensorRelNear(b.grad(), br.grad(), 1e-9);
  }
}

TEST_F(SimdTest, PackedPathIsRowPrefixInvariant) {
  // The packed microkernel path (m >= 8) must produce, row for row, exactly
  // what the small-m path produces: every output element is the same
  // fold of fma over k regardless of blocking. This is the property that
  // makes batched-vs-per-sample training bitwise reproducible under AVX2.
  if (!UseAvx2()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  kernels::SetFastMath(true);
  Rng rng(31);
  const int k = 37, n = 21, big_m = 40, small_m = 3;
  const nn::Tensor a = nn::Tensor::Uniform(big_m, k, -1.0, 1.0, rng);
  const nn::Tensor b = nn::Tensor::Uniform(k, n, -1.0, 1.0, rng);
  nn::Tensor a_small(small_m, k);
  for (int r = 0; r < small_m; ++r) {
    for (int c = 0; c < k; ++c) a_small.At(r, c) = a.At(r, c);
  }
  const nn::Tensor big = nn::MatMul(a, b);        // packed microkernel
  const nn::Tensor small = nn::MatMul(a_small, b);  // unpacked row-vector path
  for (int r = 0; r < small_m; ++r) {
    for (int c = 0; c < n; ++c) {
      ASSERT_EQ(big.At(r, c), small.At(r, c)) << r << "," << c;
    }
  }
}

#if defined(HEAD_HAVE_AVX2_TU)
TEST_F(SimdTest, SmallKPackedPathBitwiseMatchesGenericMicrokernel) {
  // The compile-time small-k kernel (k <= 8, contiguous A, whole panels)
  // must be a pure performance choice: same per-element k-ordered fold,
  // same bits, as the generic packed microkernel. The generic path is
  // forced by widening A with one padding column (a_row_stride = k + 1),
  // which feeds it the identical row data through the strided reader.
  if (!UseAvx2()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  namespace internal = kernels::internal;
  const internal::KernelTable& t = internal::kAvx2Table;
  Rng rng(53);
  using kernels::GemmInit;
  for (const int k : {1, 2, 3, 4, 5, 7, 8}) {
    for (const int m : {8, 9, 11}) {
      for (const int n : {8, 16, 64}) {
        const nn::Tensor a = nn::Tensor::Uniform(m, k, -1.0, 1.0, rng);
        const nn::Tensor b = nn::Tensor::Uniform(k, n, -1.0, 1.0, rng);
        const nn::Tensor bias = nn::Tensor::Uniform(1, n, -1.0, 1.0, rng);
        nn::Tensor a_padded(m, k + 1);
        for (int r = 0; r < m; ++r) {
          for (int c = 0; c < k; ++c) a_padded.At(r, c) = a.At(r, c);
        }
        std::vector<double> bp(internal::PackedBSize(n, k));
        std::vector<double> bias_p(internal::PackedBiasSize(n));
        t.pack_b(n, k, b.data().data(), /*transposed=*/false, bp.data());
        t.pack_bias(n, bias.data().data(), bias_p.data());
        for (const GemmInit init :
             {GemmInit::kZero, GemmInit::kBias, GemmInit::kAccumulate}) {
          const nn::Tensor seed = nn::Tensor::Uniform(m, n, -1.0, 1.0, rng);
          nn::Tensor c_small = seed, c_generic = seed;
          t.gemm_packed(m, n, k, a.data().data(), /*a_row_stride=*/k,
                        /*a_k_stride=*/1, bp.data(), bias_p.data(), init,
                        c_small.data().data());
          t.gemm_packed(m, n, k, a_padded.data().data(),
                        /*a_row_stride=*/k + 1, /*a_k_stride=*/1, bp.data(),
                        bias_p.data(), init, c_generic.data().data());
          for (int i = 0; i < m * n; ++i) {
            ASSERT_EQ(c_small[i], c_generic[i])
                << "m=" << m << " n=" << n << " k=" << k
                << " init=" << static_cast<int>(init) << " i=" << i;
          }
        }
      }
    }
  }
}

TEST_F(SimdTest, InPlaceSmallMPathBitwiseMatchesPackedAndFmaFold) {
  // The unpacked gemm_nn path runs whole 6-row blocks through the in-place
  // 6×8 microkernel and everything else through the row loop. Every
  // element must still be the plain fold acc = fma(a[i,kk], b[kk,j], acc)
  // over ascending kk from its init: bitwise equal to a scalar std::fma
  // reference, to the packed path, and to itself when the rows arrive in
  // chunks that split the 6-row blocks (as the dispatch layer's row
  // partitioning may).
  if (!UseAvx2()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  namespace internal = kernels::internal;
  const internal::KernelTable& t = internal::kAvx2Table;
  using kernels::GemmInit;
  Rng rng(59);
  for (const int m : {1, 5, 6, 7, 12, 13}) {
    for (const int n : {3, 8, 12, 256}) {
      for (const int k : {1, 4, 64}) {
        const nn::Tensor a = nn::Tensor::Uniform(m, k, -1.0, 1.0, rng);
        const nn::Tensor b = nn::Tensor::Uniform(k, n, -1.0, 1.0, rng);
        const nn::Tensor bias = nn::Tensor::Uniform(1, n, -1.0, 1.0, rng);
        std::vector<double> bp(internal::PackedBSize(n, k));
        std::vector<double> bias_p(internal::PackedBiasSize(n));
        t.pack_b(n, k, b.data().data(), /*transposed=*/false, bp.data());
        t.pack_bias(n, bias.data().data(), bias_p.data());
        for (const GemmInit init :
             {GemmInit::kZero, GemmInit::kBias, GemmInit::kAccumulate}) {
          const nn::Tensor seed = nn::Tensor::Uniform(m, n, -1.0, 1.0, rng);
          nn::Tensor fold = seed;
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              double acc = init == GemmInit::kZero   ? 0.0
                           : init == GemmInit::kBias ? bias[j]
                                                     : seed.At(i, j);
              for (int kk = 0; kk < k; ++kk) {
                acc = std::fma(a.At(i, kk), b.At(kk, j), acc);
              }
              fold.At(i, j) = acc;
            }
          }
          nn::Tensor in_place = seed, packed = seed;
          t.gemm_nn(m, n, k, a.data().data(), b.data().data(),
                    bias.data().data(), init, in_place.data().data());
          t.gemm_packed(m, n, k, a.data().data(), /*a_row_stride=*/k,
                        /*a_k_stride=*/1, bp.data(), bias_p.data(), init,
                        packed.data().data());
          SCOPED_TRACE(::testing::Message()
                       << "m=" << m << " n=" << n << " k=" << k
                       << " init=" << static_cast<int>(init));
          ExpectTensorBitwise(in_place, fold);
          ExpectTensorBitwise(in_place, packed);
          for (const int chunk : {4, 5}) {
            nn::Tensor chunked = seed;
            for (int i0 = 0; i0 < m; i0 += chunk) {
              t.gemm_nn(std::min(chunk, m - i0), n, k,
                        a.data().data() + i0 * k, b.data().data(),
                        bias.data().data(), init,
                        chunked.data().data() + i0 * n);
            }
            ExpectTensorBitwise(in_place, chunked);
          }
        }
      }
    }
  }
}
#endif  // HEAD_HAVE_AVX2_TU

TEST_F(SimdTest, GemmThreadCountInvariant) {
  // Large enough to cross the parallel flop threshold (2·256³ ≈ 3.4e7).
  Rng rng(41);
  const nn::Tensor a = nn::Tensor::Uniform(256, 256, -1.0, 1.0, rng);
  const nn::Tensor b = nn::Tensor::Uniform(256, 256, -1.0, 1.0, rng);
  for (const bool use_avx2 : {false, true}) {
    if (use_avx2 && !UseAvx2()) continue;
    if (!use_avx2) UseScalar();
    kernels::SetFastMath(true);
    nn::Tensor serial, threaded;
    {
      parallel::ThreadPool one(1);
      parallel::GlobalPoolOverride ov(&one);
      serial = nn::MatMul(a, b);
    }
    {
      parallel::ThreadPool four(4);
      parallel::GlobalPoolOverride ov(&four);
      threaded = nn::MatMul(a, b);
    }
    ExpectTensorBitwise(serial, threaded);
  }
}

TEST_F(SimdTest, RowwiseMaxTensorMatchesReference) {
  Rng rng(47);
  const nn::Tensor a = nn::Tensor::Uniform(11, 3, -5.0, 5.0, rng);
  for (const bool use_avx2 : {false, true}) {
    if (use_avx2 && !UseAvx2()) continue;
    if (!use_avx2) UseScalar();
    const nn::Tensor m = nn::RowwiseMax(a);
    ASSERT_EQ(m.rows(), 11);
    ASSERT_EQ(m.cols(), 1);
    for (int r = 0; r < a.rows(); ++r) {
      double want = a.At(r, 0);
      for (int c = 1; c < a.cols(); ++c) want = std::max(want, a.At(r, c));
      EXPECT_EQ(m.At(r, 0), want) << r;
    }
  }
}

TEST_F(SimdTest, DispatchControls) {
  EXPECT_TRUE(kernels::SetActiveIsa(kernels::Isa::kScalar));
  EXPECT_EQ(kernels::ActiveIsa(), kernels::Isa::kScalar);
  // kAvx2 is accepted exactly when the binary + CPU support it; a rejected
  // request must leave the scalar backend active.
  const bool want = kernels::CpuSupportsAvx2Fma();
  EXPECT_EQ(kernels::SetActiveIsa(kernels::Isa::kAvx2), want);
  EXPECT_EQ(kernels::ActiveIsa() == kernels::Isa::kAvx2, want);
  if (want) {
    EXPECT_TRUE(kernels::BuiltWithAvx2());
  }

  EXPECT_STREQ(kernels::IsaName(kernels::Isa::kScalar), "scalar");
  EXPECT_STREQ(kernels::IsaName(kernels::Isa::kAvx2), "avx2");
  EXPECT_NE(kernels::CpuCapabilityString(), nullptr);
  const kernels::Isa detected = kernels::DetectIsa();
  EXPECT_TRUE(detected == kernels::Isa::kScalar ||
              detected == kernels::Isa::kAvx2);
}

// ---- End-to-end parity: full training loops, fast-math AVX2 vs scalar ----

rl::AugmentedState RandomState(Rng& rng) {
  rl::AugmentedState s;
  s.h = nn::Tensor::Uniform(rl::kStateHRows, rl::kStateCols, -1.0, 1.0, rng);
  s.f = nn::Tensor::Uniform(rl::kStateFRows, rl::kStateCols, -1.0, 1.0, rng);
  return s;
}

TEST_F(SimdTest, BpDqnUpdateScalarVsFastMathAvx2) {
  if (!kernels::CpuSupportsAvx2Fma()) {
    GTEST_SKIP() << "no AVX2+FMA on this machine";
  }
  rl::PdqnConfig config;
  config.hidden = 16;
  config.batch_size = 8;
  config.warmup_transitions = 8;
  config.buffer_capacity = 128;

  Rng init_a(11), init_b(11);
  UseScalar();  // identical init on both (init is GEMM-free anyway)
  auto agent_a = rl::MakeBpDqnAgent(config, init_a);
  auto agent_b = rl::MakeBpDqnAgent(config, init_b);

  Rng data(21), rng_a(31), rng_b(31);
  for (int i = 0; i < 25; ++i) {
    const rl::AugmentedState s = RandomState(data);
    const rl::AugmentedState s2 = RandomState(data);
    rl::AgentAction action;
    action.behavior = static_cast<int>(data.UniformInt(0, 2));
    action.params = nn::Tensor::Uniform(1, rl::kNumBehaviors, -3.0, 3.0, data);
    action.maneuver.lane_change = rl::BehaviorToLaneChange(action.behavior);
    action.maneuver.accel_mps2 = action.params[action.behavior];
    const double reward = data.Uniform(-1.0, 1.0);
    const bool terminal = i % 7 == 0;
    agent_a->Remember(s, action, reward, s2, terminal);
    agent_b->Remember(s, action, reward, s2, terminal);
    ASSERT_TRUE(UseAvx2());
    kernels::SetFastMath(true);
    agent_a->Update(rng_a);
    UseScalar();
    agent_b->Update(rng_b);
  }

  auto expect_params = [](const std::vector<nn::Var>& a,
                          const std::vector<nn::Var>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t p = 0; p < a.size(); ++p) {
      const nn::Tensor& ta = a[p].value();
      const nn::Tensor& tb = b[p].value();
      ASSERT_EQ(ta.size(), tb.size());
      for (int i = 0; i < ta.size(); ++i) {
        ASSERT_LE(RelDiff(ta[i], tb[i]), kRelTol)
            << "param " << p << " element " << i;
      }
    }
  };
  expect_params(agent_a->x_net().Params(), agent_b->x_net().Params());
  expect_params(agent_a->q_net().Params(), agent_b->q_net().Params());
}

perception::PredictionSample RandomSample(Rng& rng, int z) {
  perception::PredictionSample s;
  s.graph.steps.resize(z);
  for (auto& step : s.graph.steps) {
    for (auto& target : step.feat) {
      for (auto& node : target) {
        for (double& f : node) f = rng.Uniform(-1.0, 1.0);
      }
    }
  }
  for (int i = 0; i < perception::kNumAreas; ++i) {
    for (int c = 0; c < 3; ++c) {
      s.graph.target_rel_current[i][c] = rng.Uniform(-1.0, 1.0);
      s.truth.value[i][c] = rng.Uniform(-1.0, 1.0);
    }
    s.truth.valid[i] = rng.Uniform(0.0, 1.0) < 0.7;
  }
  return s;
}

TEST_F(SimdTest, LstGatTrainingScalarVsFastMathAvx2) {
  if (!kernels::CpuSupportsAvx2Fma()) {
    GTEST_SKIP() << "no AVX2+FMA on this machine";
  }
  perception::LstGatConfig net_config;
  net_config.d_phi1 = 8;
  net_config.d_phi3 = 8;
  net_config.d_lstm = 8;
  Rng init_a(17), init_b(17);
  perception::LstGat model_a(net_config, init_a);
  perception::LstGat model_b(net_config, init_b);

  Rng data(18);
  std::vector<perception::PredictionSample> train;
  for (int i = 0; i < 9; ++i) train.push_back(RandomSample(data, 3));

  perception::PredictionTrainConfig config;
  config.epochs = 3;
  config.batch_size = 4;

  ASSERT_TRUE(UseAvx2());
  kernels::SetFastMath(true);
  const auto result_a = perception::TrainPredictor(model_a, train, config);
  UseScalar();
  const auto result_b = perception::TrainPredictor(model_b, train, config);

  ASSERT_EQ(result_a.epoch_losses.size(), result_b.epoch_losses.size());
  for (size_t e = 0; e < result_a.epoch_losses.size(); ++e) {
    EXPECT_LE(RelDiff(result_a.epoch_losses[e], result_b.epoch_losses[e]),
              kRelTol)
        << "epoch " << e;
  }
  const std::vector<nn::Var> pa = model_a.Params();
  const std::vector<nn::Var> pb = model_b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t p = 0; p < pa.size(); ++p) {
    for (int i = 0; i < pa[p].value().size(); ++i) {
      ASSERT_LE(RelDiff(pa[p].value()[i], pb[p].value()[i]), kRelTol)
          << "param " << p << " element " << i;
    }
  }
}

}  // namespace
}  // namespace head
