// SIMD microkernel layer behind the dense tensor ops.
//
// Two instruction-set backends implement the same kernel contract:
//   * scalar  — portable C++, compiled unconditionally. Its GEMM loops are
//     the exact ikj / kij / row-dot schedules the tensor layer has always
//     used, so with the scalar backend active results are bitwise identical
//     to the pre-SIMD code.
//   * avx2    — 4×8 register-blocked FMA microkernel over packed B panels
//     (gemm_avx2.cc, the only TU compiled with -mavx2 -mfma). Every output
//     element is a single register lane folding fma(a, b, acc) over k in
//     increasing order, independent of blocking, packing, row-chunking, or
//     the m-size path taken — so AVX2 results are deterministic run-to-run,
//     thread-count-invariant, and identical between the batched and
//     per-sample training paths. They differ from scalar only by FMA's
//     single rounding per multiply-add (≤ ~1e-13 relative at these shapes;
//     tolerance-tested at 1e-6).
//
// Dispatch: a function-pointer table selected once at startup from cpuid
// (__builtin_cpu_supports) with an HEAD_SIMD=avx2|scalar env override, and
// swappable at runtime (SetActiveIsa) for tests and the --kernel bench axis.
//
// Determinism contract (see DESIGN.md "SIMD kernel dispatch"):
//   * Elementwise kernels (axpy, activations, exp, Adam, rowwise-max) use
//     only correctly-rounded lane ops (no FMA, no reassociation, no libm):
//     bitwise equal to scalar on every backend, for every element whatever
//     n, its offset or its lane, so they are always routed. exp, tanh and
//     sigmoid come from one lane-generic core (transcendental.h) built from
//     add/sub/mul/div, compares, selects and exponent bits.
//   * GEMM-family kernels reassociate (FMA contraction, multi-accumulator
//     dots): routed to the SIMD backend only while fast_math is enabled.
//     With fast_math off (SetFastMath(false) or HEAD_FAST_MATH=0) every
//     GEMM runs the scalar schedule regardless of the active ISA, which is
//     what the bitwise replay/parity suites pin.
#ifndef HEAD_NN_KERNELS_SIMD_H_
#define HEAD_NN_KERNELS_SIMD_H_

#include <cstdint>

#include "obs/profiler.h"

namespace head::nn::kernels {

enum class Isa : int { kScalar = 0, kAvx2 = 1 };

/// GEMM transposition variants, for flop/byte accounting call sites.
enum class GemmKind : int { kNN = 0, kTN, kNT };

/// Multiply-add flop count (2·m·n·k) of one C(m×n) = A·B GEMM. The single
/// formula shared by the op profiler and bench/training_throughput — every
/// transposition variant runs the same arithmetic.
int64_t FlopsFor(GemmKind kind, int m, int n, int k);

/// Minimum double-precision bytes moved by one GEMM (read A and B once,
/// write C once) — the compulsory-traffic floor arithmetic intensity is
/// computed against, not a cache-model estimate.
int64_t BytesFor(GemmKind kind, int m, int n, int k);

/// How a GEMM kernel seeds its output accumulators.
enum class GemmInit : int {
  kZero = 0,    ///< C = A·B
  kBias,        ///< C = rowbcast(bias) + A·B
  kAccumulate,  ///< C += A·B (C already holds a partial result)
};

/// Fusable elementwise activations (forward applied in place on the GEMM
/// output; backward maps (y, dL/dy) → dL/dpre from the output alone).
enum class ActKind : int { kNone = 0, kRelu, kLeakyRelu, kTanh, kSigmoid };

// ---- Capability / dispatch ----

/// True when this binary contains the AVX2 TU *and* the CPU reports
/// AVX2+FMA at runtime.
bool CpuSupportsAvx2Fma();

/// True when the binary was built with the AVX2 TU (HEAD_SIMD_DISABLE=OFF).
bool BuiltWithAvx2();

/// The backend selected at startup: HEAD_SIMD env override if set and
/// satisfiable, else the best the CPU supports.
Isa DetectIsa();

/// Currently active backend (atomic; DetectIsa() until overridden).
Isa ActiveIsa();

/// Runtime override for tests and the bench --kernel axis. Requesting
/// kAvx2 on a machine without AVX2+FMA keeps the scalar backend and
/// returns false.
bool SetActiveIsa(Isa isa);

const char* IsaName(Isa isa);

/// Short capability stamp for committed baselines, e.g. "avx2+fma" or
/// "sse2" — what the *hardware* reports, independent of the active backend.
const char* CpuCapabilityString();

// ---- fast_math gate (GEMM-family reassociation) ----

/// Process-wide; default ON (HEAD_FAST_MATH=0|off disables at startup).
/// Deterministic either way — OFF additionally pins bitwise equality with
/// the scalar schedules for replay/parity suites.
bool FastMathEnabled();
void SetFastMath(bool enabled);

// ---- Kernel entry points (shape checks are the caller's job) ----
//
// All matrices are dense row-major. The Gemm* calls route by active ISA and
// fast_math, row-partition across parallel::ThreadPool::Global() above a
// flop threshold (chunk-invariant by construction on both backends), and
// share one packed B panel across all row chunks on the AVX2 path. Thread-
// local panel scratch grows once and is reused — no steady-state heap.

/// C(m×n) ⟵ init ⊕ A(m×k)·B(k×n). `bias` (1×n) used only for kBias.
void GemmNN(int m, int n, int k, const double* a, const double* b,
            const double* bias, GemmInit init, double* c);

/// C(m×n) ⟵ init ⊕ Aᵀ·B with A stored (k×m) row-major.
void GemmTN(int m, int n, int k, const double* a, const double* b,
            GemmInit init, double* c);

/// C(m×n) = A(m×k)·Bᵀ with B stored (n×k) row-major.
void GemmNT(int m, int n, int k, const double* a, const double* b, double* c);

/// y[i] += alpha·x[i]. Bitwise-equal across backends (no FMA).
void Axpy(int n, double alpha, const double* x, double* y);

/// In-place activation on x[0..n). Bitwise-equal across backends.
void ActForward(ActKind kind, double leaky_slope, int n, double* x);

/// gin[i] = gout[i]·act'(y[i]) from the *output* y. Bitwise-equal across
/// backends. gin may alias gout.
void ActBackward(ActKind kind, double leaky_slope, int n, const double* y,
                 const double* gout, double* gin);

/// In-place e^x on x[0..n). Bitwise-equal across backends.
void Exp(int n, double* x);

/// out[r] = max_c a[r,c]; argmax[r] = first maximizing column (may be null).
void RowwiseMax(int rows, int cols, const double* a, double* out, int* argmax);

/// Fused Adam update on n elements (bc1/bc2 = bias corrections). Bitwise-
/// equal across backends (mul/add/div/sqrt are correctly rounded per lane).
void AdamStep(int n, double lr, double beta1, double beta2, double eps,
              double bc1, double bc2, const double* g, double* m, double* v,
              double* value);

// ---- Profiler roofline calibration ----

/// Peak achieved GFLOP/s of the *active* backend on a cache-resident
/// 64×64×64 GemmNN (best of several short trials) — the compute roof the
/// profiler's %roof column is drawn against. ~5 ms.
double MeasurePeakGemmGflops();

/// Measures both roofline peaks (GEMM compute roof above + the portable
/// stream-bandwidth sweep) and injects them via obs::SetRooflinePeaks so
/// profile reports rate ops against this machine/backend. Call before
/// StartProfiling so the calibration GEMMs don't pollute the stats.
obs::RooflinePeaks CalibrateProfilerRoofline();

}  // namespace head::nn::kernels

#endif  // HEAD_NN_KERNELS_SIMD_H_
