// Dispatch layer: ISA selection, the fast_math gate, row-partitioning
// across the thread pool, and shared panel packing for the AVX2 path.
//
// Threading model for the packed path: the *calling* thread packs B (and
// bias) into its thread_local scratch once, then row-chunks the output
// across the pool. Workers only read the packed panels; the pool's task
// dispatch gives pack → chunk execution a happens-before edge, so the
// sharing is race-free (exercised under TSan by nn_simd_test). Scratch
// grows monotonically per thread — zero steady-state allocation.
#include "nn/kernels/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <chrono>

#include "nn/kernels/kernel_table.h"
#include "obs/profiler.h"
#include "parallel/thread_pool.h"

namespace head::nn::kernels {

namespace {

using internal::KernelTable;
using internal::kPanelWidth;
using internal::PackedBiasSize;
using internal::PackedBSize;

// Same break-even as the tensor layer used before the kernel split: chunk
// only above ~260k multiply-adds (see bench/parallel_overhead), keep every
// chunk at least half a threshold of work.
constexpr int64_t kParallelFlops = int64_t{1} << 18;

/// Minimum output rows before the packed path beats the unpacked kernel
/// (below this, packing B costs more traffic than it saves). The unpacked
/// AVX2 path runs whole 6-row blocks in place and leftover rows through its
/// row loop: at m = 6 it is ~2.5-3× faster than packing (6×256×64: 6.7 vs
/// 16.9 µs on a 4-core AVX2 host), but at m = 8 the two leftover rows bring
/// it back to parity (13.7 vs 13.0 µs), so the crossover stays at 8. Both
/// paths run the identical per-element fma fold, so the cutover is purely a
/// performance choice — never a numerics one.
constexpr int kPackMinRows = 8;

template <typename Kernel>
void ForEachRowChunk(int64_t rows, int64_t flops, const Kernel& kernel) {
  parallel::ThreadPool& pool = parallel::ThreadPool::Global();
  if (flops < kParallelFlops || pool.thread_count() == 1 || rows < 2) {
    kernel(int64_t{0}, rows);
    return;
  }
  const int64_t flops_per_row = std::max<int64_t>(1, flops / rows);
  const int64_t grain =
      std::max<int64_t>(1, (kParallelFlops / 2) / flops_per_row);
  pool.ParallelFor(0, rows, grain, kernel);
}

const KernelTable* TableFor(Isa isa) {
#if defined(HEAD_HAVE_AVX2_TU)
  if (isa == Isa::kAvx2) return &internal::kAvx2Table;
#else
  (void)isa;
#endif
  return &internal::kScalarTable;
}

bool EnvFlagOff(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  return std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
         std::strcmp(v, "false") == 0;
}

std::atomic<Isa>& ActiveIsaRef() {
  static std::atomic<Isa> isa{DetectIsa()};
  return isa;
}

bool InitFastMath() { return !EnvFlagOff("HEAD_FAST_MATH"); }

std::atomic<bool>& FastMathRef() {
  static std::atomic<bool> on{InitFastMath()};
  return on;
}

/// Backend for GEMM-family ops: scalar whenever fast_math is off (bitwise
/// contract), otherwise whatever ISA is active.
const KernelTable* GemmTable() {
  if (!FastMathRef().load(std::memory_order_relaxed)) {
    return &internal::kScalarTable;
  }
  return TableFor(ActiveIsaRef().load(std::memory_order_relaxed));
}

/// Backend for elementwise ops: always the active ISA — every backend's
/// elementwise kernels are bitwise-equal, so no fast_math gate applies.
const KernelTable* ElementwiseTable() {
  return TableFor(ActiveIsaRef().load(std::memory_order_relaxed));
}

double* ScratchB(size_t need) {
  thread_local std::vector<double> buf;
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

double* ScratchBias(size_t need) {
  thread_local std::vector<double> buf;
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

}  // namespace

bool BuiltWithAvx2() {
#if defined(HEAD_HAVE_AVX2_TU)
  return true;
#else
  return false;
#endif
}

bool CpuSupportsAvx2Fma() {
#if defined(HEAD_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(__i386__))
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

Isa DetectIsa() {
  static const Isa detected = [] {
    const char* env = std::getenv("HEAD_SIMD");
    if (env != nullptr && *env != '\0') {
      if (std::strcmp(env, "scalar") == 0) return Isa::kScalar;
      // "avx2" (or anything else) falls through to capability detection:
      // an unsatisfiable request degrades to the best available backend.
    }
    return CpuSupportsAvx2Fma() ? Isa::kAvx2 : Isa::kScalar;
  }();
  return detected;
}

Isa ActiveIsa() { return ActiveIsaRef().load(std::memory_order_relaxed); }

bool SetActiveIsa(Isa isa) {
  if (isa == Isa::kAvx2 && !CpuSupportsAvx2Fma()) return false;
  ActiveIsaRef().store(isa, std::memory_order_relaxed);
  return true;
}

const char* IsaName(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

const char* CpuCapabilityString() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return "avx2+fma";
  }
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("avx")) return "avx";
  return "sse2";
#else
  return "non-x86";
#endif
}

bool FastMathEnabled() {
  return FastMathRef().load(std::memory_order_relaxed);
}

void SetFastMath(bool enabled) {
  FastMathRef().store(enabled, std::memory_order_relaxed);
}

int64_t FlopsFor(GemmKind kind, int m, int n, int k) {
  (void)kind;  // every transposition variant runs the same multiply-adds
  return int64_t{2} * m * n * k;
}

int64_t BytesFor(GemmKind kind, int m, int n, int k) {
  (void)kind;
  return int64_t{8} *
         (int64_t{m} * k + int64_t{k} * n + int64_t{m} * n);
}

void GemmNN(int m, int n, int k, const double* a, const double* b,
            const double* bias, GemmInit init, double* c) {
  HEAD_PROF_OP("kernel.gemm_nn", m, n, k, FlopsFor(GemmKind::kNN, m, n, k),
               BytesFor(GemmKind::kNN, m, n, k));
  const KernelTable* t = GemmTable();
  const int64_t flops = int64_t{m} * n * k;
  if (t->gemm_packed != nullptr && n > 1 && m >= kPackMinRows) {
    double* bp = ScratchB(PackedBSize(n, k));
    t->pack_b(n, k, b, /*transposed=*/false, bp);
    const double* bias_p = nullptr;
    if (init == GemmInit::kBias) {
      double* bb = ScratchBias(PackedBiasSize(n));
      t->pack_bias(n, bias, bb);
      bias_p = bb;
    }
    ForEachRowChunk(m, flops, [=](int64_t i0, int64_t i1) {
      t->gemm_packed(static_cast<int>(i1 - i0), n, k,
                     a + static_cast<size_t>(i0) * k, /*a_row_stride=*/k,
                     /*a_k_stride=*/1, bp, bias_p, init,
                     c + static_cast<size_t>(i0) * n);
    });
    return;
  }
  ForEachRowChunk(m, flops, [=](int64_t i0, int64_t i1) {
    t->gemm_nn(static_cast<int>(i1 - i0), n, k,
               a + static_cast<size_t>(i0) * k, b, bias, init,
               c + static_cast<size_t>(i0) * n);
  });
}

void GemmTN(int m, int n, int k, const double* a, const double* b,
            GemmInit init, double* c) {
  HEAD_PROF_OP("kernel.gemm_tn", m, n, k, FlopsFor(GemmKind::kTN, m, n, k),
               BytesFor(GemmKind::kTN, m, n, k));
  const KernelTable* t = GemmTable();
  const int64_t flops = int64_t{m} * n * k;
  if (t->gemm_packed != nullptr && n > 1) {
    double* bp = ScratchB(PackedBSize(n, k));
    t->pack_b(n, k, b, /*transposed=*/false, bp);
    ForEachRowChunk(m, flops, [=](int64_t i0, int64_t i1) {
      // Output rows are A columns: walk rows with stride 1, k with stride m.
      t->gemm_packed(static_cast<int>(i1 - i0), n, k, a + i0,
                     /*a_row_stride=*/1, /*a_k_stride=*/m, bp,
                     /*bias_p=*/nullptr, init,
                     c + static_cast<size_t>(i0) * n);
    });
    return;
  }
  ForEachRowChunk(m, flops, [=](int64_t i0, int64_t i1) {
    t->gemm_tn(static_cast<int>(i1 - i0), n, k, a + i0, /*lda=*/m, b, init,
               c + static_cast<size_t>(i0) * n);
  });
}

void GemmNT(int m, int n, int k, const double* a, const double* b,
            double* c) {
  HEAD_PROF_OP("kernel.gemm_nt", m, n, k, FlopsFor(GemmKind::kNT, m, n, k),
               BytesFor(GemmKind::kNT, m, n, k));
  const KernelTable* t = GemmTable();
  const int64_t flops = int64_t{m} * n * k;
  if (n == 1) {
    // B is one contiguous row: identical to the NN column-output dot.
    ForEachRowChunk(m, flops, [=](int64_t i0, int64_t i1) {
      t->gemm_nn(static_cast<int>(i1 - i0), 1, k,
                 a + static_cast<size_t>(i0) * k, b, /*bias=*/nullptr,
                 GemmInit::kZero, c + i0);
    });
    return;
  }
  if (t->gemm_packed != nullptr) {
    double* bp = ScratchB(PackedBSize(n, k));
    t->pack_b(n, k, b, /*transposed=*/true, bp);
    ForEachRowChunk(m, flops, [=](int64_t i0, int64_t i1) {
      t->gemm_packed(static_cast<int>(i1 - i0), n, k,
                     a + static_cast<size_t>(i0) * k, /*a_row_stride=*/k,
                     /*a_k_stride=*/1, bp, /*bias_p=*/nullptr,
                     GemmInit::kZero, c + static_cast<size_t>(i0) * n);
    });
    return;
  }
  ForEachRowChunk(m, flops, [=](int64_t i0, int64_t i1) {
    t->gemm_nt(static_cast<int>(i1 - i0), n, k,
               a + static_cast<size_t>(i0) * k, b,
               c + static_cast<size_t>(i0) * n);
  });
}

void Axpy(int n, double alpha, const double* x, double* y) {
  HEAD_PROF_OP("kernel.axpy", n, 0, 0, int64_t{2} * n, int64_t{24} * n);
  ElementwiseTable()->axpy(n, alpha, x, y);
}

void ActForward(ActKind kind, double leaky_slope, int n, double* x) {
  HEAD_PROF_OP("kernel.act_fwd", n, 0, 0, int64_t{n}, int64_t{16} * n);
  ElementwiseTable()->act_forward(kind, leaky_slope, n, x);
}

void ActBackward(ActKind kind, double leaky_slope, int n, const double* y,
                 const double* gout, double* gin) {
  HEAD_PROF_OP("kernel.act_bwd", n, 0, 0, int64_t{2} * n, int64_t{24} * n);
  ElementwiseTable()->act_backward(kind, leaky_slope, n, y, gout, gin);
}

void RowwiseMax(int rows, int cols, const double* a, double* out,
                int* argmax) {
  HEAD_PROF_OP("kernel.rowwise_max", rows, cols, 0, 0,
               int64_t{8} * (int64_t{rows} * cols + rows));
  ElementwiseTable()->rowwise_max(rows, cols, a, out, argmax);
}

void AdamStep(int n, double lr, double beta1, double beta2, double eps,
              double bc1, double bc2, const double* g, double* m, double* v,
              double* value) {
  HEAD_PROF_OP("kernel.adam", n, 0, 0, int64_t{10} * n, int64_t{56} * n);
  ElementwiseTable()->adam_step(n, lr, beta1, beta2, eps, bc1, bc2, g, m, v,
                                value);
}

namespace {

uint64_t CalNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double MeasurePeakGemmGflops() {
  constexpr int kDim = 64;  // 3 × 32 KB: resident in L2, streams through L1
  std::vector<double> a(kDim * kDim), b(kDim * kDim), c(kDim * kDim, 0.0);
  for (int i = 0; i < kDim * kDim; ++i) {
    a[i] = 0.25 + 1e-4 * (i % 61);
    b[i] = 0.50 - 1e-4 * (i % 53);
  }
  const int64_t flops = FlopsFor(GemmKind::kNN, kDim, kDim, kDim);
  GemmNN(kDim, kDim, kDim, a.data(), b.data(), nullptr, GemmInit::kZero,
         c.data());  // warm scratch + branch predictors
  double best = 0.0;
  constexpr int kTrials = 8, kReps = 16;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t t0 = CalNowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      GemmNN(kDim, kDim, kDim, a.data(), b.data(), nullptr, GemmInit::kZero,
             c.data());
    }
    const uint64_t t1 = CalNowNs();
    if (t1 > t0) {
      best = std::max(
          best, static_cast<double>(flops) * kReps / static_cast<double>(t1 - t0));
    }
  }
  return best;
}

obs::RooflinePeaks CalibrateProfilerRoofline() {
  obs::RooflinePeaks peaks;
  peaks.gflops = MeasurePeakGemmGflops();
  peaks.gbps = obs::MeasurePeakBandwidthGbps();
  peaks.source = std::string("gemm-") + IsaName(ActiveIsa());
  obs::SetRooflinePeaks(peaks);
  return peaks;
}

}  // namespace head::nn::kernels
