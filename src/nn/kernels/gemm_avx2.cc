// AVX2+FMA backend — the only TU compiled with -mavx2 -mfma (and
// -ffp-contract=off, so the *only* fused operations are the explicit
// _mm256_fmadd_pd intrinsics below; scalar tail code stays mul+add unless it
// calls std::fma on purpose).
//
// Determinism invariant shared by every GEMM entry here: an output element
// c[i,j] is produced by one accumulator lane folding
//     acc = fma(a[i,k], b[k,j], acc)   for k = 0, 1, …, K-1
// seeded by the init mode. The fold never depends on the row range, the
// row blocking (packed 4×8, in-place 6×8 or the row loop), the 8-column
// panel, or whether the packed or unpacked variant ran — so results are
// bitwise identical across thread counts, m-size paths, and
// batched-vs-per-sample call shapes. The single exception
// is the n==1 column-output path, which uses a fixed 4-accumulator dot
// (function of K alone — still deterministic and shape-consistent, it just
// folds in a different fixed order than the n>1 kernels).
//
// Elementwise kernels use no FMA and only correctly-rounded lane ops, so
// they are bitwise-equal to the scalar backend (tested exactly).
#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/kernels/kernel_table.h"
#include "nn/kernels/transcendental.h"

namespace head::nn::kernels::internal {

namespace {

constexpr int kMr = 4;  // microkernel rows (broadcast lanes)
static_assert(kPanelWidth == 8, "microkernel assumes 8-column panels");

/// Lane mask for the first `count` (0..4) lanes of a 4-double vector.
inline __m256i TailMask(int count) {
  alignas(32) static const long long kMasks[5][4] = {
      {0, 0, 0, 0},
      {-1, 0, 0, 0},
      {-1, -1, 0, 0},
      {-1, -1, -1, 0},
      {-1, -1, -1, -1},
  };
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(kMasks[count]));
}

/// Fixed-structure dot product: 4 independent 4-lane accumulators over
/// 16-element strides, combined pairwise, then a scalar fma tail. The fold
/// shape depends only on k, so every caller gets the same bits for the
/// same operands.
inline double Dot4(int k, const double* a, const double* b) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 16 <= k; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= k; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  const __m256d sum =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  const __m128d lo = _mm256_castpd256_pd128(sum);
  const __m128d hi = _mm256_extractf128_pd(sum, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  double s = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (; i < k; ++i) s = std::fma(a[i], b[i], s);
  return s;
}

// ---- Unpacked row-range kernels (small-m path; same per-element fold as
// the packed microkernel) ----

/// Rows of the in-place small-m block. 6 rows × 2 halves = 12 accumulator
/// ymm, plus 2 B halves and 1 broadcast: 15 of the 16 AVX2 registers, so
/// the k loop never spills — the widest row block that fits (LST-GAT's
/// LSTM runs 6·B rows, one block per sample).
constexpr int kInPlaceRows = 6;

/// kInPlaceRows×8 register-blocked kernel reading B (row stride `n`) in
/// place, so there is no packing cost to amortize. Column block [j, j+8).
inline void InPlace6x8(int k, int n, int j, const double* a, const double* b,
                       const double* bias, GemmInit init, double* c) {
  __m256d acc[kInPlaceRows][2];
#pragma GCC unroll 6
  for (int r = 0; r < kInPlaceRows; ++r) {
    if (init == GemmInit::kBias) {
      acc[r][0] = _mm256_loadu_pd(bias + j);
      acc[r][1] = _mm256_loadu_pd(bias + j + 4);
    } else if (init == GemmInit::kAccumulate) {
      acc[r][0] = _mm256_loadu_pd(c + static_cast<size_t>(r) * n + j);
      acc[r][1] = _mm256_loadu_pd(c + static_cast<size_t>(r) * n + j + 4);
    } else {
      acc[r][0] = _mm256_setzero_pd();
      acc[r][1] = _mm256_setzero_pd();
    }
  }
  const double* bcol = b + j;
  for (int kk = 0; kk < k; ++kk) {
    const __m256d b0 = _mm256_loadu_pd(bcol + static_cast<size_t>(kk) * n);
    const __m256d b1 =
        _mm256_loadu_pd(bcol + static_cast<size_t>(kk) * n + 4);
#pragma GCC unroll 6
    for (int r = 0; r < kInPlaceRows; ++r) {
      const __m256d va = _mm256_set1_pd(a[static_cast<size_t>(r) * k + kk]);
      acc[r][0] = _mm256_fmadd_pd(va, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(va, b1, acc[r][1]);
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < kInPlaceRows; ++r) {
    _mm256_storeu_pd(c + static_cast<size_t>(r) * n + j, acc[r][0]);
    _mm256_storeu_pd(c + static_cast<size_t>(r) * n + j + 4, acc[r][1]);
  }
}

/// Row-vector loop over output columns [j0, n) of `rows` rows: each row is
/// initialized, then folds one fma per k into memory (load-fma-store).
void RowLoopFromCol(int rows, int n, int j0, int k, const double* a,
                    const double* b, const double* bias, GemmInit init,
                    double* c) {
  const int width = n - j0;
  const int w4 = width & ~3;
  for (int i = 0; i < rows; ++i) {
    const double* arow = a + static_cast<size_t>(i) * k;
    double* orow = c + static_cast<size_t>(i) * n + j0;
    if (init == GemmInit::kZero) {
      std::memset(orow, 0, static_cast<size_t>(width) * sizeof(double));
    } else if (init == GemmInit::kBias) {
      std::memcpy(orow, bias + j0, static_cast<size_t>(width) * sizeof(double));
    }
    for (int kk = 0; kk < k; ++kk) {
      const __m256d va = _mm256_set1_pd(arow[kk]);
      const double aik = arow[kk];
      const double* brow = b + static_cast<size_t>(kk) * n + j0;
      int j = 0;
      for (; j < w4; j += 4) {
        const __m256d vo = _mm256_loadu_pd(orow + j);
        _mm256_storeu_pd(orow + j,
                         _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j), vo));
      }
      for (; j < width; ++j) orow[j] = std::fma(aik, brow[j], orow[j]);
    }
  }
}

void Avx2GemmNN(int m, int n, int k, const double* a, const double* b,
                const double* bias, GemmInit init, double* c) {
  if (n == 1) {
    for (int i = 0; i < m; ++i) {
      const double s = Dot4(k, a + static_cast<size_t>(i) * k, b);
      switch (init) {
        case GemmInit::kZero: c[i] = s; break;
        case GemmInit::kBias: c[i] = s + bias[0]; break;
        case GemmInit::kAccumulate: c[i] += s; break;
      }
    }
    return;
  }
  // Whole 6-row blocks take the in-place microkernel over whole 8-column
  // blocks; their column tail and the leftover rows take the row loop.
  const int n8 = n & ~7;
  int i0 = 0;
  for (; i0 + kInPlaceRows <= m; i0 += kInPlaceRows) {
    const double* ablock = a + static_cast<size_t>(i0) * k;
    double* cblock = c + static_cast<size_t>(i0) * n;
    for (int j = 0; j < n8; j += kPanelWidth) {
      InPlace6x8(k, n, j, ablock, b, bias, init, cblock);
    }
    if (n8 < n) {
      RowLoopFromCol(kInPlaceRows, n, n8, k, ablock, b, bias, init, cblock);
    }
  }
  RowLoopFromCol(m - i0, n, 0, k, a + static_cast<size_t>(i0) * k, b, bias,
                 init, c + static_cast<size_t>(i0) * n);
}

void Avx2GemmTN(int m, int n, int k, const double* a, int lda, const double* b,
                GemmInit init, double* c) {
  if (n == 1) {
    if (init != GemmInit::kAccumulate) {
      std::memset(c, 0, static_cast<size_t>(m) * sizeof(double));
    }
    const int m4 = m & ~3;
    for (int kk = 0; kk < k; ++kk) {
      const double bk = b[kk];
      const __m256d vb = _mm256_set1_pd(bk);
      const double* arow = a + static_cast<size_t>(kk) * lda;
      int i = 0;
      for (; i < m4; i += 4) {
        const __m256d vo = _mm256_loadu_pd(c + i);
        _mm256_storeu_pd(c + i,
                         _mm256_fmadd_pd(vb, _mm256_loadu_pd(arow + i), vo));
      }
      for (; i < m; ++i) c[i] = std::fma(bk, arow[i], c[i]);
    }
    return;
  }
  // Strided-broadcast ikj (A columns walked with stride lda). The dispatch
  // layer prefers the packed path for this variant; kept for completeness
  // with the same per-element fold.
  const int n4 = n & ~3;
  for (int i = 0; i < m; ++i) {
    double* orow = c + static_cast<size_t>(i) * n;
    if (init != GemmInit::kAccumulate) {
      std::memset(orow, 0, static_cast<size_t>(n) * sizeof(double));
    }
    for (int kk = 0; kk < k; ++kk) {
      const double aki = a[static_cast<size_t>(kk) * lda + i];
      const __m256d va = _mm256_set1_pd(aki);
      const double* brow = b + static_cast<size_t>(kk) * n;
      int j = 0;
      for (; j < n4; j += 4) {
        const __m256d vo = _mm256_loadu_pd(orow + j);
        _mm256_storeu_pd(orow + j,
                         _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j), vo));
      }
      for (; j < n; ++j) orow[j] = std::fma(aki, brow[j], orow[j]);
    }
  }
}

void Avx2GemmNT(int m, int n, int k, const double* a, const double* b,
                double* c) {
  // Row-dot form; the dispatch layer routes n>1 through the packed path
  // (transpose-packed B), so this runs only for direct table calls.
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<size_t>(i) * k;
    double* orow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      orow[j] = Dot4(k, arow, b + static_cast<size_t>(j) * k);
    }
  }
}

// ---- Packed-panel path ----

void Avx2PackB(int n, int k, const double* b, bool transposed, double* bp) {
  const int panels = (n + kPanelWidth - 1) / kPanelWidth;
  for (int p = 0; p < panels; ++p) {
    const int j0 = p * kPanelWidth;
    const int jw = n - j0 < kPanelWidth ? n - j0 : kPanelWidth;
    double* panel = bp + static_cast<size_t>(p) * k * kPanelWidth;
    if (!transposed) {
      for (int kk = 0; kk < k; ++kk) {
        const double* src = b + static_cast<size_t>(kk) * n + j0;
        double* dst = panel + static_cast<size_t>(kk) * kPanelWidth;
        int j = 0;
        for (; j < jw; ++j) dst[j] = src[j];
        for (; j < kPanelWidth; ++j) dst[j] = 0.0;
      }
    } else {
      // Source is (n×k) row-major; panel column j is source row j0+j.
      for (int kk = 0; kk < k; ++kk) {
        double* dst = panel + static_cast<size_t>(kk) * kPanelWidth;
        int j = 0;
        for (; j < jw; ++j) dst[j] = b[static_cast<size_t>(j0 + j) * k + kk];
        for (; j < kPanelWidth; ++j) dst[j] = 0.0;
      }
    }
  }
}

void Avx2PackBias(int n, const double* bias, double* bias_p) {
  const int panels = (n + kPanelWidth - 1) / kPanelWidth;
  const int padded = panels * kPanelWidth;
  std::memcpy(bias_p, bias, static_cast<size_t>(n) * sizeof(double));
  for (int j = n; j < padded; ++j) bias_p[j] = 0.0;
}

/// 4×8 register-blocked microkernel over one packed panel: 8 accumulator
/// ymm (4 rows × 2 halves), one broadcast per (row, k), two panel loads per
/// k. `rows` ≤ 4 live rows are loaded/stored; the A panel is zero-padded to
/// 4 rows so the fma stream is branch-free.
inline void MicroKernel4x8(int rows, int k, const double* ap,
                           const double* panel, const double* bias_panel,
                           GemmInit init, double* c, int ldc, int cols,
                           __m256i colmask_lo, __m256i colmask_hi) {
  __m256d acc[kMr][2];
  if (init == GemmInit::kBias) {
    const __m256d b0 = _mm256_loadu_pd(bias_panel);
    const __m256d b1 = _mm256_loadu_pd(bias_panel + 4);
    for (int r = 0; r < kMr; ++r) {
      acc[r][0] = b0;
      acc[r][1] = b1;
    }
  } else if (init == GemmInit::kAccumulate) {
    for (int r = 0; r < kMr; ++r) {
      if (r < rows) {
        double* crow = c + static_cast<size_t>(r) * ldc;
        if (cols == kPanelWidth) {
          acc[r][0] = _mm256_loadu_pd(crow);
          acc[r][1] = _mm256_loadu_pd(crow + 4);
        } else {
          acc[r][0] = _mm256_maskload_pd(crow, colmask_lo);
          acc[r][1] = _mm256_maskload_pd(crow + 4, colmask_hi);
        }
      } else {
        acc[r][0] = _mm256_setzero_pd();
        acc[r][1] = _mm256_setzero_pd();
      }
    }
  } else {
    for (int r = 0; r < kMr; ++r) {
      acc[r][0] = _mm256_setzero_pd();
      acc[r][1] = _mm256_setzero_pd();
    }
  }
  for (int kk = 0; kk < k; ++kk) {
    const __m256d b0 = _mm256_loadu_pd(panel + static_cast<size_t>(kk) * 8);
    const __m256d b1 =
        _mm256_loadu_pd(panel + static_cast<size_t>(kk) * 8 + 4);
    const double* arow = ap + static_cast<size_t>(kk) * kMr;
    for (int r = 0; r < kMr; ++r) {
      const __m256d va = _mm256_set1_pd(arow[r]);
      acc[r][0] = _mm256_fmadd_pd(va, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(va, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < rows; ++r) {
    double* crow = c + static_cast<size_t>(r) * ldc;
    if (cols == kPanelWidth) {
      _mm256_storeu_pd(crow, acc[r][0]);
      _mm256_storeu_pd(crow + 4, acc[r][1]);
    } else {
      _mm256_maskstore_pd(crow, colmask_lo, acc[r][0]);
      _mm256_maskstore_pd(crow + 4, colmask_hi, acc[r][1]);
    }
  }
}

/// Small-k variant of the packed path. At k ≤ 8 a 4×8 block is only 32
/// fmas, so the generic path's per-quad A-packing, runtime k-loop control,
/// and tail-mask setup rival the arithmetic itself. This kernel requires
/// contiguous row-major A (a_row_stride == K, a_k_stride == 1) so rows are
/// read in place, fully unrolls the k loop at compile time, and handles
/// only whole panels (n % 8 == 0) so every store is a plain storeu. The
/// accumulation is the same per-element k-ordered fold over the same
/// packed panels as MicroKernel4x8 — bitwise-identical output; taking this
/// path is purely a performance choice (see file header).
template <int K>
void Avx2GemmPackedSmallK(int m, int n, const double* a, const double* bp,
                          const double* bias_p, GemmInit init, double* c) {
  const int panels = n / kPanelWidth;
  int i0 = 0;
  for (; i0 + kMr <= m; i0 += kMr) {
    const double* arow = a + static_cast<size_t>(i0) * K;
    double* cblock = c + static_cast<size_t>(i0) * n;
    for (int p = 0; p < panels; ++p) {
      const double* panel = bp + static_cast<size_t>(p) * K * kPanelWidth;
      double* c0 = cblock + static_cast<size_t>(p) * kPanelWidth;
      __m256d acc[kMr][2];
      if (init == GemmInit::kBias) {
        const __m256d b0 =
            _mm256_loadu_pd(bias_p + static_cast<size_t>(p) * kPanelWidth);
        const __m256d b1 =
            _mm256_loadu_pd(bias_p + static_cast<size_t>(p) * kPanelWidth + 4);
        for (int r = 0; r < kMr; ++r) {
          acc[r][0] = b0;
          acc[r][1] = b1;
        }
      } else if (init == GemmInit::kAccumulate) {
        for (int r = 0; r < kMr; ++r) {
          acc[r][0] = _mm256_loadu_pd(c0 + static_cast<size_t>(r) * n);
          acc[r][1] = _mm256_loadu_pd(c0 + static_cast<size_t>(r) * n + 4);
        }
      } else {
        for (int r = 0; r < kMr; ++r) {
          acc[r][0] = _mm256_setzero_pd();
          acc[r][1] = _mm256_setzero_pd();
        }
      }
#pragma GCC unroll 8
      for (int kk = 0; kk < K; ++kk) {
        const __m256d b0 =
            _mm256_loadu_pd(panel + static_cast<size_t>(kk) * kPanelWidth);
        const __m256d b1 =
            _mm256_loadu_pd(panel + static_cast<size_t>(kk) * kPanelWidth + 4);
        for (int r = 0; r < kMr; ++r) {
          const __m256d va = _mm256_set1_pd(arow[static_cast<size_t>(r) * K + kk]);
          acc[r][0] = _mm256_fmadd_pd(va, b0, acc[r][0]);
          acc[r][1] = _mm256_fmadd_pd(va, b1, acc[r][1]);
        }
      }
      for (int r = 0; r < kMr; ++r) {
        _mm256_storeu_pd(c0 + static_cast<size_t>(r) * n, acc[r][0]);
        _mm256_storeu_pd(c0 + static_cast<size_t>(r) * n + 4, acc[r][1]);
      }
    }
  }
  // Row tail (< 4 rows): scalar std::fma runs the identical per-element
  // fold (a fused multiply-add is one correctly-rounded operation in both
  // lane and scalar form), so the tail is bitwise-consistent with the
  // vector block above and with MicroKernel4x8's zero-padded rows.
  for (; i0 < m; ++i0) {
    const double* arow = a + static_cast<size_t>(i0) * K;
    double* crow = c + static_cast<size_t>(i0) * n;
    for (int j = 0; j < n; ++j) {
      const double* panel = bp + static_cast<size_t>(j / kPanelWidth) * K * kPanelWidth;
      const int lane = j % kPanelWidth;
      double acc = init == GemmInit::kBias         ? bias_p[j]
                   : init == GemmInit::kAccumulate ? crow[j]
                                                   : 0.0;
      for (int kk = 0; kk < K; ++kk) {
        acc = std::fma(arow[kk], panel[static_cast<size_t>(kk) * kPanelWidth + lane],
                       acc);
      }
      crow[j] = acc;
    }
  }
}

void Avx2GemmPacked(int m, int n, int k, const double* a, int a_row_stride,
                    int a_k_stride, const double* bp, const double* bias_p,
                    GemmInit init, double* c) {
  if (a_k_stride == 1 && a_row_stride == k && n % kPanelWidth == 0) {
    switch (k) {
      case 1: return Avx2GemmPackedSmallK<1>(m, n, a, bp, bias_p, init, c);
      case 2: return Avx2GemmPackedSmallK<2>(m, n, a, bp, bias_p, init, c);
      case 3: return Avx2GemmPackedSmallK<3>(m, n, a, bp, bias_p, init, c);
      case 4: return Avx2GemmPackedSmallK<4>(m, n, a, bp, bias_p, init, c);
      case 5: return Avx2GemmPackedSmallK<5>(m, n, a, bp, bias_p, init, c);
      case 6: return Avx2GemmPackedSmallK<6>(m, n, a, bp, bias_p, init, c);
      case 7: return Avx2GemmPackedSmallK<7>(m, n, a, bp, bias_p, init, c);
      case 8: return Avx2GemmPackedSmallK<8>(m, n, a, bp, bias_p, init, c);
      default: break;  // large k: the packed microkernel amortizes fine
    }
  }
  // Per-thread A-panel scratch: one 4×k block, k-major, zero-padded rows.
  // Grows once per thread to the largest k seen; no steady-state heap.
  thread_local std::vector<double> a_panel;
  if (a_panel.size() < static_cast<size_t>(k) * kMr) {
    a_panel.resize(static_cast<size_t>(k) * kMr);
  }
  double* ap = a_panel.data();

  const int panels = (n + kPanelWidth - 1) / kPanelWidth;
  for (int i0 = 0; i0 < m; i0 += kMr) {
    const int rows = m - i0 < kMr ? m - i0 : kMr;
    for (int kk = 0; kk < k; ++kk) {
      double* dst = ap + static_cast<size_t>(kk) * kMr;
      const double* src =
          a + static_cast<size_t>(i0) * a_row_stride +
          static_cast<size_t>(kk) * a_k_stride;
      int r = 0;
      for (; r < rows; ++r) dst[r] = src[static_cast<size_t>(r) * a_row_stride];
      for (; r < kMr; ++r) dst[r] = 0.0;
    }
    for (int p = 0; p < panels; ++p) {
      const int j0 = p * kPanelWidth;
      const int cols = n - j0 < kPanelWidth ? n - j0 : kPanelWidth;
      const int lo = cols < 4 ? cols : 4;
      const int hi = cols - lo;
      const __m256i mask_lo = cols == kPanelWidth ? __m256i{} : TailMask(lo);
      const __m256i mask_hi = cols == kPanelWidth ? __m256i{} : TailMask(hi);
      MicroKernel4x8(rows, k, ap,
                     bp + static_cast<size_t>(p) * k * kPanelWidth,
                     bias_p == nullptr
                         ? nullptr
                         : bias_p + static_cast<size_t>(p) * kPanelWidth,
                     init, c + static_cast<size_t>(i0) * n + j0, n, cols,
                     mask_lo, mask_hi);
    }
  }
}

// ---- Elementwise (bitwise-equal to scalar: no FMA, correctly-rounded
// lane ops, scalar tails running the same expressions) ----

/// Four-lane instantiation of the transcendental core (transcendental.h).
struct Avx2Lanes {
  using V = __m256d;
  using M = __m256d;
  static V Set(double v) { return _mm256_set1_pd(v); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Div(V a, V b) { return _mm256_div_pd(a, b); }
  static M Gt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static M Lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static V Select(M m, V t, V f) { return _mm256_blendv_pd(f, t, m); }
  static V Abs(V v) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v); }
  static V Neg(V v) { return _mm256_xor_pd(v, _mm256_set1_pd(-0.0)); }
  static V OrSign(V mag, V s) {
    return _mm256_or_pd(mag, _mm256_and_pd(s, _mm256_set1_pd(-0.0)));
  }
  static V ShiftToExponent(V v) {
    return _mm256_castsi256_pd(
        _mm256_slli_epi64(_mm256_castpd_si256(v), 52));
  }
};

/// x[i] = f(x[i]) four lanes at a time. The tail runs through the same
/// lane function on a zero-padded vector, so every element gets the same
/// bits whatever its position.
template <class F>
void Avx2Map(int n, double* x, F f) {
  int i = 0;
  // Two independent vectors per iteration keep both FP ports busy through
  // the latency of the polynomial chain.
  for (; i + 8 <= n; i += 8) {
    const __m256d a = f(_mm256_loadu_pd(x + i));
    const __m256d b = f(_mm256_loadu_pd(x + i + 4));
    _mm256_storeu_pd(x + i, a);
    _mm256_storeu_pd(x + i + 4, b);
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, f(_mm256_loadu_pd(x + i)));
  }
  if (i == n) return;
  alignas(32) double tail[4] = {0.0, 0.0, 0.0, 0.0};
  const size_t bytes = static_cast<size_t>(n - i) * sizeof(double);
  std::memcpy(tail, x + i, bytes);
  _mm256_store_pd(tail, f(_mm256_load_pd(tail)));
  std::memcpy(x + i, tail, bytes);
}

void Avx2Axpy(int n, double alpha, const double* x, double* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  const int n4 = n & ~3;
  int i = 0;
  for (; i < n4; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Avx2ActForward(ActKind kind, double leaky_slope, int n, double* x) {
  const int n4 = n & ~3;
  switch (kind) {
    case ActKind::kNone:
      return;
    case ActKind::kRelu: {
      // max(x, +0) matches the scalar branch bitwise: x == -0.0 and x == NaN
      // both map to +0.0 (vmaxpd returns the second operand on equal/NaN).
      const __m256d zero = _mm256_setzero_pd();
      int i = 0;
      for (; i < n4; i += 4) {
        _mm256_storeu_pd(x + i, _mm256_max_pd(_mm256_loadu_pd(x + i), zero));
      }
      for (; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : 0.0;
      return;
    }
    case ActKind::kLeakyRelu: {
      const __m256d zero = _mm256_setzero_pd();
      const __m256d slope = _mm256_set1_pd(leaky_slope);
      int i = 0;
      for (; i < n4; i += 4) {
        const __m256d v = _mm256_loadu_pd(x + i);
        const __m256d pos = _mm256_cmp_pd(v, zero, _CMP_GT_OQ);
        _mm256_storeu_pd(
            x + i, _mm256_blendv_pd(_mm256_mul_pd(slope, v), v, pos));
      }
      for (; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : leaky_slope * x[i];
      return;
    }
    case ActKind::kTanh:
      Avx2Map(n, x, [](__m256d v) { return Tanh<Avx2Lanes>(v); });
      return;
    case ActKind::kSigmoid:
      Avx2Map(n, x, [](__m256d v) { return Sigmoid<Avx2Lanes>(v); });
      return;
  }
}

void Avx2Exp(int n, double* x) {
  Avx2Map(n, x, [](__m256d v) { return Exp<Avx2Lanes>(v); });
}

void Avx2ActBackward(ActKind kind, double leaky_slope, int n, const double* y,
                     const double* gout, double* gin) {
  const int n4 = n & ~3;
  switch (kind) {
    case ActKind::kNone:
      if (gin != gout) std::memcpy(gin, gout, n * sizeof(double));
      return;
    case ActKind::kRelu: {
      const __m256d zero = _mm256_setzero_pd();
      int i = 0;
      for (; i < n4; i += 4) {
        const __m256d pos =
            _mm256_cmp_pd(_mm256_loadu_pd(y + i), zero, _CMP_GT_OQ);
        _mm256_storeu_pd(gin + i,
                         _mm256_and_pd(_mm256_loadu_pd(gout + i), pos));
      }
      for (; i < n; ++i) gin[i] = y[i] > 0.0 ? gout[i] : 0.0;
      return;
    }
    case ActKind::kLeakyRelu: {
      const __m256d zero = _mm256_setzero_pd();
      const __m256d slope = _mm256_set1_pd(leaky_slope);
      int i = 0;
      for (; i < n4; i += 4) {
        const __m256d g = _mm256_loadu_pd(gout + i);
        const __m256d pos =
            _mm256_cmp_pd(_mm256_loadu_pd(y + i), zero, _CMP_GT_OQ);
        _mm256_storeu_pd(gin + i,
                         _mm256_blendv_pd(_mm256_mul_pd(slope, g), g, pos));
      }
      for (; i < n; ++i) {
        gin[i] = y[i] > 0.0 ? gout[i] : leaky_slope * gout[i];
      }
      return;
    }
    case ActKind::kTanh: {
      const __m256d one = _mm256_set1_pd(1.0);
      int i = 0;
      for (; i < n4; i += 4) {
        const __m256d vy = _mm256_loadu_pd(y + i);
        const __m256d d = _mm256_sub_pd(one, _mm256_mul_pd(vy, vy));
        _mm256_storeu_pd(gin + i, _mm256_mul_pd(_mm256_loadu_pd(gout + i), d));
      }
      for (; i < n; ++i) gin[i] = gout[i] * (1.0 - y[i] * y[i]);
      return;
    }
    case ActKind::kSigmoid: {
      const __m256d one = _mm256_set1_pd(1.0);
      int i = 0;
      for (; i < n4; i += 4) {
        const __m256d vy = _mm256_loadu_pd(y + i);
        const __m256d d = _mm256_mul_pd(vy, _mm256_sub_pd(one, vy));
        _mm256_storeu_pd(gin + i, _mm256_mul_pd(_mm256_loadu_pd(gout + i), d));
      }
      for (; i < n; ++i) gin[i] = gout[i] * (y[i] * (1.0 - y[i]));
      return;
    }
  }
}

void Avx2RowwiseMax(int rows, int cols, const double* a, double* out,
                    int* argmax) {
  // The TD-target matrices are (B×|A|=3): scalar comparison is the whole
  // job; the first-argmax tie-break rules out a lane-parallel sweep anyway.
  for (int r = 0; r < rows; ++r) {
    const double* arow = a + static_cast<size_t>(r) * cols;
    int best = 0;
    for (int cc = 1; cc < cols; ++cc) {
      if (arow[cc] > arow[best]) best = cc;
    }
    out[r] = arow[best];
    if (argmax != nullptr) argmax[r] = best;
  }
}

void Avx2AdamStep(int n, double lr, double beta1, double beta2, double eps,
                  double bc1, double bc2, const double* g, double* m,
                  double* v, double* value) {
  const __m256d vb1 = _mm256_set1_pd(beta1);
  const __m256d vb1c = _mm256_set1_pd(1.0 - beta1);
  const __m256d vb2 = _mm256_set1_pd(beta2);
  const __m256d vb2c = _mm256_set1_pd(1.0 - beta2);
  const __m256d vbc1 = _mm256_set1_pd(bc1);
  const __m256d vbc2 = _mm256_set1_pd(bc2);
  const __m256d vlr = _mm256_set1_pd(lr);
  const __m256d veps = _mm256_set1_pd(eps);
  const int n4 = n & ~3;
  int j = 0;
  for (; j < n4; j += 4) {
    const __m256d vg = _mm256_loadu_pd(g + j);
    const __m256d vm = _mm256_add_pd(_mm256_mul_pd(vb1, _mm256_loadu_pd(m + j)),
                                     _mm256_mul_pd(vb1c, vg));
    // ((1-beta2)·g)·g — same association as the scalar backend, so the
    // second moment stays bitwise identical across ISAs.
    const __m256d vgg = _mm256_mul_pd(_mm256_mul_pd(vb2c, vg), vg);
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(vb2, _mm256_loadu_pd(v + j)), vgg);
    _mm256_storeu_pd(m + j, vm);
    _mm256_storeu_pd(v + j, vv);
    const __m256d m_hat = _mm256_div_pd(vm, vbc1);
    const __m256d v_hat = _mm256_div_pd(vv, vbc2);
    const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(v_hat), veps);
    const __m256d step = _mm256_div_pd(_mm256_mul_pd(vlr, m_hat), denom);
    _mm256_storeu_pd(value + j,
                     _mm256_sub_pd(_mm256_loadu_pd(value + j), step));
  }
  for (; j < n; ++j) {
    m[j] = beta1 * m[j] + (1.0 - beta1) * g[j];
    v[j] = beta2 * v[j] + (1.0 - beta2) * g[j] * g[j];
    const double m_hat = m[j] / bc1;
    const double v_hat = v[j] / bc2;
    value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace

const KernelTable kAvx2Table = {
    /*name=*/"avx2",
    /*gemm_nn=*/Avx2GemmNN,
    /*gemm_tn=*/Avx2GemmTN,
    /*gemm_nt=*/Avx2GemmNT,
    /*pack_b=*/Avx2PackB,
    /*pack_bias=*/Avx2PackBias,
    /*gemm_packed=*/Avx2GemmPacked,
    /*axpy=*/Avx2Axpy,
    /*act_forward=*/Avx2ActForward,
    /*act_backward=*/Avx2ActBackward,
    /*exp=*/Avx2Exp,
    /*rowwise_max=*/Avx2RowwiseMax,
    /*adam_step=*/Avx2AdamStep,
};

}  // namespace head::nn::kernels::internal

#endif  // __AVX2__ && __FMA__
