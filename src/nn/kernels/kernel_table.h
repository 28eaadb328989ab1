// Internal contract between the dispatch layer (simd.cc) and the two
// instruction-set backends (gemm_scalar.cc, gemm_avx2.cc). Not part of the
// public kernel API — include kernels/simd.h instead.
//
// Each backend fills one KernelTable with serial row-range kernels. The
// dispatch layer owns thresholds, row-partitioning across the thread pool,
// and shared panel packing; a backend's gemm entries must therefore be pure
// functions of their arguments whose per-element results do not depend on
// the row range they were handed (chunk invariance).
#ifndef HEAD_NN_KERNELS_KERNEL_TABLE_H_
#define HEAD_NN_KERNELS_KERNEL_TABLE_H_

#include <cstddef>

#include "nn/kernels/simd.h"

namespace head::nn::kernels::internal {

/// Width (columns) of one packed B panel on the packed path. The panel
/// buffer is padded to a multiple of kPanelWidth columns with zeros, so the
/// microkernel always runs full-width; the store masks the column tail.
inline constexpr int kPanelWidth = 8;

struct KernelTable {
  const char* name;

  // ---- GEMM family (fast_math-gated on SIMD backends) ----
  //
  // Serial kernels over the full [0, m) row range they are given. The
  // dispatch layer calls them on row sub-ranges with adjusted pointers;
  // gemm_tn additionally takes lda (= full output row count m) because its
  // A operand is column-sliced rather than row-sliced when chunked.

  /// C(m×n) ⟵ init ⊕ A(m×k)·B(k×n); bias used only for kBias.
  void (*gemm_nn)(int m, int n, int k, const double* a, const double* b,
                  const double* bias, GemmInit init, double* c);
  /// C(m×n) ⟵ init ⊕ Aᵀ·B, A stored (k×lda) row-major, output rows are
  /// A columns [0, m) of that slice.
  void (*gemm_tn)(int m, int n, int k, const double* a, int lda,
                  const double* b, GemmInit init, double* c);
  /// C(m×n) = A(m×k)·Bᵀ, B stored (n×k) row-major.
  void (*gemm_nt)(int m, int n, int k, const double* a, const double* b,
                  double* c);

  // ---- Packed-panel path (null on backends without one) ----
  //
  // pack_b lays B out k-major in kPanelWidth-column panels, zero-padding
  // the column tail: bp[(panel·k + kk)·kPanelWidth + j]. `transposed`
  // selects the (n×k) row-major source layout (the Bᵀ of gemm_nt).
  // pack_bias pads a 1×n row into the same panel grid (so the microkernel
  // may load full panels of bias at the tail). gemm_packed computes a row
  // range of C against the shared packed panels; `a` walks rows with
  // a_row_stride and k with a_k_stride, covering A, the column-slice of
  // gemm_tn, and anything in between.
  void (*pack_b)(int n, int k, const double* b, bool transposed, double* bp);
  void (*pack_bias)(int n, const double* bias, double* bias_p);
  void (*gemm_packed)(int m, int n, int k, const double* a, int a_row_stride,
                      int a_k_stride, const double* bp, const double* bias_p,
                      GemmInit init, double* c);

  // ---- Elementwise (always routed; bitwise-equal across backends) ----
  void (*axpy)(int n, double alpha, const double* x, double* y);
  void (*act_forward)(ActKind kind, double leaky_slope, int n, double* x);
  void (*act_backward)(ActKind kind, double leaky_slope, int n,
                       const double* y, const double* gout, double* gin);
  void (*exp)(int n, double* x);
  void (*rowwise_max)(int rows, int cols, const double* a, double* out,
                      int* argmax);
  void (*adam_step)(int n, double lr, double beta1, double beta2, double eps,
                    double bc1, double bc2, const double* g, double* m,
                    double* v, double* value);
};

/// Portable backend; always available.
extern const KernelTable kScalarTable;

#if defined(HEAD_HAVE_AVX2_TU)
/// AVX2+FMA backend; linked only when the AVX2 TU is compiled in.
extern const KernelTable kAvx2Table;
#endif

/// Doubles needed for a packed B (or Bᵀ) panel buffer of an n×k problem.
inline size_t PackedBSize(int n, int k) {
  const int panels = (n + kPanelWidth - 1) / kPanelWidth;
  return static_cast<size_t>(panels) * kPanelWidth * k;
}

/// Doubles needed for a packed bias row.
inline size_t PackedBiasSize(int n) {
  const int panels = (n + kPanelWidth - 1) / kPanelWidth;
  return static_cast<size_t>(panels) * kPanelWidth;
}

}  // namespace head::nn::kernels::internal

#endif  // HEAD_NN_KERNELS_KERNEL_TABLE_H_
