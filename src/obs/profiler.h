// Op-level performance profiler: per-(op, shape, phase) attribution of the
// training/inference hot path, with achieved GFLOP/s, arithmetic intensity,
// a software roofline, and (where the kernel allows) hardware counters.
//
//   obs::StartProfiling();
//   ...run training steps...             // kernels + autograd report in
//   obs::StopProfiling();
//   obs::ProfileReport r = obs::CollectProfile();
//   std::cout << obs::ProfileToText(r, /*top_n=*/10);
//   obs::WriteProfileJsonFile("prof.json");   // tools/profile_diff.py input
//
// Instrumentation is the one obs::Scope (obs/span.h): every HEAD_SPAN
// reports a row under its name, and HEAD_PROF_OP sits inside every kernel
// entry point and autograd node. Disabled, a scope is one relaxed atomic
// load (≲1 ns); profiled, two clock reads plus ~a dozen relaxed atomic adds
// into a per-thread open-addressed stats table, so the aggregation itself
// never locks, allocates, or contends across threads.
//
// Attribution model — scopes nest on their thread:
//   * total time: wall ns between a scope's open and close;
//   * self time:  total minus the total of directly nested scopes — the
//     sorted report ranks by self so nothing is double-counted;
//   * roots:      scopes with no profiled parent (rl.update, the perception
//     train epoch, env.step). coverage = 1 − root_self / root_total is the
//     fraction of step wall time attributed to finer-grained scopes — the
//     ≥95% target of the profile gate;
//   * phase:      forward by default; nn::Backward flips a thread-local so
//     the same GEMM shape reports separately for fwd and bwd.
//
// Flops/bytes are attributed exactly once per call tree: kernel-table entry
// points (gemm_nn/tn/nt, axpy, activations, adam, rowwise-max) report
// their own flops via kernels::FlopsFor; autograd nodes whose math runs
// through those kernels report zero at node level (their cost shows as the
// kernel rows nested beneath), while pure-loop nodes (Add, Tanh, Softmax,
// gathers, …) carry their own counts.
//
// Hardware counters: per-thread perf_event groups (see perf_counters.h)
// accumulate cycles/instructions/cache-misses/branch-misses for the session;
// when perf_event_open is unavailable (EACCES/ENOSYS/seccomp/non-Linux) the
// report simply carries hw.status — every wall-clock/flops column is
// unaffected.
#ifndef HEAD_OBS_PROFILER_H_
#define HEAD_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.h"  // Scope, ProfPhase, NowNs

namespace head::obs {

namespace prof_internal {
extern thread_local ProfPhase t_phase;

void RecordOp(const char* op, ProfPhase phase, int m, int n, int k,
              uint64_t total_ns, uint64_t self_ns, int64_t flops,
              int64_t bytes, bool is_root);

/// One sample of the session's cumulative flop/byte counters.
struct CounterSample {
  uint64_t ts_ns;
  int64_t cum_flops;
  int64_t cum_bytes;
};
/// The samples taken since the last StartProfiling/ResetProfile.
std::vector<CounterSample> CounterSamples();
}  // namespace prof_internal

inline bool ProfilingEnabled() {
  return (internal::g_scope_sinks.load(std::memory_order_relaxed) &
          internal::kProfileSink) != 0;
}

struct ProfilerOptions {
  /// Try to open per-thread perf_event hardware counters. Falls back to
  /// wall-clock-only silently when the kernel refuses; HEAD_PERF_COUNTERS=0
  /// pins the fallback regardless.
  bool hw_counters = true;
};

/// Zeroes all accumulated stats, then enables collection. Hardware counter
/// groups are (re)armed per thread on first profiled op.
void StartProfiling(const ProfilerOptions& options = {});
/// Disables collection (stats are retained for CollectProfile).
void StopProfiling();
/// Zeroes all accumulated stats without toggling the gate.
void ResetProfile();

/// Marks the current thread as running the given phase for its scope
/// (nn::Backward wraps itself in kBackward).
class ScopedProfPhase {
 public:
  explicit ScopedProfPhase(ProfPhase phase)
      : prev_(prof_internal::t_phase) {
    prof_internal::t_phase = phase;
  }
  ~ScopedProfPhase() { prof_internal::t_phase = prev_; }
  ScopedProfPhase(const ScopedProfPhase&) = delete;
  ScopedProfPhase& operator=(const ScopedProfPhase&) = delete;

 private:
  ProfPhase prev_;
};

// ---- Report ----

struct OpStats {
  std::string op;
  ProfPhase phase = ProfPhase::kForward;
  int m = 0, n = 0, k = 0;  ///< shape key; (count,1,1)-style for elementwise
  int64_t count = 0;
  int64_t root_count = 0;  ///< calls with no profiled parent on their thread
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  int64_t flops = 0;
  int64_t bytes = 0;

  double AvgNs() const {
    return count > 0 ? static_cast<double>(total_ns) / count : 0.0;
  }
  /// Achieved GFLOP/s over the op's own (total) wall time.
  double Gflops() const {
    return total_ns > 0 ? static_cast<double>(flops) / total_ns : 0.0;
  }
  /// Arithmetic intensity in flops/byte (0 when bytes were not attributed).
  double Intensity() const {
    return bytes > 0 ? static_cast<double>(flops) / bytes : 0.0;
  }
};

struct HwCounterReport {
  bool available = false;
  std::string status = "unopened";  ///< "ok" or the fallback reason tag
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t cache_misses = 0;
  uint64_t branch_misses = 0;
  double ipc = 0.0;
};

/// Measured machine peaks the roofline is drawn against. Benches calibrate
/// via kernels::CalibrateProfilerRoofline() (a cache-resident GEMM through
/// the active backend); the built-in fallback is a portable FMA-loop +
/// stream sweep that underestimates SIMD peaks but keeps ratios meaningful.
struct RooflinePeaks {
  double gflops = 0.0;
  double gbps = 0.0;
  std::string source = "uncalibrated";
};

void SetRooflinePeaks(const RooflinePeaks& peaks);
/// Current peaks; runs the portable fallback calibration on first use if
/// nothing was injected.
RooflinePeaks GetRooflinePeaks();

/// The roofline bound for an op of the given intensity (flops/byte):
/// min(peak_gflops, intensity · peak_gbps). 0 when uncalibrated.
double RooflineBoundGflops(double intensity, const RooflinePeaks& peaks);

/// Portable stream-bandwidth sweep (read+write over a buffer past L2) —
/// the memory roof shared by the fallback calibration here and the
/// kernel-layer calibration. ~10 ms.
double MeasurePeakBandwidthGbps();

struct ProfileReport {
  uint64_t session_wall_ns = 0;  ///< Start→Stop (or →Collect while running)
  uint64_t root_total_ns = 0;
  uint64_t root_self_ns = 0;
  /// 1 − root_self/root_total: fraction of root-scope wall time attributed
  /// to nested per-op rows. 0 when nothing was profiled.
  double coverage = 0.0;
  int threads = 0;          ///< shards (≈ threads) that recorded ops
  int64_t dropped_ops = 0;  ///< records lost to per-thread table overflow
  HwCounterReport hw;
  RooflinePeaks roofline;
  std::vector<OpStats> ops;  ///< sorted by self_ns descending
};

/// Merges every thread's stats into one report (sorted by self time).
/// Intended at quiescence or under only-relaxed-counter racing — concurrent
/// profiled ops may be partially reflected but never corrupt the report.
ProfileReport CollectProfile();

/// Human-readable table; top_n = 0 prints every row.
std::string ProfileToText(const ProfileReport& report, size_t top_n = 0);
/// Schema "head-profile-v1" — the tools/profile_diff.py input format.
std::string ProfileToJson(const ProfileReport& report);
/// CollectProfile() → ProfileToJson → `path`; false on I/O error.
bool WriteProfileJsonFile(const std::string& path);

}  // namespace head::obs

/// Shaped profiled op (kernels, autograd nodes); never traced.
#define HEAD_PROF_OP(op, m, n, k, flops, bytes)               \
  ::head::obs::Scope HEAD_OBS_CONCAT(head_prof_, __LINE__)( \
      op, m, n, k, flops, bytes)

#endif  // HEAD_OBS_PROFILER_H_
