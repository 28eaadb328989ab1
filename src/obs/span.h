// The one instrumentation scope, with Chrome trace-event export.
//
//   obs::SetTracingEnabled(true);
//   { HEAD_SPAN("sim.step", latency); ...work... }  // nested scopes nest
//   obs::WriteChromeTraceFile("trace.json");
//
// A HEAD_SPAN scope reads one clock pair and feeds three sinks: a row of the
// op profiler (obs/profiler.h) while profiling is on, a TraceEvent (start,
// duration, thread, nesting depth) while tracing is on, and its latency
// histogram, when one is given, always. HEAD_PROF_OP is the same scope for
// kernels and autograd nodes, profiler-only so they do not flood the trace.
// With profiling and tracing off and no histogram a scope costs one relaxed
// atomic load — a few nanoseconds — so it stays in the hot paths for good.
#ifndef HEAD_OBS_SPAN_H_
#define HEAD_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace head::obs {

class Histogram;

/// Which pass a profiled scope belongs to (nn::Backward flips it).
enum class ProfPhase : uint8_t { kForward = 0, kBackward = 1 };

namespace internal {
inline constexpr uint8_t kProfileSink = 1;
inline constexpr uint8_t kTraceSink = 2;
inline constexpr uint8_t kHistogramSink = 4;
/// The runtime sinks switched on (kProfileSink | kTraceSink): the one
/// disabled-path gate of every scope.
extern std::atomic<uint8_t> g_scope_sinks;
void SetSink(uint8_t sink, bool on);

uint64_t NowNs();
}  // namespace internal

/// Runtime switch; scopes opened while disabled record no trace event.
void SetTracingEnabled(bool enabled);

/// One completed span. Depth is the nesting level on its thread (0 = root).
struct TraceEvent {
  const char* name;  ///< must be a string literal (stored unowned)
  uint32_t tid;      ///< small sequential per-thread id
  int depth;
  uint64_t start_ns;  ///< steady-clock, process-relative
  uint64_t dur_ns;
};

/// Moves out every completed span recorded so far (all threads).
std::vector<TraceEvent> DrainTraceEvents();

/// Completed spans dropped because the in-memory buffer hit its cap.
int64_t DroppedTraceEvents();

/// Chrome trace-event JSON ({"traceEvents":[...]}, "ph":"X" complete events,
/// microsecond timestamps), followed by the profiler's achieved GFLOP/s and
/// GB/s counter tracks ("ph":"C") when its last session sampled any.
void WriteChromeTrace(const std::vector<TraceEvent>& events, std::ostream& os);

/// Drains all recorded spans and writes them to `path`; false on I/O error.
bool WriteChromeTraceFile(const std::string& path);

/// RAII scope behind HEAD_SPAN and HEAD_PROF_OP. The sinks are fixed when
/// the scope opens; a disabled scope only stores an empty sink set.
class Scope {
 public:
  /// Region scope: profiler row and trace event while those are on.
  explicit Scope(const char* name) {
    sinks_ = internal::g_scope_sinks.load(std::memory_order_relaxed);
    if (sinks_ != 0) Begin(name, 0, 0, 0, 0, 0);
  }
  /// Region scope that also observes its duration (seconds) into `hist`.
  Scope(const char* name, Histogram& hist) : hist_(&hist) {
    sinks_ = internal::g_scope_sinks.load(std::memory_order_relaxed) |
             internal::kHistogramSink;
    Begin(name, 0, 0, 0, 0, 0);
  }
  /// Shaped op (kernels, autograd nodes): profiler only.
  Scope(const char* op, int m, int n, int k, int64_t flops, int64_t bytes) {
    sinks_ = internal::g_scope_sinks.load(std::memory_order_relaxed) &
             internal::kProfileSink;
    if (sinks_ != 0) Begin(op, m, n, k, flops, bytes);
  }
  ~Scope() {
    if (sinks_ != 0) End();
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void Begin(const char* name, int m, int n, int k, int64_t flops,
             int64_t bytes);
  void End();

  // Only sinks_ is set on the disabled path (the destructor's gate); Begin
  // fills the fields of the sinks it opened.
  uint8_t sinks_;
  ProfPhase phase_;
  int depth_;
  const char* name_;
  Histogram* hist_;
  int m_, n_, k_;
  int64_t flops_, bytes_;
  uint64_t start_ns_;
  uint64_t child_ns_;       // filled by directly nested profiled scopes
  uint64_t* parent_child_;  // nullptr ⇒ a profiler root
};

}  // namespace head::obs

#define HEAD_OBS_CONCAT_INNER(a, b) a##b
#define HEAD_OBS_CONCAT(a, b) HEAD_OBS_CONCAT_INNER(a, b)

/// Opens a scope covering the rest of the enclosing block:
/// HEAD_SPAN(name) or HEAD_SPAN(name, histogram).
#define HEAD_SPAN(...) \
  ::head::obs::Scope HEAD_OBS_CONCAT(head_span_, __LINE__)(__VA_ARGS__)

#endif  // HEAD_OBS_SPAN_H_
