#include "obs/span.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace head::obs {

namespace {

// Completed spans from every thread, appended under a mutex. Span end is not
// a hot enough event to justify per-thread buffers yet: a traced sim step
// produces ~10 spans, each append is ~20 ns.
std::mutex g_events_mu;
std::vector<TraceEvent> g_events;
std::atomic<int64_t> g_dropped{0};

// Unbounded traces of long RL trainings would eat the heap; cap and count.
constexpr size_t kMaxEvents = 1 << 21;  // ~2M spans ≈ 80 MB

std::atomic<uint32_t> g_next_tid{0};

// Small sequential per-thread id, taken on the thread's first traced span.
thread_local const uint32_t t_tid =
    g_next_tid.fetch_add(1, std::memory_order_relaxed);

thread_local int t_depth = 0;  // open traced scopes on this thread
// Child-time accumulator of the innermost open profiled scope.
thread_local uint64_t* t_child_acc = nullptr;

}  // namespace

namespace internal {

std::atomic<uint8_t> g_scope_sinks{0};

void SetSink(uint8_t sink, bool on) {
  if (on) {
    g_scope_sinks.fetch_or(sink, std::memory_order_relaxed);
  } else {
    g_scope_sinks.fetch_and(static_cast<uint8_t>(~sink),
                            std::memory_order_relaxed);
  }
}

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace internal

void Scope::Begin(const char* name, int m, int n, int k, int64_t flops,
                  int64_t bytes) {
  name_ = name;
  if (sinks_ & internal::kProfileSink) {
    m_ = m;
    n_ = n;
    k_ = k;
    flops_ = flops;
    bytes_ = bytes;
    phase_ = prof_internal::t_phase;
    child_ns_ = 0;
    parent_child_ = t_child_acc;
    t_child_acc = &child_ns_;
  }
  if (sinks_ & internal::kTraceSink) depth_ = t_depth++;
  start_ns_ = internal::NowNs();
}

void Scope::End() {
  const uint64_t total = internal::NowNs() - start_ns_;
  if (sinks_ & internal::kHistogramSink) hist_->Observe(total * 1e-9);
  if (sinks_ & internal::kTraceSink) {
    --t_depth;
    std::lock_guard<std::mutex> lock(g_events_mu);
    if (g_events.size() < kMaxEvents) {
      g_events.push_back({name_, t_tid, depth_, start_ns_, total});
    } else {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (sinks_ & internal::kProfileSink) {
    t_child_acc = parent_child_;
    if (parent_child_ != nullptr) *parent_child_ += total;
    const uint64_t self = total > child_ns_ ? total - child_ns_ : 0;
    prof_internal::RecordOp(name_, phase_, m_, n_, k_, total, self, flops_,
                            bytes_, /*is_root=*/parent_child_ == nullptr);
  }
}

void SetTracingEnabled(bool enabled) {
  internal::SetSink(internal::kTraceSink, enabled);
}

std::vector<TraceEvent> DrainTraceEvents() {
  std::lock_guard<std::mutex> lock(g_events_mu);
  std::vector<TraceEvent> out;
  out.swap(g_events);
  return out;
}

int64_t DroppedTraceEvents() {
  return g_dropped.load(std::memory_order_relaxed);
}

namespace {

/// Nanoseconds as decimal microseconds ("12.345") — Chrome's time unit,
/// without losing the nanosecond precision.
std::string NsAsUs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

void WriteChromeTrace(const std::vector<TraceEvent>& events,
                      std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << e.name << "\",\"cat\":\"head\",\"ph\":\"X\""
       << ",\"pid\":0,\"tid\":" << e.tid << ",\"ts\":" << NsAsUs(e.start_ns)
       << ",\"dur\":" << NsAsUs(e.dur_ns)
       << ",\"args\":{\"depth\":" << e.depth << "}}";
  }
  // Rate tracks: each pair of profiler samples yields an interval-average
  // GFLOP/s and GB/s counter value stamped at the interval end.
  const std::vector<prof_internal::CounterSample> samples =
      prof_internal::CounterSamples();
  char buf[256];
  for (size_t i = 1; i < samples.size(); ++i) {
    const prof_internal::CounterSample& a = samples[i - 1];
    const prof_internal::CounterSample& b = samples[i];
    if (b.ts_ns <= a.ts_ns) continue;
    const double dt = static_cast<double>(b.ts_ns - a.ts_ns);
    const double gflops = static_cast<double>(b.cum_flops - a.cum_flops) / dt;
    const double gbps = static_cast<double>(b.cum_bytes - a.cum_bytes) / dt;
    if (!first) os << ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"achieved GFLOP/s\",\"cat\":\"head\",\"ph\":\"C\""
                  ",\"pid\":0,\"tid\":0,\"ts\":%s,\"args\":{\"gflops\":%.3f}}",
                  NsAsUs(b.ts_ns).c_str(), gflops);
    os << buf << ",";
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"moved GB/s\",\"cat\":\"head\",\"ph\":\"C\""
                  ",\"pid\":0,\"tid\":0,\"ts\":%s,\"args\":{\"gbps\":%.3f}}",
                  NsAsUs(b.ts_ns).c_str(), gbps);
    os << buf;
  }
  os << "]}\n";
}

bool WriteChromeTraceFile(const std::string& path) {
  std::ofstream os(path);
  if (!os.good()) return false;
  WriteChromeTrace(DrainTraceEvents(), os);
  return os.good();
}

}  // namespace head::obs
