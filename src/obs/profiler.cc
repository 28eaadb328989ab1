#include "obs/profiler.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "obs/perf_counters.h"

namespace head::obs {

namespace {

// ---- Per-thread aggregation shard ----
//
// Each recording thread owns one Shard: a fixed open-addressed table of
// (op, m, n, k, phase) slots. Only the owner writes; collectors read
// concurrently. Every field that both sides touch is an atomic accessed
// with relaxed ordering (the slot key is release-published / acquire-read
// so a collector that sees `op` non-null also sees the m/n/k/phase it was
// claimed with) — the whole structure is TSan-clean without a single lock
// on the record path.

constexpr size_t kSlots = 512;  // power of two; (op,shape,phase) keys
constexpr int kMaxProbe = 64;   // give up (count as dropped) after this

// Latency histogram: exact buckets for 0..3 ns, then 4 sub-buckets per
// power of two up to 2^36 ns (~69 s). Lower-edge representative values keep
// p50/p95 within 25% of truth with zero sample storage.
constexpr int kLog2Buckets = 34;
constexpr int kHistBuckets = 4 + kLog2Buckets * 4;

int HistIndex(uint64_t ns) {
  if (ns < 4) return static_cast<int>(ns);
  const int b = 63 - std::countl_zero(ns);  // floor log2, >= 2
  const int sub = static_cast<int>((ns >> (b - 2)) & 3);
  const int idx = 4 + (b - 2) * 4 + sub;
  return idx < kHistBuckets ? idx : kHistBuckets - 1;
}

uint64_t HistLowerEdge(int idx) {
  if (idx < 4) return static_cast<uint64_t>(idx);
  const int b = 2 + (idx - 4) / 4;
  const int sub = (idx - 4) % 4;
  return (uint64_t{1} << b) + static_cast<uint64_t>(sub) * (uint64_t{1} << (b - 2));
}

struct Slot {
  std::atomic<const char*> op{nullptr};  // release-published claim
  std::atomic<int> m{0}, n{0}, k{0};
  std::atomic<uint8_t> phase{0};
  std::atomic<int64_t> count{0};
  std::atomic<int64_t> root_count{0};
  std::atomic<int64_t> flops{0};
  std::atomic<int64_t> bytes{0};
  std::atomic<uint64_t> total_ns{0};
  std::atomic<uint64_t> self_ns{0};
  std::atomic<uint64_t> min_ns{UINT64_MAX};
  std::atomic<uint64_t> max_ns{0};
  std::atomic<uint64_t> hist[kHistBuckets];
};

struct Shard {
  Slot slots[kSlots];
  std::atomic<uint64_t> root_total_ns{0};
  std::atomic<uint64_t> root_self_ns{0};
  std::atomic<int64_t> records{0};
  std::atomic<int64_t> dropped{0};
  PerfCounterGroup hw;       // owner-thread-opened; fd ops work cross-thread
  uint64_t hw_session = 0;   // owner-only: last session the group was armed
};

std::mutex g_shards_mu;
std::vector<std::unique_ptr<Shard>>& Shards() {
  static auto* shards = new std::vector<std::unique_ptr<Shard>>();
  return *shards;
}

thread_local Shard* t_shard = nullptr;

std::atomic<bool> g_hw_wanted{false};
std::atomic<uint64_t> g_session_id{0};  // bumped by StartProfiling
std::atomic<uint64_t> g_session_start_ns{0};
std::atomic<uint64_t> g_session_end_ns{0};

// Cumulative flop/byte counters feeding the Chrome counter tracks.
std::atomic<int64_t> g_cum_flops{0};
std::atomic<int64_t> g_cum_bytes{0};
std::atomic<uint64_t> g_last_sample_ns{0};
constexpr uint64_t kSampleIntervalNs = 500'000;  // 2 kHz cap
constexpr size_t kMaxSamples = 1 << 16;

std::mutex g_samples_mu;
std::vector<prof_internal::CounterSample> g_samples;

std::mutex g_peaks_mu;
RooflinePeaks g_peaks;  // source stays "uncalibrated" until set/measured

Shard* GetShard() {
  Shard* shard = t_shard;
  if (shard == nullptr) {
    auto owned = std::make_unique<Shard>();
    shard = owned.get();
    std::lock_guard<std::mutex> lock(g_shards_mu);
    Shards().push_back(std::move(owned));
    t_shard = shard;
  }
  // Arm this thread's hardware counter group once per profiling session —
  // perf_event_open with pid=0 binds to the calling thread, so only the
  // shard owner can do this.
  const uint64_t session = g_session_id.load(std::memory_order_relaxed);
  if (shard->hw_session != session) {
    shard->hw_session = session;
    if (g_hw_wanted.load(std::memory_order_relaxed)) {
      if (shard->hw.open() || shard->hw.Open()) {
        shard->hw.Reset();
        shard->hw.Enable();
      }
    }
  }
  return shard;
}

uint64_t HashKey(const char* op, int m, int n, int k, uint8_t phase) {
  uint64_t h = reinterpret_cast<uintptr_t>(op);
  h ^= (static_cast<uint64_t>(static_cast<uint32_t>(m)) << 1) ^
       (static_cast<uint64_t>(static_cast<uint32_t>(n)) << 17) ^
       (static_cast<uint64_t>(static_cast<uint32_t>(k)) << 33) ^
       (static_cast<uint64_t>(phase) << 49);
  h *= 0x9e3779b97f4a7c15ULL;  // splitmix64 finisher
  h ^= h >> 31;
  return h;
}

Slot* FindSlot(Shard& shard, const char* op, int m, int n, int k,
               uint8_t phase) {
  const uint64_t h = HashKey(op, m, n, k, phase);
  for (int probe = 0; probe < kMaxProbe; ++probe) {
    Slot& slot = shard.slots[(h + static_cast<uint64_t>(probe)) & (kSlots - 1)];
    const char* cur = slot.op.load(std::memory_order_acquire);
    if (cur == op && slot.m.load(std::memory_order_relaxed) == m &&
        slot.n.load(std::memory_order_relaxed) == n &&
        slot.k.load(std::memory_order_relaxed) == k &&
        slot.phase.load(std::memory_order_relaxed) == phase) {
      return &slot;
    }
    if (cur == nullptr) {
      // Only the owning thread claims slots, so plain write-then-publish.
      slot.m.store(m, std::memory_order_relaxed);
      slot.n.store(n, std::memory_order_relaxed);
      slot.k.store(k, std::memory_order_relaxed);
      slot.phase.store(phase, std::memory_order_relaxed);
      slot.op.store(op, std::memory_order_release);
      return &slot;
    }
  }
  return nullptr;
}

void AtomicMin(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void ZeroSlotStats(Slot& slot) {
  slot.count.store(0, std::memory_order_relaxed);
  slot.root_count.store(0, std::memory_order_relaxed);
  slot.flops.store(0, std::memory_order_relaxed);
  slot.bytes.store(0, std::memory_order_relaxed);
  slot.total_ns.store(0, std::memory_order_relaxed);
  slot.self_ns.store(0, std::memory_order_relaxed);
  slot.min_ns.store(UINT64_MAX, std::memory_order_relaxed);
  slot.max_ns.store(0, std::memory_order_relaxed);
  for (auto& bucket : slot.hist) bucket.store(0, std::memory_order_relaxed);
}

void ResetAllStats() {
  std::lock_guard<std::mutex> lock(g_shards_mu);
  for (auto& shard : Shards()) {
    for (Slot& slot : shard->slots) ZeroSlotStats(slot);
    shard->root_total_ns.store(0, std::memory_order_relaxed);
    shard->root_self_ns.store(0, std::memory_order_relaxed);
    shard->records.store(0, std::memory_order_relaxed);
    shard->dropped.store(0, std::memory_order_relaxed);
  }
  g_cum_flops.store(0, std::memory_order_relaxed);
  g_cum_bytes.store(0, std::memory_order_relaxed);
  g_last_sample_ns.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> slock(g_samples_mu);
  g_samples.clear();
}

void MaybeSampleCounters(int64_t flops, int64_t bytes) {
  if (flops == 0 && bytes == 0) return;
  const int64_t cf = g_cum_flops.fetch_add(flops, std::memory_order_relaxed) + flops;
  const int64_t cb = g_cum_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  const uint64_t now = internal::NowNs();
  uint64_t last = g_last_sample_ns.load(std::memory_order_relaxed);
  if (now - last < kSampleIntervalNs) return;
  if (!g_last_sample_ns.compare_exchange_strong(last, now,
                                                std::memory_order_relaxed)) {
    return;  // another thread took this sampling slot
  }
  std::lock_guard<std::mutex> lock(g_samples_mu);
  if (g_samples.size() < kMaxSamples) g_samples.push_back({now, cf, cb});
}

const char* PhaseTag(ProfPhase phase) {
  return phase == ProfPhase::kBackward ? "bwd" : "fwd";
}

}  // namespace

namespace prof_internal {

thread_local ProfPhase t_phase = ProfPhase::kForward;

void RecordOp(const char* op, ProfPhase phase, int m, int n, int k,
              uint64_t total_ns, uint64_t self_ns, int64_t flops,
              int64_t bytes, bool is_root) {
  Shard* shard = GetShard();
  shard->records.fetch_add(1, std::memory_order_relaxed);
  if (is_root) {
    shard->root_total_ns.fetch_add(total_ns, std::memory_order_relaxed);
    shard->root_self_ns.fetch_add(self_ns, std::memory_order_relaxed);
  }
  Slot* slot = FindSlot(*shard, op, m, n, k, static_cast<uint8_t>(phase));
  if (slot == nullptr) {
    shard->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot->count.fetch_add(1, std::memory_order_relaxed);
  if (is_root) slot->root_count.fetch_add(1, std::memory_order_relaxed);
  slot->flops.fetch_add(flops, std::memory_order_relaxed);
  slot->bytes.fetch_add(bytes, std::memory_order_relaxed);
  slot->total_ns.fetch_add(total_ns, std::memory_order_relaxed);
  slot->self_ns.fetch_add(self_ns, std::memory_order_relaxed);
  AtomicMin(slot->min_ns, total_ns);
  AtomicMax(slot->max_ns, total_ns);
  slot->hist[HistIndex(total_ns)].fetch_add(1, std::memory_order_relaxed);
  MaybeSampleCounters(flops, bytes);
}

std::vector<CounterSample> CounterSamples() {
  std::lock_guard<std::mutex> lock(g_samples_mu);
  return g_samples;
}

}  // namespace prof_internal

void StartProfiling(const ProfilerOptions& options) {
  ResetAllStats();
  g_hw_wanted.store(options.hw_counters, std::memory_order_relaxed);
  g_session_id.fetch_add(1, std::memory_order_relaxed);
  // Pre-register the calling thread's shard (and arm its counters) now so
  // its allocation never lands inside the first profiled root's self time.
  // Worker threads still pay their one-time shard setup on first op.
  GetShard();
  g_session_start_ns.store(internal::NowNs(), std::memory_order_relaxed);
  g_session_end_ns.store(0, std::memory_order_relaxed);
  internal::SetSink(internal::kProfileSink, true);
}

void StopProfiling() {
  internal::SetSink(internal::kProfileSink, false);
  g_session_end_ns.store(internal::NowNs(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_shards_mu);
  for (auto& shard : Shards()) shard->hw.Disable();
}

void ResetProfile() { ResetAllStats(); }

void SetRooflinePeaks(const RooflinePeaks& peaks) {
  std::lock_guard<std::mutex> lock(g_peaks_mu);
  g_peaks = peaks;
}

namespace {

/// Portable fallback calibration: an unrolled multiply-add dependency-free
/// loop for a scalar flops floor, and a read+write sweep over an
/// out-of-cache buffer for stream bandwidth. Deliberately modest — the SIMD
/// kernel layer injects a much tighter peak via CalibrateProfilerRoofline().
RooflinePeaks MeasurePortablePeaks() {
  RooflinePeaks peaks;
  peaks.source = "portable-fallback";
  {
    constexpr int kIters = 1 << 21;
    double acc[8] = {1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7};
    const double x = 1.0000001, y = 1e-12;
    const uint64_t t0 = internal::NowNs();
    for (int i = 0; i < kIters; ++i) {
      for (double& a : acc) a = a * x + y;
    }
    const uint64_t t1 = internal::NowNs();
    double sink = 0.0;
    for (double a : acc) sink += a;
    // flops = 2 per fma-shaped update; GFLOP/s = flops / ns.
    const double flops = 2.0 * 8.0 * kIters + (sink > 1e300 ? 1 : 0);
    peaks.gflops = t1 > t0 ? flops / static_cast<double>(t1 - t0) : 0.0;
  }
  peaks.gbps = MeasurePeakBandwidthGbps();
  return peaks;
}

}  // namespace

double MeasurePeakBandwidthGbps() {
  constexpr size_t kLen = 1 << 20;  // 8 MB of doubles, past L2
  std::vector<double> src(kLen, 1.5), dst(kLen, 0.0);
  constexpr int kPasses = 4;
  const uint64_t t0 = internal::NowNs();
  for (int p = 0; p < kPasses; ++p) {
    const double s = 1.0 + 1e-9 * p;
    for (size_t i = 0; i < kLen; ++i) dst[i] = src[i] * s;
  }
  const uint64_t t1 = internal::NowNs();
  const double bytes = 2.0 * sizeof(double) * kLen * kPasses + dst[0];
  return t1 > t0 ? bytes / static_cast<double>(t1 - t0) : 0.0;
}

RooflinePeaks GetRooflinePeaks() {
  {
    std::lock_guard<std::mutex> lock(g_peaks_mu);
    if (g_peaks.gflops > 0.0) return g_peaks;
  }
  RooflinePeaks measured = MeasurePortablePeaks();
  std::lock_guard<std::mutex> lock(g_peaks_mu);
  if (g_peaks.gflops <= 0.0) g_peaks = measured;
  return g_peaks;
}

double RooflineBoundGflops(double intensity, const RooflinePeaks& peaks) {
  if (peaks.gflops <= 0.0) return 0.0;
  if (intensity <= 0.0 || peaks.gbps <= 0.0) return peaks.gflops;
  return std::min(peaks.gflops, intensity * peaks.gbps);
}

namespace {

struct MergeAcc {
  OpStats stats;
  uint64_t hist[kHistBuckets] = {0};
};

uint64_t HistQuantile(const uint64_t* hist, double q) {
  uint64_t total = 0;
  for (int i = 0; i < kHistBuckets; ++i) total += hist[i];
  if (total == 0) return 0;
  const uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total - 1)) + 1;
  uint64_t cum = 0;
  for (int i = 0; i < kHistBuckets; ++i) {
    cum += hist[i];
    if (cum >= target) return HistLowerEdge(i);
  }
  return HistLowerEdge(kHistBuckets - 1);
}

}  // namespace

ProfileReport CollectProfile() {
  ProfileReport report;
  report.roofline = GetRooflinePeaks();

  const uint64_t start = g_session_start_ns.load(std::memory_order_relaxed);
  uint64_t end = g_session_end_ns.load(std::memory_order_relaxed);
  if (end == 0) end = internal::NowNs();
  report.session_wall_ns = (start != 0 && end > start) ? end - start : 0;

  using Key = std::tuple<std::string, uint8_t, int, int, int>;
  std::map<Key, MergeAcc> merged;

  PerfCounterValues hw_sum;
  bool hw_any = false;

  std::lock_guard<std::mutex> lock(g_shards_mu);
  for (auto& shard : Shards()) {
    if (shard->records.load(std::memory_order_relaxed) > 0) ++report.threads;
    report.root_total_ns += shard->root_total_ns.load(std::memory_order_relaxed);
    report.root_self_ns += shard->root_self_ns.load(std::memory_order_relaxed);
    report.dropped_ops += shard->dropped.load(std::memory_order_relaxed);
    if (shard->hw.open()) {
      PerfCounterValues v;
      if (shard->hw.Read(&v)) {
        hw_any = true;
        hw_sum.cycles += v.cycles;
        hw_sum.instructions += v.instructions;
        hw_sum.cache_misses += v.cache_misses;
        hw_sum.branch_misses += v.branch_misses;
        hw_sum.enabled_ns += v.enabled_ns;
        hw_sum.running_ns += v.running_ns;
      }
    }
    for (Slot& slot : shard->slots) {
      const char* op = slot.op.load(std::memory_order_acquire);
      if (op == nullptr) continue;
      const int64_t count = slot.count.load(std::memory_order_relaxed);
      if (count == 0) continue;
      const Key key{op, slot.phase.load(std::memory_order_relaxed),
                    slot.m.load(std::memory_order_relaxed),
                    slot.n.load(std::memory_order_relaxed),
                    slot.k.load(std::memory_order_relaxed)};
      MergeAcc& acc = merged[key];
      OpStats& s = acc.stats;
      if (s.count == 0) {
        s.op = std::get<0>(key);
        s.phase = static_cast<ProfPhase>(std::get<1>(key));
        s.m = std::get<2>(key);
        s.n = std::get<3>(key);
        s.k = std::get<4>(key);
        s.min_ns = UINT64_MAX;
      }
      s.count += count;
      s.root_count += slot.root_count.load(std::memory_order_relaxed);
      s.total_ns += slot.total_ns.load(std::memory_order_relaxed);
      s.self_ns += slot.self_ns.load(std::memory_order_relaxed);
      s.flops += slot.flops.load(std::memory_order_relaxed);
      s.bytes += slot.bytes.load(std::memory_order_relaxed);
      s.min_ns = std::min(s.min_ns, slot.min_ns.load(std::memory_order_relaxed));
      s.max_ns = std::max(s.max_ns, slot.max_ns.load(std::memory_order_relaxed));
      for (int i = 0; i < kHistBuckets; ++i) {
        acc.hist[i] += slot.hist[i].load(std::memory_order_relaxed);
      }
    }
  }

  report.coverage =
      report.root_total_ns > 0
          ? 1.0 - static_cast<double>(report.root_self_ns) /
                      static_cast<double>(report.root_total_ns)
          : 0.0;

  report.hw.available = hw_any;
  if (hw_any) {
    report.hw.status = "ok";
    report.hw.cycles = hw_sum.cycles;
    report.hw.instructions = hw_sum.instructions;
    report.hw.cache_misses = hw_sum.cache_misses;
    report.hw.branch_misses = hw_sum.branch_misses;
    report.hw.ipc = hw_sum.Ipc();
  } else if (!g_hw_wanted.load(std::memory_order_relaxed)) {
    report.hw.status = "disabled";
  } else {
    report.hw.status = PerfCountersStatus();
  }

  report.ops.reserve(merged.size());
  for (auto& [key, acc] : merged) {
    acc.stats.p50_ns = HistQuantile(acc.hist, 0.50);
    acc.stats.p95_ns = HistQuantile(acc.hist, 0.95);
    if (acc.stats.min_ns == UINT64_MAX) acc.stats.min_ns = 0;
    report.ops.push_back(std::move(acc.stats));
  }
  std::sort(report.ops.begin(), report.ops.end(),
            [](const OpStats& a, const OpStats& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.op < b.op;
            });
  return report;
}

std::string ProfileToText(const ProfileReport& report, size_t top_n) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "== op profile: %d thread%s, wall %.3f ms, coverage %.1f%%, "
                "%" PRId64 " dropped ==\n",
                report.threads, report.threads == 1 ? "" : "s",
                report.session_wall_ns * 1e-6, report.coverage * 100.0,
                report.dropped_ops);
  out += line;
  std::snprintf(line, sizeof(line),
                "roofline: peak %.2f GFLOP/s, %.2f GB/s (%s)\n",
                report.roofline.gflops, report.roofline.gbps,
                report.roofline.source.c_str());
  out += line;
  if (report.hw.available) {
    std::snprintf(line, sizeof(line),
                  "hw: cycles=%" PRIu64 " instr=%" PRIu64 " ipc=%.2f "
                  "cache-miss=%" PRIu64 " branch-miss=%" PRIu64 "\n",
                  report.hw.cycles, report.hw.instructions, report.hw.ipc,
                  report.hw.cache_misses, report.hw.branch_misses);
  } else {
    std::snprintf(line, sizeof(line), "hw: unavailable (%s) — wall-clock only\n",
                  report.hw.status.c_str());
  }
  out += line;
  std::snprintf(line, sizeof(line),
                "%-26s %-3s %-18s %9s %10s %9s %9s %9s %10s %8s %6s %6s\n",
                "op", "ph", "shape", "count", "total_ms", "avg_us", "p50_us",
                "p95_us", "self_ms", "GFLOP/s", "AI", "%roof");
  out += line;
  size_t rows = 0;
  for (const OpStats& s : report.ops) {
    if (top_n != 0 && rows++ >= top_n) break;
    char shape[32];
    if (s.k > 0) {
      std::snprintf(shape, sizeof(shape), "%dx%dx%d", s.m, s.n, s.k);
    } else if (s.n > 0) {
      std::snprintf(shape, sizeof(shape), "%dx%d", s.m, s.n);
    } else if (s.m > 0) {
      std::snprintf(shape, sizeof(shape), "%d", s.m);
    } else {
      std::snprintf(shape, sizeof(shape), "-");
    }
    const double gflops = s.Gflops();
    const double ai = s.Intensity();
    const double bound = RooflineBoundGflops(ai, report.roofline);
    char roof[16];
    if (s.flops > 0 && bound > 0.0) {
      std::snprintf(roof, sizeof(roof), "%.1f", 100.0 * gflops / bound);
    } else {
      std::snprintf(roof, sizeof(roof), "-");
    }
    char ai_s[16];
    if (ai > 0.0) {
      std::snprintf(ai_s, sizeof(ai_s), "%.2f", ai);
    } else {
      std::snprintf(ai_s, sizeof(ai_s), "-");
    }
    std::snprintf(line, sizeof(line),
                  "%-26s %-3s %-18s %9" PRId64 " %10.3f %9.2f %9.2f %9.2f "
                  "%10.3f %8.2f %6s %6s\n",
                  s.op.c_str(), PhaseTag(s.phase), shape, s.count,
                  s.total_ns * 1e-6, s.AvgNs() * 1e-3, s.p50_ns * 1e-3,
                  s.p95_ns * 1e-3, s.self_ns * 1e-6, gflops, ai_s, roof);
    out += line;
  }
  if (top_n != 0 && report.ops.size() > top_n) {
    std::snprintf(line, sizeof(line), "... (%zu more ops)\n",
                  report.ops.size() - top_n);
    out += line;
  }
  return out;
}

std::string ProfileToJson(const ProfileReport& report) {
  std::string out;
  char buf[512];
  out += "{\"schema\":\"head-profile-v1\"";
  std::snprintf(buf, sizeof(buf),
                ",\"session_wall_ns\":%" PRIu64 ",\"root_total_ns\":%" PRIu64
                ",\"root_self_ns\":%" PRIu64
                ",\"coverage\":%.6f,\"threads\":%d,\"dropped_ops\":%" PRId64,
                report.session_wall_ns, report.root_total_ns,
                report.root_self_ns, report.coverage, report.threads,
                report.dropped_ops);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"hw\":{\"available\":%s,\"status\":\"%s\",\"cycles\":%" PRIu64
                ",\"instructions\":%" PRIu64 ",\"cache_misses\":%" PRIu64
                ",\"branch_misses\":%" PRIu64 ",\"ipc\":%.4f}",
                report.hw.available ? "true" : "false",
                JsonEscape(report.hw.status).c_str(), report.hw.cycles,
                report.hw.instructions, report.hw.cache_misses,
                report.hw.branch_misses, report.hw.ipc);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"roofline\":{\"gflops\":%.4f,\"gbps\":%.4f,\"source\":\"%s\"}",
                report.roofline.gflops, report.roofline.gbps,
                JsonEscape(report.roofline.source).c_str());
  out += buf;
  out += ",\"ops\":[";
  bool first = true;
  for (const OpStats& s : report.ops) {
    if (!first) out += ",";
    first = false;
    out += "{\"op\":\"" + JsonEscape(s.op) + "\"";
    std::snprintf(
        buf, sizeof(buf),
        ",\"phase\":\"%s\",\"m\":%d,\"n\":%d,\"k\":%d,\"count\":%" PRId64
        ",\"total_ns\":%" PRIu64 ",\"self_ns\":%" PRIu64
        ",\"avg_ns\":%.1f,\"p50_ns\":%" PRIu64 ",\"p95_ns\":%" PRIu64
        ",\"min_ns\":%" PRIu64 ",\"max_ns\":%" PRIu64 ",\"flops\":%" PRId64
        ",\"bytes\":%" PRId64 ",\"gflops\":%.4f,\"intensity\":%.4f}",
        PhaseTag(s.phase), s.m, s.n, s.k, s.count, s.total_ns, s.self_ns,
        s.AvgNs(), s.p50_ns, s.p95_ns, s.min_ns, s.max_ns, s.flops, s.bytes,
        s.Gflops(), s.Intensity());
    out += buf;
  }
  out += "]}\n";
  return out;
}

bool WriteProfileJsonFile(const std::string& path) {
  std::ofstream os(path);
  if (!os.good()) return false;
  os << ProfileToJson(CollectProfile());
  return os.good();
}

}  // namespace head::obs
