#include "nn/arena.h"

#include "nn/tensor_pool.h"
#include "obs/metrics.h"

namespace head::nn {

struct GraphArena::Chunk {
  internal::VarImpl nodes[kChunkNodes];
};

GraphArena::GraphArena() = default;
GraphArena::~GraphArena() = default;

GraphArena& GraphArena::ThreadLocal() {
  thread_local GraphArena arena;
  return arena;
}

internal::VarImpl* GraphArena::New() {
  const size_t chunk = cursor_ / kChunkNodes;
  const size_t idx = cursor_ % kChunkNodes;
  if (chunk == chunks_.size()) {
    chunks_.push_back(std::make_unique<Chunk>());
    stats_.nodes_created += kChunkNodes;
    stats_.capacity = chunks_.size() * kChunkNodes;
  }
  ++cursor_;
  if (cursor_ > stats_.peak_in_use) stats_.peak_in_use = cursor_;
  internal::VarImpl* n = &chunks_[chunk]->nodes[idx];
  n->backward = nullptr;
  n->parents.clear();  // keeps capacity from the node's previous life
  n->requires_grad = false;
  if (!n->grad.empty()) n->grad = Tensor();  // buffer back to the pool
  n->epoch = epoch_;
  return n;
}

void GraphArena::Reset() {
  ++epoch_;
  // Sweep the dead region's nodes: restamp their epoch so stale handles are
  // detectably dead immediately (not only once the node is reused), and
  // return their tensor buffers to the pool NOW. Leaving buffers captive
  // until node reuse would make the next region's first acquire of each size
  // class miss (the acquire runs just before the matching node is recycled),
  // so steady state would never reach zero alloc events.
  for (size_t i = 0; i < cursor_; ++i) {
    internal::VarImpl& n = chunks_[i / kChunkNodes]->nodes[i % kChunkNodes];
    n.epoch = epoch_;
    if (!n.value.empty()) n.value = Tensor();
    if (!n.grad.empty()) n.grad = Tensor();
    n.backward = nullptr;
    n.parents.clear();  // keeps capacity for the node's next life
  }
  cursor_ = 0;
  ++stats_.resets;
}

void ResetTape() { GraphArena::ThreadLocal().Reset(); }

void PublishAllocMetrics() {
  const GraphArenaStats& a = GraphArena::ThreadLocal().stats();
  obs::GetGauge("nn_alloc_arena_nodes_created")
      .Set(static_cast<double>(a.nodes_created));
  obs::GetGauge("nn_alloc_arena_capacity").Set(static_cast<double>(a.capacity));
  obs::GetGauge("nn_alloc_arena_peak_in_use")
      .Set(static_cast<double>(a.peak_in_use));
  obs::GetGauge("nn_alloc_arena_resets").Set(static_cast<double>(a.resets));
  obs::GetGauge("nn_alloc_arena_bytes")
      .Set(static_cast<double>(a.capacity * sizeof(internal::VarImpl)));
  if (const TensorPool* pool = TensorPool::Get()) {
    const TensorPoolStats& p = pool->stats();
    obs::GetGauge("nn_alloc_pool_hits").Set(static_cast<double>(p.hits));
    obs::GetGauge("nn_alloc_pool_misses").Set(static_cast<double>(p.misses));
    obs::GetGauge("nn_alloc_pool_discarded")
        .Set(static_cast<double>(p.discarded));
    obs::GetGauge("nn_alloc_pool_bytes").Set(static_cast<double>(p.bytes_pooled));
  }
}

uint64_t AllocEvents() {
  uint64_t events = GraphArena::ThreadLocal().stats().nodes_created;
  if (const TensorPool* pool = TensorPool::Get()) {
    events += pool->stats().misses;
  }
  return events;
}

}  // namespace head::nn
