// Allocation cost of the autograd hot path (ISSUE 5): arena-bumped tape
// nodes vs the per-op make_shared they replaced, and pooled tensor buffers
// vs plain heap vectors. BM_WarmTape* measure the end product — a full
// forward+backward over a small MLP-shaped graph on a warm arena+pool,
// where a steady-state step performs zero heap allocations.
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "nn/arena.h"
#include "nn/autograd.h"
#include "nn/tensor.h"
#include "nn/tensor_pool.h"

namespace {

using namespace head;

constexpr int kNodesPerIter = 256;  // roughly one minibatch tape

/// Tape-node churn through the arena: bump-allocate a region's worth of
/// nodes, then one O(region) Reset. This is the per-step cost of the tape.
void BM_ArenaNodeChurn(benchmark::State& state) {
  nn::GraphArena& arena = nn::GraphArena::ThreadLocal();
  arena.Reset();
  for (auto _ : state) {
    for (int i = 0; i < kNodesPerIter; ++i) {
      benchmark::DoNotOptimize(arena.New());
    }
    arena.Reset();
  }
  state.SetItemsProcessed(state.iterations() * kNodesPerIter);
}
BENCHMARK(BM_ArenaNodeChurn);

/// The same churn through make_shared — one control block + node heap
/// allocation and one free per op, as the pre-arena tape did.
void BM_SharedPtrNodeChurn(benchmark::State& state) {
  std::vector<std::shared_ptr<nn::internal::VarImpl>> nodes;
  nodes.reserve(kNodesPerIter);
  for (auto _ : state) {
    for (int i = 0; i < kNodesPerIter; ++i) {
      nodes.push_back(std::make_shared<nn::internal::VarImpl>());
    }
    benchmark::DoNotOptimize(nodes.data());
    nodes.clear();
  }
  state.SetItemsProcessed(state.iterations() * kNodesPerIter);
}
BENCHMARK(BM_SharedPtrNodeChurn);

/// Pooled buffer churn at a Tensor-typical size (64×64 doubles).
void BM_PoolAcquireRelease(benchmark::State& state) {
  const size_t n = 64 * 64;
  nn::TensorPool* pool = nn::TensorPool::Get();
  pool->Release(pool->Acquire(n));  // warm the bucket
  for (auto _ : state) {
    std::vector<double> buf = pool->Acquire(n);
    benchmark::DoNotOptimize(buf.data());
    pool->Release(std::move(buf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAcquireRelease);

/// The same churn straight through the heap allocator.
void BM_HeapAllocFree(benchmark::State& state) {
  const size_t n = 64 * 64;
  for (auto _ : state) {
    std::vector<double> buf;
    buf.reserve(n);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapAllocFree);

/// One forward+backward over an MLP-shaped graph on a warm arena+pool —
/// the zero-allocation steady-state training step this PR targets.
void BM_WarmTapeForwardBackward(benchmark::State& state) {
  Rng rng(7);
  nn::Var w1 = nn::Var::Param(nn::Tensor::XavierUniform(32, 64, rng));
  nn::Var b1 = nn::Var::Param(nn::Tensor::Zeros(1, 64));
  nn::Var w2 = nn::Var::Param(nn::Tensor::XavierUniform(64, 8, rng));
  nn::Var b2 = nn::Var::Param(nn::Tensor::Zeros(1, 8));
  const nn::Tensor input = nn::Tensor::Uniform(16, 32, -1.0, 1.0, rng);
  for (auto _ : state) {
    nn::ResetTape();
    const nn::Var x = nn::Var::Constant(input);
    const nn::Var h = nn::Relu(nn::Affine(x, w1, b1));
    const nn::Var loss = nn::Sum(nn::Square(nn::Affine(h, w2, b2)));
    nn::Backward(loss);
    benchmark::DoNotOptimize(w1.grad());
    for (nn::Var* p : {&w1, &b1, &w2, &b2}) p->ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WarmTapeForwardBackward);

}  // namespace

BENCHMARK_MAIN();
