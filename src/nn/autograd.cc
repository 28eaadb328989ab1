#include "nn/autograd.h"

#include <algorithm>
#include <atomic>
#include <initializer_list>
#include <utility>

#include "common/check.h"
#include "nn/arena.h"
#include "nn/kernels/simd.h"

namespace head::nn {

using internal::VarImpl;

Var::Var(std::shared_ptr<VarImpl> owner)
    : node_(owner.get()), owner_(std::move(owner)) {}

Var Var::Param(Tensor value) {
  auto owner = std::make_shared<VarImpl>();
  owner->value = std::move(value);
  owner->requires_grad = true;
  return Var(std::move(owner));
}

Var Var::Constant(Tensor value) {
  GraphArena& arena = GraphArena::ThreadLocal();
  VarImpl* node = arena.New();
  node->value = std::move(value);
  return Var(node, arena.epoch());
}

bool Var::alive() const {
  return node_ != nullptr && (owner_ != nullptr || node_->epoch == epoch_);
}

const Tensor& Var::value() const {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  return node_->value;
}

Tensor& Var::mutable_value() {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  return node_->value;
}

const Tensor& Var::grad() const {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  if (node_->grad.empty()) {
    node_->grad = Tensor::Zeros(node_->value.rows(), node_->value.cols());
  }
  return node_->grad;
}

Tensor& Var::mutable_grad() {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  if (node_->grad.empty()) {
    node_->grad = Tensor::Zeros(node_->value.rows(), node_->value.cols());
  }
  return node_->grad;
}

bool Var::requires_grad() const {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  return node_->requires_grad;
}

void Var::ZeroGrad() {
  HEAD_CHECK(defined());
  HEAD_DCHECK(alive());
  if (!node_->grad.empty()) node_->grad.SetZero();
}

namespace {

thread_local bool g_grad_enabled = true;

/// Backward traversal stamps come from one process-wide counter so marks
/// never collide even if graphs sharing persistent leaves are differentiated
/// from different threads over the process lifetime.
std::atomic<uint64_t> g_traversal_counter{0};

uint64_t NextTraversalMark() {
  return g_traversal_counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Creates a result node from the thread's arena; records parents/backward
/// only if needed. `inputs` is a stack-backed pointer list — no per-op
/// container allocation.
Var MakeResult(const char* op, Tensor value,
               std::initializer_list<const Var*> inputs,
               void (*backward)(VarImpl&)) {
  bool needs = false;
  for (const Var* v : inputs) {
    HEAD_CHECK(v->defined());
    HEAD_DCHECK(v->alive());
    if (v->node()->requires_grad) needs = true;
  }
  if (!g_grad_enabled) needs = false;
  GraphArena& arena = GraphArena::ThreadLocal();
  VarImpl* node = arena.New();
  node->value = std::move(value);
  node->requires_grad = needs;
  node->op_name = op;
  if (needs) {
    for (const Var* v : inputs) node->parents.push_back(v->node());
    node->backward = backward;
  }
  return Var(node, arena.epoch());
}

/// Variadic-input overload (Concat ops).
Var MakeResult(const char* op, Tensor value, const std::vector<Var>& inputs,
               void (*backward)(VarImpl&)) {
  bool needs = false;
  for (const Var& v : inputs) {
    HEAD_CHECK(v.defined());
    HEAD_DCHECK(v.alive());
    if (v.node()->requires_grad) needs = true;
  }
  if (!g_grad_enabled) needs = false;
  GraphArena& arena = GraphArena::ThreadLocal();
  VarImpl* node = arena.New();
  node->value = std::move(value);
  node->requires_grad = needs;
  node->op_name = op;
  if (needs) {
    node->parents.reserve(inputs.size());
    for (const Var& v : inputs) node->parents.push_back(v.node());
    node->backward = backward;
  }
  return Var(node, arena.epoch());
}

}  // namespace

bool GradEnabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

void Backward(const Var& loss) {
  HEAD_SPAN("nn.backward");
  obs::ScopedProfPhase prof_phase(obs::ProfPhase::kBackward);
  HEAD_CHECK(loss.defined());
  HEAD_DCHECK(loss.alive());
  HEAD_CHECK_EQ(loss.value().rows(), 1);
  HEAD_CHECK_EQ(loss.value().cols(), 1);
  VarImpl* root = loss.node();
  GraphArena& arena = GraphArena::ThreadLocal();
  std::vector<VarImpl*>& order = arena.order_scratch();
  std::vector<std::pair<VarImpl*, size_t>>& stack = arena.stack_scratch();
  order.clear();  // capacity retained: reserved to the last call's node count
  stack.clear();

  // Explicit-stack DFS producing exactly the recursive post-order: a node is
  // marked when first reached (pushed), children are expanded left to right,
  // and the node is emitted once its last child subtree completes.
  const uint64_t mark = NextTraversalMark();
  root->visit_mark = mark;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    std::pair<VarImpl*, size_t>& top = stack.back();
    VarImpl* node = top.first;
    if (top.second < node->parents.size()) {
      VarImpl* parent = node->parents[top.second++];
      if (parent->visit_mark != mark) {
        parent->visit_mark = mark;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  root->AccumGrad(Tensor::Full(1, 1, 1.0));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarImpl& node = **it;
    if (node.backward != nullptr && !node.grad.empty()) {
      // Per-node attribution: the node's own loops count as self time, the
      // GEMMs its closure calls show up as nested kernel.* rows.
      HEAD_PROF_OP(node.op_name != nullptr ? node.op_name : "nn.op",
                   node.value.rows(), node.value.cols(), 0, 0, 0);
      node.backward(node);
    }
  }
  // Release intermediate gradients/graph edges so only leaf grads persist
  // and repeated Backward calls cannot double-apply backward functions.
  for (VarImpl* node : order) {
    if (node->backward != nullptr) {
      node->backward = nullptr;
      node->parents.clear();
      node->grad = Tensor();
    }
  }
}

namespace {

void MatMulBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* b = self.parents[1];
  if (a->requires_grad) a->AccumGrad(MatMulTransposeB(self.grad, b->value));
  if (b->requires_grad) b->AccumGrad(MatMulTransposeA(a->value, self.grad));
}

void AffineBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* b = self.parents[1];
  VarImpl* bias = self.parents[2];
  if (a->requires_grad) a->AccumGrad(MatMulTransposeB(self.grad, b->value));
  if (b->requires_grad) b->AccumGrad(MatMulTransposeA(a->value, self.grad));
  if (bias->requires_grad) bias->AccumGrad(SumRows(self.grad));
}

kernels::ActKind ToActKind(FusedAct act) {
  switch (act) {
    case FusedAct::kNone: return kernels::ActKind::kNone;
    case FusedAct::kRelu: return kernels::ActKind::kRelu;
    case FusedAct::kLeakyRelu: return kernels::ActKind::kLeakyRelu;
    case FusedAct::kTanh: return kernels::ActKind::kTanh;
    case FusedAct::kSigmoid: return kernels::ActKind::kSigmoid;
  }
  return kernels::ActKind::kNone;
}

void AffineActBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* b = self.parents[1];
  VarImpl* bias = self.parents[2];
  // Fold act'(y) into the upstream gradient once, then reuse the premul'd
  // gradient for all three affine grads. The derivative comes from the
  // node's *output* (y > 0 ⟺ pre > 0 for relu/leaky; tanh/sigmoid
  // derivatives are functions of y), so the pre-activation is never stored.
  const auto kind = static_cast<kernels::ActKind>(self.aux_i);
  Tensor dpre(self.grad.rows(), self.grad.cols());
  kernels::ActBackward(kind, self.aux_d, dpre.size(),
                       self.value.data().data(), self.grad.data().data(),
                       dpre.data().data());
  if (a->requires_grad) a->AccumGrad(MatMulTransposeB(dpre, b->value));
  if (b->requires_grad) b->AccumGrad(MatMulTransposeA(a->value, dpre));
  if (bias->requires_grad) bias->AccumGrad(SumRows(dpre));
}

void DualAffineBackward(VarImpl& self) {
  VarImpl* a1 = self.parents[0];
  VarImpl* b1 = self.parents[1];
  VarImpl* a2 = self.parents[2];
  VarImpl* b2 = self.parents[3];
  VarImpl* bias = self.parents[4];
  if (a1->requires_grad) a1->AccumGrad(MatMulTransposeB(self.grad, b1->value));
  if (b1->requires_grad) b1->AccumGrad(MatMulTransposeA(a1->value, self.grad));
  if (a2->requires_grad) a2->AccumGrad(MatMulTransposeB(self.grad, b2->value));
  if (b2->requires_grad) b2->AccumGrad(MatMulTransposeA(a2->value, self.grad));
  if (bias->requires_grad) bias->AccumGrad(SumRows(self.grad));
}

void AddBackward(VarImpl& self) {
  self.parents[0]->AccumGrad(self.grad);
  self.parents[1]->AccumGrad(self.grad);
}

void SubBackward(VarImpl& self) {
  self.parents[0]->AccumGrad(self.grad);
  self.parents[1]->AccumGrad(Scale(self.grad, -1.0));
}

void MulBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* b = self.parents[1];
  a->AccumGrad(Mul(self.grad, b->value));
  b->AccumGrad(Mul(self.grad, a->value));
}

void ScaleBackward(VarImpl& self) {
  self.parents[0]->AccumGrad(Scale(self.grad, self.aux_d));
}

void PassThroughBackward(VarImpl& self) {
  self.parents[0]->AccumGrad(self.grad);
}

void AddRowBroadcastBackward(VarImpl& self) {
  self.parents[0]->AccumGrad(self.grad);
  self.parents[1]->AccumGrad(SumRows(self.grad));
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  HEAD_PROF_OP("nn.MatMul", a.value().rows(), b.value().cols(),
               a.value().cols(), 0, 0);  // flops live on the nested kernel
  Tensor out = MatMul(a.value(), b.value());
  return MakeResult("nn.MatMul", std::move(out), {&a, &b}, MatMulBackward);
}

Var Affine(const Var& a, const Var& b, const Var& bias) {
  HEAD_PROF_OP("nn.Affine", a.value().rows(), b.value().cols(),
               a.value().cols(), 0, 0);
  Tensor out = Affine(a.value(), b.value(), bias.value());
  return MakeResult("nn.Affine", std::move(out), {&a, &b, &bias},
                    AffineBackward);
}

Var AffineAct(const Var& a, const Var& b, const Var& bias, FusedAct act,
              double leaky_slope) {
  if (act == FusedAct::kNone) return Affine(a, b, bias);
  HEAD_PROF_OP("nn.AffineAct", a.value().rows(), b.value().cols(),
               a.value().cols(), 0, 0);
  Tensor out = Affine(a.value(), b.value(), bias.value());
  const kernels::ActKind kind = ToActKind(act);
  kernels::ActForward(kind, leaky_slope, out.size(), out.data().data());
  Var result = MakeResult("nn.AffineAct", std::move(out), {&a, &b, &bias},
                          AffineActBackward);
  result.node()->aux_i = static_cast<int>(kind);
  result.node()->aux_d = leaky_slope;
  return result;
}

Var DualAffine(const Var& a1, const Var& b1, const Var& a2, const Var& b2,
               const Var& bias) {
  HEAD_CHECK_EQ(a1.value().cols(), b1.value().rows());
  HEAD_CHECK_EQ(a2.value().cols(), b2.value().rows());
  HEAD_CHECK_EQ(a1.value().rows(), a2.value().rows());
  HEAD_CHECK_EQ(b1.value().cols(), b2.value().cols());
  HEAD_CHECK_EQ(bias.value().rows(), 1);
  HEAD_CHECK_EQ(bias.value().cols(), b1.value().cols());
  const int m = a1.value().rows(), n = b1.value().cols();
  HEAD_PROF_OP("nn.DualAffine", m, n, a1.value().cols(), 0, 0);
  Tensor out = Tensor::Uninitialized(m, n);
  kernels::GemmNN(m, n, a1.value().cols(), a1.value().data().data(),
                  b1.value().data().data(), bias.value().data().data(),
                  kernels::GemmInit::kBias, out.data().data());
  kernels::GemmNN(m, n, a2.value().cols(), a2.value().data().data(),
                  b2.value().data().data(), /*bias=*/nullptr,
                  kernels::GemmInit::kAccumulate, out.data().data());
  return MakeResult("nn.DualAffine", std::move(out),
                    {&a1, &b1, &a2, &b2, &bias}, DualAffineBackward);
}

Var Add(const Var& a, const Var& b) {
  HEAD_PROF_OP("nn.Add", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{24} * a.value().size());
  Tensor out = Add(a.value(), b.value());
  return MakeResult("nn.Add", std::move(out), {&a, &b}, AddBackward);
}

Var Sub(const Var& a, const Var& b) {
  HEAD_PROF_OP("nn.Sub", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{24} * a.value().size());
  Tensor out = Sub(a.value(), b.value());
  return MakeResult("nn.Sub", std::move(out), {&a, &b}, SubBackward);
}

Var Mul(const Var& a, const Var& b) {
  HEAD_PROF_OP("nn.Mul", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{24} * a.value().size());
  Tensor out = Mul(a.value(), b.value());
  return MakeResult("nn.Mul", std::move(out), {&a, &b}, MulBackward);
}

Var Scale(const Var& a, double s) {
  HEAD_PROF_OP("nn.Scale", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{16} * a.value().size());
  Tensor out = Scale(a.value(), s);
  Var result = MakeResult("nn.Scale", std::move(out), {&a}, ScaleBackward);
  result.node()->aux_d = s;
  return result;
}

Var AddScalar(const Var& a, double s) {
  HEAD_PROF_OP("nn.AddScalar", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{16} * a.value().size());
  Tensor out = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] += s;
  Var result = MakeResult("nn.AddScalar", std::move(out), {&a},
                          PassThroughBackward);
  result.node()->aux_d = s;
  return result;
}

Var AddRowBroadcast(const Var& a, const Var& row) {
  HEAD_PROF_OP("nn.AddRowBroadcast", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{24} * a.value().size());
  Tensor out = AddRowBroadcast(a.value(), row.value());
  return MakeResult("nn.AddRowBroadcast", std::move(out), {&a, &row},
                    AddRowBroadcastBackward);
}

namespace {

/// Element-wise backward: g = dL/dout ⊙ DFn(x, y) with x the input value
/// and y the op's output value. Instantiated per op with a plain function,
/// so the recorded backward stays a capture-free function pointer.
template <double (*DFn)(double x, double y)>
void UnaryBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g(self.grad.rows(), self.grad.cols());
  for (int i = 0; i < g.size(); ++i) {
    g[i] = self.grad[i] * DFn(a->value[i], self.value[i]);
  }
  a->AccumGrad(std::move(g));
}

void LeakyReluBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  const double negative_slope = self.aux_d;
  Tensor g(self.grad.rows(), self.grad.cols());
  for (int i = 0; i < g.size(); ++i) {
    g[i] = self.grad[i] * (a->value[i] > 0.0 ? 1.0 : negative_slope);
  }
  a->AccumGrad(std::move(g));
}

/// Activation node whose forward is the elementwise kernel AffineAct fuses,
/// so fused and unfused activations produce the same bits.
Var ActElementwise(const char* op, const Var& a, kernels::ActKind kind,
                   double leaky_slope, void (*backward)(VarImpl&)) {
  HEAD_PROF_OP(op, a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{16} * a.value().size());
  Tensor out = a.value();
  kernels::ActForward(kind, leaky_slope, out.size(), out.data().data());
  return MakeResult(op, std::move(out), {&a}, backward);
}

double ReluD(double x, double /*y*/) { return x > 0.0 ? 1.0 : 0.0; }
double TanhD(double /*x*/, double y) { return 1.0 - y * y; }
double SigmoidD(double /*x*/, double y) { return y * (1.0 - y); }
double SquareD(double x, double /*y*/) { return 2.0 * x; }

}  // namespace

Var Relu(const Var& a) {
  return ActElementwise("nn.Relu", a, kernels::ActKind::kRelu, 0.0,
                        UnaryBackward<ReluD>);
}

Var LeakyRelu(const Var& a, double negative_slope) {
  Var result = ActElementwise("nn.LeakyRelu", a, kernels::ActKind::kLeakyRelu,
                              negative_slope, LeakyReluBackward);
  result.node()->aux_d = negative_slope;
  return result;
}

Var Tanh(const Var& a) {
  return ActElementwise("nn.Tanh", a, kernels::ActKind::kTanh, 0.0,
                        UnaryBackward<TanhD>);
}

Var Sigmoid(const Var& a) {
  return ActElementwise("nn.Sigmoid", a, kernels::ActKind::kSigmoid, 0.0,
                        UnaryBackward<SigmoidD>);
}

namespace {

void SoftmaxRowsBackward(VarImpl& self) {
  // dx = y ⊙ (dy − rowsum(dy ⊙ y))
  Tensor g(self.grad.rows(), self.grad.cols());
  for (int r = 0; r < g.rows(); ++r) {
    double dot = 0.0;
    for (int c = 0; c < g.cols(); ++c) {
      dot += self.grad.At(r, c) * self.value.At(r, c);
    }
    for (int c = 0; c < g.cols(); ++c) {
      g.At(r, c) = self.value.At(r, c) * (self.grad.At(r, c) - dot);
    }
  }
  self.parents[0]->AccumGrad(std::move(g));
}

}  // namespace

Var SoftmaxRows(const Var& a) {
  HEAD_PROF_OP("nn.SoftmaxRows", a.value().rows(), a.value().cols(), 0,
               int64_t{5} * a.value().size(),
               int64_t{16} * a.value().size());
  Tensor out = a.value();
  for (int r = 0; r < out.rows(); ++r) {
    double mx = out.At(r, 0);
    for (int c = 1; c < out.cols(); ++c) mx = std::max(mx, out.At(r, c));
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) -= mx;
  }
  kernels::Exp(out.size(), out.data().data());
  for (int r = 0; r < out.rows(); ++r) {
    double sum = 0.0;
    for (int c = 0; c < out.cols(); ++c) sum += out.At(r, c);
    for (int c = 0; c < out.cols(); ++c) out.At(r, c) /= sum;
  }
  return MakeResult("nn.SoftmaxRows", std::move(out), {&a},
                    SoftmaxRowsBackward);
}

namespace {

/// Copies the rows×cols block of `src` at (r0, c0) into `dst` at (d0, e0),
/// one contiguous row copy at a time (a single copy when both blocks span
/// whole rows). Concat and slice ops — forward and backward — move all
/// their data through here.
void CopyBlock(const Tensor& src, int r0, int c0, int rows, int cols,
               Tensor& dst, int d0, int e0) {
  HEAD_DCHECK(r0 + rows <= src.rows() && c0 + cols <= src.cols());
  HEAD_DCHECK(d0 + rows <= dst.rows() && e0 + cols <= dst.cols());
  const int ss = src.cols();
  const int ds = dst.cols();
  const double* from = src.data().data() + static_cast<size_t>(r0) * ss + c0;
  double* to = dst.data().data() + static_cast<size_t>(d0) * ds + e0;
  if (cols == ss && cols == ds) {
    std::copy_n(from, static_cast<size_t>(rows) * cols, to);
    return;
  }
  for (int r = 0; r < rows; ++r) {
    std::copy_n(from + static_cast<size_t>(r) * ss, cols,
                to + static_cast<size_t>(r) * ds);
  }
}

void ConcatColsBackward(VarImpl& self) {
  int off = 0;
  for (VarImpl* pi : self.parents) {
    const int pc = pi->value.cols();
    Tensor g = Tensor::Uninitialized(pi->value.rows(), pc);
    CopyBlock(self.grad, 0, off, g.rows(), pc, g, 0, 0);
    pi->AccumGrad(std::move(g));
    off += pc;
  }
}

void ConcatRowsBackward(VarImpl& self) {
  int off = 0;
  for (VarImpl* pi : self.parents) {
    const int pr = pi->value.rows();
    Tensor g = Tensor::Uninitialized(pr, pi->value.cols());
    CopyBlock(self.grad, off, 0, pr, g.cols(), g, 0, 0);
    pi->AccumGrad(std::move(g));
    off += pr;
  }
}

}  // namespace

Var ConcatCols(const std::vector<Var>& parts) {
  HEAD_CHECK(!parts.empty());
  const int rows = parts[0].value().rows();
  int cols = 0;
  for (const Var& p : parts) {
    HEAD_CHECK_EQ(p.value().rows(), rows);
    cols += p.value().cols();
  }
  HEAD_PROF_OP("nn.ConcatCols", rows, cols, 0, 0,
               int64_t{16} * rows * cols);
  Tensor out = Tensor::Uninitialized(rows, cols);
  int off = 0;
  for (const Var& p : parts) {
    CopyBlock(p.value(), 0, 0, rows, p.value().cols(), out, 0, off);
    off += p.value().cols();
  }
  return MakeResult("nn.ConcatCols", std::move(out), parts,
                    ConcatColsBackward);
}

Var ConcatRows(const std::vector<Var>& parts) {
  HEAD_CHECK(!parts.empty());
  const int cols = parts[0].value().cols();
  int rows = 0;
  for (const Var& p : parts) {
    HEAD_CHECK_EQ(p.value().cols(), cols);
    rows += p.value().rows();
  }
  HEAD_PROF_OP("nn.ConcatRows", rows, cols, 0, 0,
               int64_t{16} * rows * cols);
  Tensor out = Tensor::Uninitialized(rows, cols);
  int off = 0;
  for (const Var& p : parts) {
    CopyBlock(p.value(), 0, 0, p.value().rows(), cols, out, off, 0);
    off += p.value().rows();
  }
  return MakeResult("nn.ConcatRows", std::move(out), parts,
                    ConcatRowsBackward);
}

namespace {

void SliceColsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  const int c0 = self.aux_i;
  Tensor g = Tensor::Zeros(a->value.rows(), a->value.cols());
  CopyBlock(self.grad, 0, 0, self.grad.rows(), self.grad.cols(), g, 0, c0);
  a->AccumGrad(std::move(g));
}

void SliceRowsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  const int r0 = self.aux_i;
  Tensor g = Tensor::Zeros(a->value.rows(), a->value.cols());
  CopyBlock(self.grad, 0, 0, self.grad.rows(), self.grad.cols(), g, r0, 0);
  a->AccumGrad(std::move(g));
}

void ReshapeBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g(a->value.rows(), a->value.cols());
  for (int i = 0; i < g.size(); ++i) g[i] = self.grad[i];
  a->AccumGrad(std::move(g));
}

void SumBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  a->AccumGrad(Tensor::Full(a->value.rows(), a->value.cols(), self.grad[0]));
}

}  // namespace

Var SliceCols(const Var& a, int c0, int c1) {
  HEAD_CHECK(0 <= c0 && c0 < c1 && c1 <= a.value().cols());
  Tensor out = Tensor::Uninitialized(a.value().rows(), c1 - c0);
  CopyBlock(a.value(), 0, c0, out.rows(), out.cols(), out, 0, 0);
  Var result = MakeResult("nn.SliceCols", std::move(out), {&a},
                          SliceColsBackward);
  result.node()->aux_i = c0;
  return result;
}

Var SliceRows(const Var& a, int r0, int r1) {
  HEAD_CHECK(0 <= r0 && r0 < r1 && r1 <= a.value().rows());
  Tensor out = Tensor::Uninitialized(r1 - r0, a.value().cols());
  CopyBlock(a.value(), r0, 0, out.rows(), out.cols(), out, 0, 0);
  Var result = MakeResult("nn.SliceRows", std::move(out), {&a},
                          SliceRowsBackward);
  result.node()->aux_i = r0;
  return result;
}

Var Reshape(const Var& a, int rows, int cols) {
  HEAD_CHECK_EQ(a.value().size(), rows * cols);
  // Element copy into a pooled buffer (constructing from a.value().data()
  // would copy the vector outside the pool).
  Tensor out = Tensor::Uninitialized(rows, cols);
  const Tensor& av = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] = av[i];
  return MakeResult("nn.Reshape", std::move(out), {&a}, ReshapeBackward);
}

Var Sum(const Var& a) {
  HEAD_PROF_OP("nn.Sum", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{8} * a.value().size());
  double s = 0.0;
  for (int i = 0; i < a.value().size(); ++i) s += a.value()[i];
  return MakeResult("nn.Sum", Tensor::Full(1, 1, s), {&a}, SumBackward);
}

Var Mean(const Var& a) {
  HEAD_CHECK_GT(a.value().size(), 0);
  return Scale(Sum(a), 1.0 / a.value().size());
}

Var Square(const Var& a) {
  HEAD_PROF_OP("nn.Square", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{16} * a.value().size());
  Tensor out = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] *= out[i];
  return MakeResult("nn.Square", std::move(out), {&a},
                    UnaryBackward<SquareD>);
}

Var MseLoss(const Var& pred, const Var& target) {
  HEAD_CHECK_EQ(pred.value().rows(), target.value().rows());
  HEAD_CHECK_EQ(pred.value().cols(), target.value().cols());
  return Mean(Square(Sub(pred, target)));
}

namespace {

void GatherRowsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g = Tensor::Zeros(a->value.rows(), a->value.cols());
  const int cols = g.cols();
  const std::vector<int>& rows = self.indices;
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* src = self.grad.data().data() + i * cols;
    double* dst = g.data().data() + static_cast<size_t>(rows[i]) * cols;
    for (int c = 0; c < cols; ++c) dst[c] += src[c];
  }
  a->AccumGrad(std::move(g));
}

void SelectColumnPerRowBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g = Tensor::Zeros(a->value.rows(), a->value.cols());
  const std::vector<int>& cols = self.indices;
  for (int r = 0; r < g.rows(); ++r) {
    g.At(r, cols[r]) = self.grad[r];
  }
  a->AccumGrad(std::move(g));
}

void RowwiseMaxBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g = Tensor::Zeros(a->value.rows(), a->value.cols());
  const std::vector<int>& argmax = self.indices;
  for (int r = 0; r < g.rows(); ++r) {
    g.At(r, argmax[r]) = self.grad[r];
  }
  a->AccumGrad(std::move(g));
}

void SumRowsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  Tensor g(a->value.rows(), a->value.cols());
  const int cols = g.cols();
  const double* src = self.grad.data().data();
  for (int r = 0; r < g.rows(); ++r) {
    double* dst = g.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) dst[c] = src[c];
  }
  a->AccumGrad(std::move(g));
}

void ScaleRowsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  VarImpl* s = self.parents[1];
  const int rows = a->value.rows();
  const int cols = a->value.cols();
  Tensor ga(rows, cols);
  Tensor gs(rows, 1);
  for (int r = 0; r < rows; ++r) {
    const double sv = s->value[r];
    const double* gout = self.grad.data().data() + static_cast<size_t>(r) * cols;
    const double* arow = a->value.data().data() + static_cast<size_t>(r) * cols;
    double* garow = ga.data().data() + static_cast<size_t>(r) * cols;
    double dot = 0.0;
    for (int c = 0; c < cols; ++c) {
      garow[c] = gout[c] * sv;
      dot += gout[c] * arow[c];
    }
    gs[r] = dot;
  }
  a->AccumGrad(std::move(ga));
  s->AccumGrad(std::move(gs));
}

void SumRowGroupsBackward(VarImpl& self) {
  VarImpl* a = self.parents[0];
  const int group_size = self.aux_i;
  const int cols = a->value.cols();
  Tensor g(a->value.rows(), cols);
  for (int r = 0; r < g.rows(); ++r) {
    const double* src =
        self.grad.data().data() + static_cast<size_t>(r / group_size) * cols;
    double* dst = g.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) dst[c] = src[c];
  }
  a->AccumGrad(std::move(g));
}

}  // namespace

Var GatherRows(const Var& a, std::vector<int> rows) {
  const Tensor& av = a.value();
  const int cols = av.cols();
  HEAD_PROF_OP("nn.GatherRows", static_cast<int>(rows.size()), cols, 0, 0,
               int64_t{16} * static_cast<int64_t>(rows.size()) * cols);
  Tensor out = Tensor::Uninitialized(static_cast<int>(rows.size()), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int r = rows[i];
    HEAD_CHECK(r >= 0 && r < av.rows());
    const double* src = av.data().data() + static_cast<size_t>(r) * cols;
    double* dst = out.data().data() + i * cols;
    for (int c = 0; c < cols; ++c) dst[c] = src[c];
  }
  Var result = MakeResult("nn.GatherRows", std::move(out), {&a},
                          GatherRowsBackward);
  result.node()->indices = std::move(rows);
  return result;
}

Var SelectColumnPerRow(const Var& a, std::vector<int> cols) {
  const Tensor& av = a.value();
  HEAD_CHECK_EQ(static_cast<int>(cols.size()), av.rows());
  HEAD_PROF_OP("nn.SelectColumnPerRow", av.rows(), av.cols(), 0, 0,
               int64_t{16} * av.rows());
  Tensor out = Tensor::Uninitialized(av.rows(), 1);
  for (int r = 0; r < av.rows(); ++r) {
    HEAD_CHECK(cols[r] >= 0 && cols[r] < av.cols());
    out[r] = av.At(r, cols[r]);
  }
  Var result = MakeResult("nn.SelectColumnPerRow", std::move(out), {&a},
                          SelectColumnPerRowBackward);
  result.node()->indices = std::move(cols);
  return result;
}

Var RowwiseMax(const Var& a) {
  const Tensor& av = a.value();
  HEAD_CHECK_GT(av.cols(), 0);
  HEAD_PROF_OP("nn.RowwiseMax", av.rows(), av.cols(), 0, 0,
               int64_t{8} * (av.size() + av.rows()));
  Var result = MakeResult("nn.RowwiseMax", Tensor::Uninitialized(av.rows(), 1), {&a},
                          RowwiseMaxBackward);
  VarImpl* node = result.node();
  // The argmax list reuses the node's index capacity across steps instead of
  // allocating a fresh vector per call.
  node->indices.assign(av.rows(), 0);
  Tensor& out = node->value;
  for (int r = 0; r < av.rows(); ++r) {
    int best = 0;
    for (int c = 1; c < av.cols(); ++c) {
      if (av.At(r, c) > av.At(r, best)) best = c;
    }
    node->indices[r] = best;
    out[r] = av.At(r, best);
  }
  return result;
}

Var SumRows(const Var& a) {
  HEAD_PROF_OP("nn.SumRows", a.value().rows(), a.value().cols(), 0,
               int64_t{a.value().size()}, int64_t{8} * a.value().size());
  Tensor out = SumRows(a.value());
  return MakeResult("nn.SumRows", std::move(out), {&a}, SumRowsBackward);
}

Var ScaleRows(const Var& a, const Var& scale) {
  const Tensor& av = a.value();
  const Tensor& sv = scale.value();
  HEAD_CHECK_EQ(sv.rows(), av.rows());
  HEAD_CHECK_EQ(sv.cols(), 1);
  HEAD_PROF_OP("nn.ScaleRows", av.rows(), av.cols(), 0,
               int64_t{av.size()}, int64_t{24} * av.size());
  Tensor out = Tensor::Uninitialized(av.rows(), av.cols());
  const int cols = av.cols();
  for (int r = 0; r < av.rows(); ++r) {
    const double s = sv[r];
    const double* src = av.data().data() + static_cast<size_t>(r) * cols;
    double* dst = out.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) dst[c] = src[c] * s;
  }
  return MakeResult("nn.ScaleRows", std::move(out), {&a, &scale},
                    ScaleRowsBackward);
}

Var SumRowGroups(const Var& a, int group_size) {
  const Tensor& av = a.value();
  HEAD_CHECK_GT(group_size, 0);
  HEAD_CHECK_EQ(av.rows() % group_size, 0);
  const int groups = av.rows() / group_size;
  const int cols = av.cols();
  HEAD_PROF_OP("nn.SumRowGroups", av.rows(), cols, 0, int64_t{av.size()},
               int64_t{16} * av.size());
  Tensor out(groups, cols);
  for (int g = 0; g < groups; ++g) {
    double* dst = out.data().data() + static_cast<size_t>(g) * cols;
    for (int n = 0; n < group_size; ++n) {
      const double* src =
          av.data().data() + static_cast<size_t>(g * group_size + n) * cols;
      for (int c = 0; c < cols; ++c) dst[c] += src[c];
    }
  }
  Var result = MakeResult("nn.SumRowGroups", std::move(out), {&a},
                          SumRowGroupsBackward);
  result.node()->aux_i = group_size;
  return result;
}

}  // namespace head::nn
