// The repository runs every forward and training step on the eager arena
// tape (nn/arena.h); it has no static execution plans. This header stays
// only so that run stamps which record the plan mode keep compiling.
#ifndef HEAD_NN_PLAN_H_
#define HEAD_NN_PLAN_H_

namespace head::nn {

/// Always false: there is no plan path, so every run stamps `plans=off`.
inline bool PlansEnabled() { return false; }

}  // namespace head::nn

#endif  // HEAD_NN_PLAN_H_
