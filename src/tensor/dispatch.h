// Row-partitioned parallel dispatch shared by the tensor kernels. Every
// kernel partitions its output rows (or flat index range) onto the global
// pool. Each output element is computed by exactly one thread with a fixed,
// partition-independent accumulation order, so results are bit-identical at
// every thread count (see docs/ARCHITECTURE.md, "Execution model").
#ifndef BOOTLEG_TENSOR_DISPATCH_H_
#define BOOTLEG_TENSOR_DISPATCH_H_

#include <algorithm>
#include <cstdint>

#include "util/thread_pool.h"

namespace bootleg::tensor::internal {

/// Minimum scalar ops worth shipping to another thread. A dispatch costs a
/// queue round-trip plus a wakeup (~10µs); chunks below ~250k scalar ops
/// lose more to that than they gain, so training-sized tensors stay serial
/// and only genuinely large kernels (inference batches, benchmarks) fan out.
inline constexpr int64_t kParallelWork = 1 << 18;

/// ParallelFor grain: rows per chunk so a chunk costs >= kParallelWork.
inline int64_t RowGrain(int64_t work_per_row) {
  return std::max<int64_t>(1,
                           kParallelWork / std::max<int64_t>(1, work_per_row));
}

/// Runs fn(lo, hi) over [0, n): fans out to the global pool only when the
/// range is large enough to amortize dispatch; otherwise invokes the functor
/// directly, paying neither the std::function conversion (which heap-allocates
/// for capturing lambdas) nor a queue round-trip. Small tensors dominate call
/// counts here, so the serial path must be free.
template <typename F>
void Dispatch(int64_t n, int64_t grain, F&& fn) {
  util::ThreadPool* pool = util::ThreadPool::Global();
  if (pool->WouldParallelize(n, grain)) {
    pool->ParallelFor(0, n, grain, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

}  // namespace bootleg::tensor::internal

#endif  // BOOTLEG_TENSOR_DISPATCH_H_
