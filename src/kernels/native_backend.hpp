#pragma once
// Threaded driver for the native host backend.
//
// NativeExecutor owns the thread pool (the PR 2 caller-participating
// gpusim::ThreadPool) and runs one task per partition part.  Work is split
// with the nnz-balanced contiguous partitioners from sparse/partition.hpp:
// rows for the vector/classical families, plan items for rowsplit, work
// items for the adaptive family.  Parts own disjoint output ranges and every
// row/item is computed by exactly one part with the kernels'
// per-row-deterministic arithmetic (native_spmv.hpp), so the dose bits are
// independent of the thread count and of which thread claims which part —
// the same argument that makes the simulated kernels schedule-independent.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "gpusim/pool.hpp"
#include "kernels/classical_csr.hpp"
#include "kernels/native_spmv.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace pd::kernels {

/// Thread-count policy + lazily built pool for native SpMV execution.
/// 0 requested threads means "all hardware threads"
/// (gpusim::resolve_phase1_threads); the default of 1 keeps plain engine
/// construction free of thread spawning.
class NativeExecutor {
 public:
  void set_threads(unsigned requested) { requested_ = requested; }
  unsigned requested_threads() const { return requested_; }
  unsigned resolved_threads() const {
    return gpusim::resolve_phase1_threads(requested_);
  }

  /// Parts to split `items` units of work into: one per thread, never more
  /// than the work items (the partitioners refuse empty parts).
  std::size_t parts_for(std::size_t items) const {
    return std::max<std::size_t>(
        1, std::min<std::size_t>(resolved_threads(), items));
  }

  /// Run fn(part) for part in [0, parts).  Serial when one thread suffices;
  /// otherwise the pool's workers and the calling thread claim parts
  /// dynamically.  Exceptions propagate (first one wins, as in parallel_for).
  void run(std::size_t parts, const std::function<void(std::size_t)>& fn) {
    const unsigned threads = resolved_threads();
    if (threads <= 1 || parts <= 1) {
      for (std::size_t p = 0; p < parts; ++p) {
        fn(p);
      }
      return;
    }
    if (!pool_ || pool_->workers() != threads - 1) {
      pool_ = std::make_unique<gpusim::ThreadPool>(threads - 1);
    }
    pool_->parallel_for(parts, fn);
  }

 private:
  unsigned requested_ = 1;
  std::unique_ptr<gpusim::ThreadPool> pool_;
};

/// y = A·x with the vector family's arithmetic, threaded over the
/// nnz-balanced row partition.
template <typename MatV, typename Acc, typename IdxT>
void native_vector_spmv(const sparse::CsrMatrix<MatV, IdxT>& A,
                        std::span<const Acc> x, std::span<Acc> y,
                        NativeExecutor& exec) {
  PD_CHECK_MSG(x.size() == A.num_cols, "native vector: x size mismatch");
  PD_CHECK_MSG(y.size() == A.num_rows, "native vector: y size mismatch");
  if (A.num_rows == 0) {
    return;
  }
  const sparse::RowPartition part =
      sparse::balanced_row_partition(A, exec.parts_for(A.num_rows));
  const std::uint32_t* row_ptr = A.row_ptr.data();
  const IdxT* col_idx = A.col_idx.data();
  const MatV* values = A.values.data();
  const Acc* xp = x.data();
  Acc* yp = y.data();
  exec.run(part.parts(), [&](std::size_t p) {
    for (std::uint64_t r = part.boundaries[p]; r < part.boundaries[p + 1];
         ++r) {
      yp[r] = native_row_product(values, col_idx, xp, row_ptr[r],
                                 row_ptr[r + 1], A.num_cols);
    }
  });
}

/// Y[j] = A·X[j] for a batch of right-hand sides: the matrix row is walked
/// once per row for the whole batch (multivector_csr.hpp's scheme), each
/// column bitwise identical to native_vector_spmv.
template <typename MatV, typename Acc, typename IdxT>
void native_vector_spmv_batch(const sparse::CsrMatrix<MatV, IdxT>& A,
                              std::span<const Acc* const> xs,
                              std::span<Acc* const> ys, NativeExecutor& exec) {
  PD_CHECK_MSG(!xs.empty() && xs.size() == ys.size(),
               "native batch: need matching, non-empty batches");
  if (A.num_rows == 0) {
    return;
  }
  const std::size_t batch = xs.size();
  const sparse::RowPartition part =
      sparse::balanced_row_partition(A, exec.parts_for(A.num_rows));
  const std::uint32_t* row_ptr = A.row_ptr.data();
  const IdxT* col_idx = A.col_idx.data();
  const MatV* values = A.values.data();
  // Interleave the batch vectors column-major (x_int[c*batch + j]) so the
  // `batch` reads one non-zero triggers land on adjacent addresses instead
  // of `batch` scattered cache lines — at clinical sizes the separate
  // vectors exceed L1/L2 and the gathers dominate.  Values are untouched, so
  // the arithmetic (and its bits) is unchanged.
  std::vector<Acc> x_int(batch * A.num_cols);
  for (std::uint64_t c = 0; c < A.num_cols; ++c) {
    for (std::size_t j = 0; j < batch; ++j) {
      x_int[c * batch + j] = xs[j][c];
    }
  }
  exec.run(part.parts(), [&](std::size_t p) {
    std::vector<Acc> acc(gpusim::kWarpSize * batch);
    std::vector<Acc> out(batch);
    for (std::uint64_t r = part.boundaries[p]; r < part.boundaries[p + 1];
         ++r) {
      native_row_product_batch(values, col_idx, x_int.data(), batch,
                               row_ptr[r], row_ptr[r + 1], acc.data(),
                               out.data());
      for (std::size_t j = 0; j < batch; ++j) {
        ys[j][r] = out[j];
      }
    }
  });
}

/// y = A·x with the classical family's subwarp accumulation order.
template <typename MatV, typename Acc, typename IdxT>
void native_classical_spmv(const sparse::CsrMatrix<MatV, IdxT>& A,
                           std::span<const Acc> x, std::span<Acc> y,
                           NativeExecutor& exec) {
  PD_CHECK_MSG(x.size() == A.num_cols, "native classical: x size mismatch");
  PD_CHECK_MSG(y.size() == A.num_rows, "native classical: y size mismatch");
  if (A.num_rows == 0) {
    return;
  }
  const unsigned sub = classical_subwarp_size(A.nnz(), A.num_rows);
  const sparse::RowPartition part =
      sparse::balanced_row_partition(A, exec.parts_for(A.num_rows));
  const std::uint32_t* row_ptr = A.row_ptr.data();
  const IdxT* col_idx = A.col_idx.data();
  const MatV* values = A.values.data();
  const Acc* xp = x.data();
  Acc* yp = y.data();
  exec.run(part.parts(), [&](std::size_t p) {
    for (std::uint64_t r = part.boundaries[p]; r < part.boundaries[p + 1];
         ++r) {
      yp[r] = native_classical_row(values, col_idx, xp, row_ptr[r],
                                   row_ptr[r + 1], sub);
    }
  });
}

/// y = A·x with the adaptive family's binning; work items are partitioned by
/// their nnz so one long row cannot serialize a thread's whole share.
template <typename MatV, typename Acc, typename IdxT>
void native_adaptive_spmv(const sparse::CsrMatrix<MatV, IdxT>& A,
                          const std::vector<AdaptiveWorkItem>& worklist,
                          std::span<const Acc> x, std::span<Acc> y,
                          NativeExecutor& exec) {
  PD_CHECK_MSG(x.size() == A.num_cols, "native adaptive: x size mismatch");
  PD_CHECK_MSG(y.size() == A.num_rows, "native adaptive: y size mismatch");
  PD_CHECK_MSG(!worklist.empty(), "native adaptive: empty worklist");
  const std::uint32_t* row_ptr = A.row_ptr.data();
  std::vector<std::uint64_t> costs(worklist.size());
  for (std::size_t i = 0; i < worklist.size(); ++i) {
    costs[i] = row_ptr[worklist[i].row_end] - row_ptr[worklist[i].row_begin];
  }
  const sparse::RowPartition part =
      sparse::balanced_cost_partition(costs, exec.parts_for(worklist.size()));
  const IdxT* col_idx = A.col_idx.data();
  const MatV* values = A.values.data();
  const Acc* xp = x.data();
  Acc* yp = y.data();
  const AdaptiveWorkItem* items = worklist.data();
  exec.run(part.parts(), [&](std::size_t p) {
    for (std::uint64_t i = part.boundaries[p]; i < part.boundaries[p + 1];
         ++i) {
      native_adaptive_item(row_ptr, values, col_idx, xp, A.num_cols, yp,
                           items[i]);
    }
  });
}

/// y = A·x with the rowsplit family's two deterministic phases.  The barrier
/// between phases is NativeExecutor::run returning (all phase-1 partials
/// written) — the host analogue of the kernel's two launches.
template <typename MatV, typename Acc, typename IdxT>
void native_rowsplit_spmv(const sparse::CsrMatrix<MatV, IdxT>& A,
                          const RowSplitPlan& plan, std::span<const Acc> x,
                          std::span<Acc> y, NativeExecutor& exec) {
  PD_CHECK_MSG(x.size() == A.num_cols, "native rowsplit: x size mismatch");
  PD_CHECK_MSG(y.size() == A.num_rows, "native rowsplit: y size mismatch");
  PD_CHECK_MSG(!plan.items.empty(), "native rowsplit: empty plan");
  std::vector<Acc> partials(std::max<std::uint32_t>(plan.num_partials, 1),
                            Acc{});
  const IdxT* col_idx = A.col_idx.data();
  const MatV* values = A.values.data();
  const Acc* xp = x.data();
  Acc* yp = y.data();
  Acc* pp = partials.data();

  std::vector<std::uint64_t> costs(plan.items.size());
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    costs[i] = plan.items[i].end - plan.items[i].begin;
  }
  const sparse::RowPartition part1 =
      sparse::balanced_cost_partition(costs, exec.parts_for(plan.items.size()));
  const RowSplitPlan::WorkItem* items = plan.items.data();
  exec.run(part1.parts(), [&](std::size_t p) {
    for (std::uint64_t i = part1.boundaries[p]; i < part1.boundaries[p + 1];
         ++i) {
      native_rowsplit_item(values, col_idx, xp, A.num_cols, yp, pp,
                           items[i]);
    }
  });

  if (plan.split_rows.empty()) {
    return;
  }
  std::vector<std::uint64_t> fold_costs(plan.split_rows.size());
  for (std::size_t i = 0; i < plan.split_rows.size(); ++i) {
    fold_costs[i] = plan.split_rows[i].num_slots;
  }
  const sparse::RowPartition part2 = sparse::balanced_cost_partition(
      fold_costs, exec.parts_for(plan.split_rows.size()));
  const RowSplitPlan::SplitRow* splits = plan.split_rows.data();
  exec.run(part2.parts(), [&](std::size_t p) {
    for (std::uint64_t i = part2.boundaries[p]; i < part2.boundaries[p + 1];
         ++i) {
      yp[splits[i].row] = native_rowsplit_fold(pp, splits[i]);
    }
  });
}

}  // namespace pd::kernels
