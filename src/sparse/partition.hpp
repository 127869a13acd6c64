#pragma once
// Row-block partitioning for multi-device SpMV.
//
// The paper's liver matrices are 7-11 GB each *after* half-precision
// compression; a four-beam plan does not fit one 40 GB A100 alongside the
// optimizer state.  Because y = D·x decomposes by row blocks with no
// reduction (each device owns a disjoint dose-grid slice and the full spot
// vector), a balanced contiguous row partition is all multi-GPU dose
// calculation needs.  This header provides the partitioner and the block
// extractor, with the balance and reassembly properties pinned by tests.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "sparse/csr.hpp"

namespace pd::sparse {

struct RowPartition {
  /// parts()+1 ascending boundaries; part p owns rows
  /// [boundaries[p], boundaries[p+1]).
  std::vector<std::uint64_t> boundaries;

  std::size_t parts() const {
    return boundaries.empty() ? 0 : boundaries.size() - 1;
  }
};

/// Greedy contiguous partition of arbitrary per-item costs targeting
/// total/parts per block.  Items are never split, so the imbalance is bounded
/// by the largest item.  The same greedy walk (with carried target error)
/// backs balanced_row_partition and the native backend's work-item
/// partitions (rowsplit chunks, adaptive groups).
inline RowPartition balanced_cost_partition(std::span<const std::uint64_t> costs,
                                            std::size_t parts) {
  PD_CHECK_MSG(parts > 0, "partition: need at least one part");
  PD_CHECK_MSG(parts <= costs.size(), "partition: more parts than items");
  std::uint64_t total = 0;
  for (const std::uint64_t c : costs) {
    total += c;
  }
  RowPartition out;
  out.boundaries.push_back(0);
  const double target = static_cast<double>(total) / static_cast<double>(parts);
  double carried = 0.0;
  for (std::size_t p = 1; p < parts; ++p) {
    // Advance until this part holds ~target cost, but leave at least one item
    // for every remaining part.
    std::uint64_t r = out.boundaries.back();
    const std::uint64_t max_r = costs.size() - (parts - p);
    double acc = 0.0;
    while (r < max_r && acc + carried < target) {
      acc += static_cast<double>(costs[r]);
      ++r;
    }
    r = std::max<std::uint64_t>(r, out.boundaries.back() + 1);
    carried += acc - target;
    out.boundaries.push_back(r);
  }
  out.boundaries.push_back(costs.size());
  return out;
}

/// Greedy contiguous partition targeting nnz/parts per block.  Parts never
/// split a row (rows are the unit of SpMV work and of the dose grid), so the
/// imbalance is bounded by the largest row.
template <typename V, typename I>
RowPartition balanced_row_partition(const CsrMatrix<V, I>& m,
                                    std::size_t parts) {
  PD_CHECK_MSG(parts <= m.num_rows, "partition: more parts than rows");
  std::vector<std::uint64_t> costs(m.num_rows);
  for (std::uint64_t r = 0; r < m.num_rows; ++r) {
    costs[r] = m.row_nnz(r);
  }
  return balanced_cost_partition(costs, parts);
}

/// Extract rows [row_begin, row_end) as a standalone matrix (same columns).
template <typename V, typename I>
CsrMatrix<V, I> extract_row_block(const CsrMatrix<V, I>& m,
                                  std::uint64_t row_begin,
                                  std::uint64_t row_end) {
  PD_CHECK_MSG(row_begin <= row_end && row_end <= m.num_rows,
               "extract_row_block: bad range");
  CsrMatrix<V, I> out;
  out.num_rows = row_end - row_begin;
  out.num_cols = m.num_cols;
  out.row_ptr.reserve(out.num_rows + 1);
  const std::uint32_t base = m.row_ptr[row_begin];
  for (std::uint64_t r = row_begin; r <= row_end; ++r) {
    out.row_ptr.push_back(m.row_ptr[r] - base);
  }
  out.col_idx.assign(m.col_idx.begin() + base,
                     m.col_idx.begin() + m.row_ptr[row_end]);
  out.values.assign(m.values.begin() + base,
                    m.values.begin() + m.row_ptr[row_end]);
  return out;
}

/// Inverse of extract_row_block: stack blocks sharing a column space on top
/// of each other, converting each value to VOut on the way (as
/// convert_values does, so a narrower stack needs no wide intermediate).
/// RobustPlanOptimizer uses this to fuse its K scenario matrices into one
/// engine whose single traversal yields every scenario dose; because each
/// row's result depends only on that row's entries and x, every row block of
/// the stacked product is bitwise identical to the standalone per-block
/// product (for warp-per-row kernels).
template <typename VOut, typename V, typename I>
CsrMatrix<VOut, I> vstack_rows_as(std::span<const CsrMatrix<V, I>> blocks) {
  PD_CHECK_MSG(!blocks.empty(), "vstack_rows: need at least one block");
  CsrMatrix<VOut, I> out;
  out.num_cols = blocks.front().num_cols;
  std::uint64_t total_rows = 0;
  std::uint64_t total_nnz = 0;
  for (const auto& b : blocks) {
    PD_CHECK_MSG(b.num_cols == out.num_cols, "vstack_rows: column mismatch");
    total_rows += b.num_rows;
    total_nnz += b.nnz();
  }
  PD_CHECK_MSG(total_nnz <= std::numeric_limits<std::uint32_t>::max(),
               "vstack_rows: combined nnz exceeds 32-bit row offsets");
  out.num_rows = total_rows;
  out.row_ptr.reserve(total_rows + 1);
  out.row_ptr.push_back(0);
  out.col_idx.reserve(total_nnz);
  out.values.reserve(total_nnz);
  for (const auto& b : blocks) {
    const std::uint32_t base = out.row_ptr.back();
    for (std::uint64_t r = 1; r <= b.num_rows; ++r) {
      out.row_ptr.push_back(base + b.row_ptr[r]);
    }
    out.col_idx.insert(out.col_idx.end(), b.col_idx.begin(), b.col_idx.end());
    for (const V& v : b.values) {
      out.values.push_back(static_cast<VOut>(static_cast<double>(v)));
    }
  }
  return out;
}

template <typename V, typename I>
CsrMatrix<V, I> vstack_rows(std::span<const CsrMatrix<V, I>> blocks) {
  return vstack_rows_as<V>(blocks);
}

/// Largest part nnz relative to the ideal nnz/parts (1.0 == perfect).
template <typename V, typename I>
double partition_imbalance(const CsrMatrix<V, I>& m, const RowPartition& p) {
  PD_CHECK_MSG(p.parts() > 0, "partition_imbalance: empty partition");
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < p.parts(); ++i) {
    const std::uint64_t nnz =
        m.row_ptr[p.boundaries[i + 1]] - m.row_ptr[p.boundaries[i]];
    worst = std::max(worst, nnz);
  }
  const double ideal = static_cast<double>(m.nnz()) /
                       static_cast<double>(p.parts());
  return ideal > 0.0 ? static_cast<double>(worst) / ideal : 1.0;
}

}  // namespace pd::sparse
