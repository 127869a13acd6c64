#pragma once
// Compressed Sparse Row storage.
//
// The paper converts RayStation's custom format to CSR and builds all GPU
// kernels on it.  Value type V is a template parameter because the central
// idea of the paper is a *mixed-precision* CSR (binary16 values, binary64
// vectors); index type I is templated because the paper's §V analysis
// identifies narrowing the 4-byte column indices to 16 bits as the next
// optimization (our Ablation A).  Row offsets are 32-bit, as in the paper
// ("one index of four bytes per row").

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace pd::sparse {

template <typename V, typename I = std::uint32_t>
struct CsrMatrix {
  using value_type = V;
  using index_type = I;

  std::uint64_t num_rows = 0;
  std::uint64_t num_cols = 0;
  std::vector<std::uint32_t> row_ptr;  ///< num_rows + 1 offsets.
  std::vector<I> col_idx;              ///< nnz column indices, row-major.
  std::vector<V> values;               ///< nnz values, row-major.

  std::uint64_t nnz() const { return values.size(); }

  std::uint64_t row_nnz(std::uint64_t row) const {
    return row_ptr[row + 1] - row_ptr[row];
  }

  /// Storage footprint of the three arrays (the paper's Table I "size").
  std::uint64_t bytes() const {
    return row_ptr.size() * sizeof(std::uint32_t) + col_idx.size() * sizeof(I) +
           values.size() * sizeof(V);
  }

  /// Structural validation; throws pd::Error on inconsistency.
  void validate() const {
    PD_CHECK_MSG(row_ptr.size() == num_rows + 1, "CSR: row_ptr size mismatch");
    PD_CHECK_MSG(col_idx.size() == values.size(), "CSR: col/value size mismatch");
    PD_CHECK_MSG(row_ptr.empty() || row_ptr.front() == 0,
                 "CSR: row_ptr must start at 0");
    PD_CHECK_MSG(!row_ptr.empty() && row_ptr.back() == values.size(),
                 "CSR: row_ptr must end at nnz");
    for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r) {
      PD_CHECK_MSG(row_ptr[r] <= row_ptr[r + 1], "CSR: row_ptr not monotone");
    }
    for (const I c : col_idx) {
      PD_CHECK_MSG(static_cast<std::uint64_t>(c) < num_cols,
                   "CSR: column index out of range");
    }
  }

  /// Strict loader-tier validation: everything validate() checks, plus each
  /// row's column indices must be strictly ascending (sorted, no duplicate
  /// columns) — the canonical form coo_to_csr emits and every kernel assumes
  /// for its coalescing and reproducibility arguments.  File loaders call
  /// this so malformed input dies with a clear error instead of silently
  /// producing wrong dose.
  void validate_canonical() const {
    validate();
    for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r) {
      for (std::uint32_t k = row_ptr[r] + 1; k < row_ptr[r + 1]; ++k) {
        PD_CHECK_MSG(col_idx[k - 1] < col_idx[k],
                     "CSR: unsorted or duplicate column indices within a row");
      }
    }
  }
};

/// Runs fn(part) for every part, in order, on the calling thread — the
/// default runner of transpose().  Callers with a thread pool pass their own
/// runner with the same call shape (kernels::NativeExecutor::run fits).
struct SerialRunner {
  template <typename Fn>
  void operator()(std::size_t parts, Fn&& fn) const {
    for (std::size_t p = 0; p < parts; ++p) {
      fn(p);
    }
  }
};

/// Transpose of the row block [row_begin, row_end) of `m`: an
/// m.num_cols × (row_end − row_begin) CSR matrix whose row c holds column c's
/// entries, with column indices relative to row_begin.
///
/// Two-pass counting sort, CSR to CSR, over an nnz-balanced split of the
/// block into `parts` contiguous row ranges run through `run`:
///  1. each part histograms the columns of its own rows;
///  2. one serial exclusive prefix sum in (column, part) order gives each
///     part its own write cursor inside every output row;
///  3. each part scatters its entries in row order.
/// Within an output row, part p's slots precede part p+1's and each part
/// writes its rows ascending, so every output row lists its entries in
/// ascending source row — the order a serial scan produces.  The arrays are
/// therefore identical for every part count and every schedule.
///
/// The transpose is a pure permutation: values are copied, never converted
/// or combined.  Duplicate coordinates stay separate entries (in source
/// order), so transposing a half-precision matrix yields exactly the adjoint
/// of the half-rounded operator.
template <typename V, typename I, typename Run = SerialRunner>
CsrMatrix<V, I> transpose(const CsrMatrix<V, I>& m, std::uint64_t row_begin,
                          std::uint64_t row_end, std::size_t parts = 1,
                          const Run& run = Run{}) {
  PD_CHECK_MSG(row_begin <= row_end && row_end <= m.num_rows,
               "transpose: bad row range");
  const std::uint64_t block_rows = row_end - row_begin;
  PD_CHECK_MSG(block_rows <= std::uint64_t{std::numeric_limits<I>::max()} + 1,
               "transpose: row block exceeds the column index type");
  const std::uint64_t cols = m.num_cols;
  const std::uint32_t* row_ptr = m.row_ptr.data();
  const I* col_idx = m.col_idx.data();
  const V* values = m.values.data();
  const std::uint32_t base = row_ptr[row_begin];
  const std::uint32_t nnz = row_ptr[row_end] - base;
  parts = std::clamp<std::uint64_t>(parts, 1,
                                    std::max<std::uint64_t>(block_rows, 1));

  // nnz-balanced split: part p starts at the first row whose entries begin
  // at or after p/parts of the block's nnz.
  std::vector<std::uint64_t> bounds(parts + 1, row_end);
  bounds[0] = row_begin;
  for (std::size_t p = 1; p < parts; ++p) {
    const std::uint32_t target = base + static_cast<std::uint32_t>(
        std::uint64_t{nnz} * p / parts);
    bounds[p] = static_cast<std::uint64_t>(
        std::lower_bound(row_ptr + row_begin, row_ptr + row_end, target) -
        row_ptr);
  }

  // Pass 1: per-part column histograms (part-major, cols entries each).
  std::vector<std::uint32_t> cursor(parts * cols, 0);
  run(parts, [&](std::size_t p) {
    std::uint32_t* hist = cursor.data() + p * cols;
    for (std::uint32_t k = row_ptr[bounds[p]]; k < row_ptr[bounds[p + 1]];
         ++k) {
      ++hist[col_idx[k]];
    }
  });

  CsrMatrix<V, I> t;
  t.num_rows = cols;
  t.num_cols = block_rows;
  t.row_ptr.resize(cols + 1);
  std::uint32_t running = 0;
  for (std::uint64_t c = 0; c < cols; ++c) {
    t.row_ptr[c] = running;
    for (std::size_t p = 0; p < parts; ++p) {
      const std::uint32_t count = cursor[p * cols + c];
      cursor[p * cols + c] = running;
      running += count;
    }
  }
  t.row_ptr[cols] = running;

  // Pass 2: scatter.  Parts write disjoint slots.
  t.col_idx.resize(nnz);
  t.values.resize(nnz);
  I* out_cols = t.col_idx.data();
  V* out_values = t.values.data();
  run(parts, [&](std::size_t p) {
    std::uint32_t* next = cursor.data() + p * cols;
    for (std::uint64_t r = bounds[p]; r < bounds[p + 1]; ++r) {
      const I out_col = static_cast<I>(r - row_begin);
      for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const std::uint32_t slot = next[col_idx[k]]++;
        out_cols[slot] = out_col;
        out_values[slot] = values[k];
      }
    }
  });
  return t;
}

/// Transpose of the whole matrix, on the calling thread.
template <typename V, typename I>
CsrMatrix<V, I> transpose(const CsrMatrix<V, I>& m) {
  return transpose(m, 0, m.num_rows);
}

/// Common instantiations.
using CsrF64 = CsrMatrix<double>;
using CsrF32 = CsrMatrix<float>;

}  // namespace pd::sparse
