#pragma once
// Coordinate-list storage and assembly into CSR.
//
// The Monte Carlo dose engine naturally produces one (voxel, spot, dose)
// triplet per energy deposit — COO — which is then assembled into CSR with a
// counting sort.  Duplicate (row, col) entries are summed, matching how
// repeated deposits into the same voxel accumulate.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "sparse/csr.hpp"

namespace pd::sparse {

template <typename V>
struct CooEntry {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  V value{};
};

template <typename V>
struct CooMatrix {
  std::uint64_t num_rows = 0;
  std::uint64_t num_cols = 0;
  std::vector<CooEntry<V>> entries;

  std::uint64_t nnz() const { return entries.size(); }

  void validate() const {
    for (const auto& e : entries) {
      PD_CHECK_MSG(e.row < num_rows, "COO: row index out of range");
      PD_CHECK_MSG(e.col < num_cols, "COO: column index out of range");
    }
  }
};

/// Assemble COO into CSR: counting sort by row, then per-row sort by column
/// with duplicate coordinates summed (deterministic: entries are combined in
/// ascending column order, then by input order).
template <typename V, typename I = std::uint32_t>
CsrMatrix<V, I> coo_to_csr(const CooMatrix<V>& coo) {
  coo.validate();
  PD_CHECK_MSG(coo.entries.size() < (std::uint64_t{1} << 32),
               "coo_to_csr: nnz exceeds 32-bit row offsets");

  CsrMatrix<V, I> csr;
  csr.num_rows = coo.num_rows;
  csr.num_cols = coo.num_cols;
  csr.row_ptr.assign(coo.num_rows + 1, 0);

  for (const auto& e : coo.entries) {
    ++csr.row_ptr[e.row + 1];
  }
  for (std::size_t r = 0; r < coo.num_rows; ++r) {
    csr.row_ptr[r + 1] += csr.row_ptr[r];
  }

  std::vector<std::uint32_t> cursor(csr.row_ptr.begin(), csr.row_ptr.end() - 1);
  std::vector<I> cols(coo.entries.size());
  std::vector<V> vals(coo.entries.size());
  for (const auto& e : coo.entries) {
    const std::uint32_t slot = cursor[e.row]++;
    cols[slot] = static_cast<I>(e.col);
    vals[slot] = e.value;
  }

  // Per-row: sort by column and merge duplicates.
  std::vector<std::uint32_t> new_row_ptr(csr.row_ptr.size(), 0);
  std::vector<I> out_cols;
  std::vector<V> out_vals;
  out_cols.reserve(cols.size());
  out_vals.reserve(vals.size());
  std::vector<std::pair<I, V>> row_buf;
  for (std::uint64_t r = 0; r < csr.num_rows; ++r) {
    row_buf.clear();
    for (std::uint32_t k = csr.row_ptr[r]; k < csr.row_ptr[r + 1]; ++k) {
      row_buf.emplace_back(cols[k], vals[k]);
    }
    std::stable_sort(row_buf.begin(), row_buf.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t k = 0; k < row_buf.size(); ++k) {
      if (!out_cols.empty() && out_cols.size() > new_row_ptr[r] &&
          out_cols.back() == row_buf[k].first) {
        out_vals.back() = out_vals.back() + row_buf[k].second;
      } else {
        out_cols.push_back(row_buf[k].first);
        out_vals.push_back(row_buf[k].second);
      }
    }
    new_row_ptr[r + 1] = static_cast<std::uint32_t>(out_cols.size());
  }

  csr.row_ptr = std::move(new_row_ptr);
  csr.col_idx = std::move(out_cols);
  csr.values = std::move(out_vals);
  csr.validate();
  return csr;
}

/// Expand CSR back to row-sorted COO (for round-trip tests).
template <typename V, typename I>
CooMatrix<V> csr_to_coo(const CsrMatrix<V, I>& csr) {
  CooMatrix<V> coo;
  coo.num_rows = csr.num_rows;
  coo.num_cols = csr.num_cols;
  coo.entries.reserve(csr.nnz());
  for (std::uint64_t r = 0; r < csr.num_rows; ++r) {
    for (std::uint32_t k = csr.row_ptr[r]; k < csr.row_ptr[r + 1]; ++k) {
      coo.entries.push_back(CooEntry<V>{static_cast<std::uint32_t>(r),
                                        static_cast<std::uint32_t>(csr.col_idx[k]),
                                        csr.values[k]});
    }
  }
  return coo;
}

}  // namespace pd::sparse
