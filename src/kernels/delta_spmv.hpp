#pragma once
// Incremental delta-dose kernels (docs/delta_engine.md).
//
// Optimizer iterations and interactive replanning change a handful of spot
// weights per step, yet dose = D·w is recomputed from scratch — every product
// streams the whole matrix even when 99% of the columns contribute exactly
// what they contributed last time.  The delta engine keeps a column-major
// (CSC) sidecar of the engine's stored matrix and *updates* an existing dose
// vector, touching only what the weight change reaches:
//
//  * DeltaMode::kBitwise — recompute exactly the rows reachable from the
//    changed columns (a column→row worklist over the sidecar), replaying the
//    bitwise tier's per-row reduction order (native_spmv.hpp).  A row's
//    result depends only on its own entries and the full weight vector, so
//    the updated dose is bitwise identical to a full compute of the new
//    weights; cost ∝ nnz of the affected rows.
//  * DeltaMode::kFast — scatter-add D[:,j]·Δw_j down the changed columns in
//    ascending column order (scalar or AVX2 axpy).  Cost ∝ nnz of the
//    changed columns — the true |Δw| bound — verified by a derived per-row
//    tolerance in the fast-tier style (tests/test_delta_engine.cpp).
//
// Everything here is stateless over its arguments; DoseEngine owns the
// sidecar and scratch (DeltaContext below), built lazily once per engine so
// EngineCache rebuilds reproduce it deterministically after eviction.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "kernels/native_spmv.hpp"
#include "sparse/csr.hpp"

namespace pd::kernels {

/// Column-major mirror of the engine's stored matrix, values widened to
/// double exactly (like the fast-tier containers).  Column c's entries live
/// at [col_ptr[c], col_ptr[c+1]) with row indices ascending.
struct CscSidecar {
  std::uint64_t num_rows = 0;
  std::uint64_t num_cols = 0;
  std::vector<std::uint32_t> col_ptr;  ///< num_cols + 1 offsets.
  std::vector<std::uint32_t> row_idx;  ///< ascending within each column.
  std::vector<double> values;

  std::uint64_t nnz() const { return row_idx.size(); }
  std::uint64_t col_nnz(std::uint64_t c) const {
    return col_ptr[c + 1] - col_ptr[c];
  }
  std::uint64_t bytes() const {
    return values.size() * sizeof(double) +
           (row_idx.size() + col_ptr.size()) * sizeof(std::uint32_t);
  }
};

/// The sidecar is the transpose of the widened matrix (sparse::transpose),
/// its arrays moved in: CSR rows ascend, so each column's rows come out
/// ascending — the deterministic traversal order both delta modes use.
inline CscSidecar build_csc_sidecar(const sparse::CsrF64& wide) {
  sparse::CsrF64 t = sparse::transpose(wide);
  CscSidecar csc;
  csc.num_rows = wide.num_rows;
  csc.num_cols = wide.num_cols;
  csc.col_ptr = std::move(t.row_ptr);
  csc.row_idx = std::move(t.col_idx);
  csc.values = std::move(t.values);
  return csc;
}

/// The bitwise-changed columns between two weight vectors and their
/// new-minus-base difference.  Comparison is on the *bits* (std::bit_cast),
/// not operator==: value-equal but bit-different weights (-0.0 vs +0.0) can
/// change product bits, and the bitwise mode's contract is exact — while
/// bit-equal entries provably contribute the same products and can be
/// skipped.
struct WeightDelta {
  std::vector<std::uint32_t> cols;  ///< ascending changed-column indices.
  std::vector<double> dw;           ///< new - base, per changed column.
};

inline WeightDelta diff_weights(std::span<const double> base,
                                std::span<const double> next) {
  PD_CHECK_MSG(base.size() == next.size(),
               "diff_weights: weight vector lengths differ");
  WeightDelta delta;
  for (std::size_t c = 0; c < base.size(); ++c) {
    if (std::bit_cast<std::uint64_t>(base[c]) !=
        std::bit_cast<std::uint64_t>(next[c])) {
      delta.cols.push_back(static_cast<std::uint32_t>(c));
      delta.dw.push_back(next[c] - base[c]);
    }
  }
  return delta;
}

/// nnz of the changed columns — the |Δw| work bound both modes report.
inline std::uint64_t csc_delta_nnz(const CscSidecar& csc,
                                   std::span<const std::uint32_t> cols) {
  std::uint64_t nnz = 0;
  for (const std::uint32_t c : cols) {
    nnz += csc.col_nnz(c);
  }
  return nnz;
}

/// Rows reachable from the changed columns, deduplicated and ascending.
/// `mark` is caller-owned scratch of num_rows bytes; it is all-zero on entry
/// and restored to all-zero before returning (only touched entries reset).
inline std::vector<std::uint32_t> csc_affected_rows(
    const CscSidecar& csc, std::span<const std::uint32_t> cols,
    std::vector<std::uint8_t>& mark) {
  if (mark.size() != csc.num_rows) {
    mark.assign(csc.num_rows, 0);
  }
  std::vector<std::uint32_t> rows;
  for (const std::uint32_t c : cols) {
    for (std::uint32_t k = csc.col_ptr[c]; k < csc.col_ptr[c + 1]; ++k) {
      const std::uint32_t r = csc.row_idx[k];
      if (mark[r] == 0) {
        mark[r] = 1;
        rows.push_back(r);
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  for (const std::uint32_t r : rows) {
    mark[r] = 0;
  }
  return rows;
}

#if defined(PD_NATIVE_F16C_DISPATCH)
/// AVX2 column axpy: four products v_k·Δw at a time (vector multiply, then
/// scalar scatter-adds — x86 has no scatter store below AVX-512, and the
/// read-modify-write must stay a single rounded add per entry anyway).  Each
/// dose entry sees exactly the scalar loop's mul-then-add (never an FMA:
/// -ffp-contract=off holds under the target attribute), so the fast mode's
/// result is independent of which variant dispatched.
__attribute__((target("avx2"))) inline void csc_col_axpy_avx2(
    const double* __restrict values, const std::uint32_t* __restrict rows,
    std::uint64_t n, double dw, double* __restrict dose) {
  const __m256d vdw = _mm256_set1_pd(dw);
  alignas(32) double prod[4];
  std::uint64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm256_store_pd(prod, _mm256_mul_pd(_mm256_loadu_pd(values + k), vdw));
    dose[rows[k]] += prod[0];
    dose[rows[k + 1]] += prod[1];
    dose[rows[k + 2]] += prod[2];
    dose[rows[k + 3]] += prod[3];
  }
  for (; k < n; ++k) {
    dose[rows[k]] += values[k] * dw;
  }
}
#endif

inline void csc_col_axpy_scalar(const double* __restrict values,
                                const std::uint32_t* __restrict rows,
                                std::uint64_t n, double dw,
                                double* __restrict dose) {
  for (std::uint64_t k = 0; k < n; ++k) {
    dose[rows[k]] += values[k] * dw;
  }
}

/// Which fast-mode axpy body csc_delta_axpy dispatches on this host.
inline const char* delta_spmv_variant_name() {
#if defined(PD_NATIVE_F16C_DISPATCH)
  if (kHaveAvx2) {
    return "avx2-axpy";
  }
#endif
  return "scalar-axpy";
}

/// DeltaMode::kFast core: dose += Σ_j D[:,j]·Δw_j over the changed columns,
/// ascending column order, ascending rows within a column.  Single-threaded
/// by design: the traversal order (and therefore the result) is fixed
/// regardless of the engine's native thread count.
inline void csc_delta_axpy(const CscSidecar& csc,
                           std::span<const std::uint32_t> cols,
                           std::span<const double> dw,
                           std::span<double> dose) {
  PD_CHECK_MSG(cols.size() == dw.size(), "csc_delta_axpy: cols/dw mismatch");
  PD_CHECK_MSG(dose.size() == csc.num_rows, "csc_delta_axpy: dose mismatch");
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const std::uint32_t c = cols[j];
    const std::uint32_t start = csc.col_ptr[c];
    const std::uint64_t n = csc.col_ptr[c + 1] - start;
#if defined(PD_NATIVE_F16C_DISPATCH)
    if (kHaveAvx2) {
      csc_col_axpy_avx2(csc.values.data() + start, csc.row_idx.data() + start,
                        n, dw[j], dose.data());
      continue;
    }
#endif
    csc_col_axpy_scalar(csc.values.data() + start, csc.row_idx.data() + start,
                        n, dw[j], dose.data());
  }
}

/// native_adaptive_item with the final stores widened to double: the bitwise
/// delta replay writes directly into the double dose vector, and for
/// Mode::kSingle an adaptive group recomputes float values for *all* rows in
/// the item (the segmented scan couples them), so unaffected group-mates are
/// rewritten with the same bits the full compute produced.  For Acc = double
/// the widening cast is the identity.
template <typename Acc, typename MatV, typename IdxT>
inline void native_adaptive_item_widen(const std::uint32_t* row_ptr,
                                       const MatV* values, const IdxT* col_idx,
                                       const Acc* x, double* dose,
                                       const AdaptiveWorkItem& item) {
  if (item.long_row != 0) {
    const std::uint32_t row = item.row_begin;
    dose[row] = static_cast<double>(native_row_product(
        values, col_idx, x, row_ptr[row], row_ptr[row + 1]));
    return;
  }
  const std::uint32_t start = row_ptr[item.row_begin];
  const std::uint32_t end = row_ptr[item.row_end];
  const unsigned count = end - start;

  Acc incl[gpusim::kWarpSize];  // lanes >= count stay unread
  for (unsigned lane = 0; lane < count; ++lane) {
    const std::uint32_t k = start + lane;
    incl[lane] = convert_value<Acc>(values[k]) * x[col_idx[k]];
  }
  gpusim::LaneMask heads = 0;
  for (std::uint32_t r = item.row_begin; r < item.row_end; ++r) {
    const std::uint32_t rs = row_ptr[r];
    if (rs < end && rs >= start && row_ptr[r + 1] > rs) {
      heads |= (gpusim::LaneMask{1} << (rs - start));
    }
  }
  native_segmented_inclusive_sum(incl, heads, count);
  for (std::uint32_t r = item.row_begin; r < item.row_end; ++r) {
    const std::uint32_t rs = row_ptr[r];
    const std::uint32_t re = row_ptr[r + 1];
    dose[r] = static_cast<double>((re > rs) ? incl[re - 1 - start] : Acc{});
  }
}

/// Engine-owned lazy state for compute_delta: the CSC sidecar, the
/// row→work-item maps the grouped families' bitwise replay needs, and
/// reusable scratch.  DoseEngine builds it once (ensure_delta_context);
/// EngineCache's deterministic MatrixSource contract makes the rebuilt
/// sidecar bit-identical after eviction.
struct DeltaContext {
  CscSidecar csc;
  std::vector<std::uint8_t> row_mark;  ///< csc_affected_rows scratch.
  /// kAdaptive: row → index of the worklist item containing it.
  std::vector<std::uint32_t> adaptive_row_item;
  /// kRowSplit: row r's plan items are [rowsplit_item_begin[r],
  /// rowsplit_item_begin[r+1]); rowsplit_split[r] indexes plan.split_rows
  /// (-1 for unsplit rows).
  std::vector<std::uint32_t> rowsplit_item_begin;
  std::vector<std::int32_t> rowsplit_split;
  /// Partial-slot scratch for split-row replay.  Stale contents are fine:
  /// a fold only reads slots the same call's items just wrote.
  std::vector<double> partials64;
  std::vector<float> partials32;
};

}  // namespace pd::kernels
