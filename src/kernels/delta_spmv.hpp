#pragma once
// Incremental delta-dose kernels (docs/delta_engine.md).
//
// Optimizer iterations and interactive replanning change a handful of spot
// weights per step, yet dose = D·w is recomputed from scratch — every product
// streams the whole matrix even when 99% of the columns contribute exactly
// what they contributed last time.  The delta engine reads D's columns from
// the engine's stored Dᵀ — the CSR of Dᵀ *is* the CSC of D — and *updates* an
// existing dose vector, touching only what the weight change reaches:
//
//  * DeltaMode::kBitwise — recompute exactly the rows reachable from the
//    changed columns (a column→row worklist over Dᵀ), replaying the
//    bitwise tier's per-row reduction order (native_spmv.hpp).  A row's
//    result depends only on its own entries and the full weight vector, so
//    the updated dose is bitwise identical to a full compute of the new
//    weights; cost ∝ nnz of the affected rows.
//  * DeltaMode::kFast — scatter-add D[:,j]·Δw_j down the changed columns in
//    ascending column order (scalar or AVX2 axpy, values widened exactly on
//    load).  Cost ∝ nnz of the changed columns — the true |Δw| bound —
//    verified by a derived per-row tolerance (tests/test_delta_engine.cpp).
//
// Everything here is stateless over its arguments; DoseEngine owns Dᵀ (also
// its gradient operator) and the scratch (DeltaContext below), built lazily
// once per engine so EngineCache rebuilds reproduce them after eviction.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "kernels/native_spmv.hpp"
#include "sparse/csr.hpp"

namespace pd::kernels {

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

/// nnz of the changed columns (rows of the stored Dᵀ `t`) — the |Δw| work
/// bound both modes report.
template <typename V>
inline std::uint64_t csc_delta_nnz(const sparse::CsrMatrix<V>& t,
                                   std::span<const std::uint32_t> cols) {
  std::uint64_t nnz = 0;
  for (const std::uint32_t c : cols) {
    nnz += t.row_nnz(c);
  }
  return nnz;
}

/// Rows of D reachable from the changed columns, deduplicated and
/// ascending, and their stored nnz.
struct AffectedRows {
  std::vector<std::uint32_t> rows;
  std::uint64_t nnz = 0;
};

/// Walks the changed columns of the stored Dᵀ `t` to the rows they reach.
/// `row_ptr` is D's.  Gives up, returning nullopt, once the touched rows'
/// CSR slices — each row's nnz × `nnz_bytes` plus a 4 B row offset — reach
/// `budget_bytes` (checked per column), so a change that reaches most of
/// the matrix costs only the first part of the walk.  `mark` is
/// caller-owned scratch of one byte per row of D, all-zero on entry and
/// restored to all-zero before returning (only touched entries reset).
template <typename V>
inline std::optional<AffectedRows> csc_affected_rows(
    const sparse::CsrMatrix<V>& t, std::span<const std::uint32_t> cols,
    std::span<const std::uint32_t> row_ptr, std::uint64_t nnz_bytes,
    std::uint64_t budget_bytes, std::vector<std::uint8_t>& mark) {
  if (mark.size() != t.num_cols) {
    mark.assign(t.num_cols, 0);
  }
  AffectedRows affected;
  bool over_budget = false;
  for (const std::uint32_t c : cols) {
    for (std::uint32_t k = t.row_ptr[c]; k < t.row_ptr[c + 1]; ++k) {
      const std::uint32_t r = t.col_idx[k];
      if (mark[r] == 0) {
        mark[r] = 1;
        affected.rows.push_back(r);
        affected.nnz += row_ptr[r + 1] - row_ptr[r];
      }
    }
    over_budget =
        affected.nnz * nnz_bytes + affected.rows.size() * 4 >= budget_bytes;
    if (over_budget) {
      break;
    }
  }
  for (const std::uint32_t r : affected.rows) {
    mark[r] = 0;
  }
  if (over_budget) {
    return std::nullopt;
  }
  std::sort(affected.rows.begin(), affected.rows.end());
  return affected;
}

#if defined(PD_NATIVE_F16C_DISPATCH)
/// Four stored values widened exactly to double: every binary16 (subnormals
/// included) has one binary32 image (VCVTPH2PS), and binary32 embeds in
/// binary64.
template <typename V>
__attribute__((target("avx2,f16c"))) inline __m256d load4_as_double(
    const V* v) {
  if constexpr (std::is_same_v<V, pd::Half>) {
    return _mm256_cvtps_pd(
        _mm_cvtph_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(v))));
  } else if constexpr (std::is_same_v<V, float>) {
    return _mm256_cvtps_pd(_mm_loadu_ps(v));
  } else {
    return _mm256_loadu_pd(v);
  }
}

/// AVX2 column axpy: four products v_k·Δw at a time (vector multiply, then
/// scalar scatter-adds — x86 has no scatter store below AVX-512, and the
/// read-modify-write must stay a single rounded add per entry anyway).  Each
/// dose entry sees exactly the scalar loop's mul-then-add (never an FMA:
/// -ffp-contract=off holds under the target attribute), so the fast mode's
/// result is independent of which variant dispatched.
template <typename V>
__attribute__((target("avx2,f16c"))) inline void csc_col_axpy_avx2(
    const V* __restrict values, const std::uint32_t* __restrict rows,
    std::uint64_t n, double dw, double* __restrict dose) {
  const __m256d vdw = _mm256_set1_pd(dw);
  alignas(32) double prod[4];
  std::uint64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm256_store_pd(prod, _mm256_mul_pd(load4_as_double(values + k), vdw));
    dose[rows[k]] += prod[0];
    dose[rows[k + 1]] += prod[1];
    dose[rows[k + 2]] += prod[2];
    dose[rows[k + 3]] += prod[3];
  }
  for (; k < n; ++k) {
    dose[rows[k]] += convert_value<double>(values[k]) * dw;
  }
}

inline bool delta_axpy_has_avx2() { return kHaveAvx2 && kHaveF16c; }
#endif

template <typename V>
inline void csc_col_axpy_scalar(const V* __restrict values,
                                const std::uint32_t* __restrict rows,
                                std::uint64_t n, double dw,
                                double* __restrict dose) {
  for (std::uint64_t k = 0; k < n; ++k) {
    dose[rows[k]] += convert_value<double>(values[k]) * dw;
  }
}

/// Which fast-mode axpy body csc_delta_axpy dispatches on this host.
inline const char* delta_spmv_variant_name() {
#if defined(PD_NATIVE_F16C_DISPATCH)
  if (delta_axpy_has_avx2()) {
    return "avx2-axpy";
  }
#endif
  return "scalar-axpy";
}

/// DeltaMode::kFast core: dose += Σ_j D[:,j]·Δw_j over the changed columns
/// (rows of the stored Dᵀ `t`), ascending column order, ascending rows within
/// a column.  Single-threaded by design: the traversal order (and therefore
/// the result) is fixed regardless of the engine's native thread count.
template <typename V>
inline void csc_delta_axpy(const sparse::CsrMatrix<V>& t,
                           std::span<const std::uint32_t> cols,
                           std::span<const double> dw,
                           std::span<double> dose) {
  PD_CHECK_MSG(cols.size() == dw.size(), "csc_delta_axpy: cols/dw mismatch");
  PD_CHECK_MSG(dose.size() == t.num_cols, "csc_delta_axpy: dose mismatch");
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const std::uint32_t c = cols[j];
    const std::uint32_t start = t.row_ptr[c];
    const std::uint64_t n = t.row_ptr[c + 1] - start;
#if defined(PD_NATIVE_F16C_DISPATCH)
    if (delta_axpy_has_avx2()) {
      csc_col_axpy_avx2(t.values.data() + start, t.col_idx.data() + start, n,
                        dw[j], dose.data());
      continue;
    }
#endif
    csc_col_axpy_scalar(t.values.data() + start, t.col_idx.data() + start, n,
                        dw[j], dose.data());
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

/// Engine-owned lazy state for compute_delta besides Dᵀ: the row→work-item
/// maps the grouped families' bitwise replay needs, and reusable scratch.
/// DoseEngine builds it once (ensure_delta_context).
struct DeltaContext {
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
