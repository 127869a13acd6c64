#include "kernels/dose_engine.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/threadcheck.hpp"
#include "kernels/classical_csr.hpp"
#include "kernels/multivector_csr.hpp"
#include "kernels/rsformat_spmv.hpp"
#include "kernels/sellcs_spmv.hpp"
#include "kernels/tuner.hpp"
#include "kernels/vector_csr.hpp"
#include "sparse/convert.hpp"
#include "sparse/partition.hpp"

namespace pd::kernels {

DoseEngine::DoseEngine(Mode mode, Family family, Backend backend,
                       unsigned threads_per_block, gpusim::DeviceSpec device)
    : mode_(mode),
      family_(family),
      backend_(backend),
      threads_per_block_(threads_per_block),
      gpu_(std::make_unique<gpusim::Gpu>(std::move(device))) {
  if (gpusim::simcheck_env_enabled()) {
    gpu_->enable_check();
  }
}

DoseEngine::DoseEngine(sparse::CsrF64 matrix, gpusim::DeviceSpec device,
                       Mode mode, unsigned threads_per_block, Family family,
                       Backend backend)
    : DoseEngine(mode, family, backend, threads_per_block, std::move(device)) {
  matrix.validate();
  analyze_structure(matrix);
  switch (mode_) {
    case Mode::kHalfDouble:
      half_matrix_ = sparse::convert_values<pd::Half>(matrix);
      break;
    case Mode::kSingle:
      single_matrix_ = sparse::convert_values<float>(matrix);
      break;
    case Mode::kDouble:
      double_matrix_ = std::move(matrix);
      break;
  }
}

DoseEngine::DoseEngine(std::span<const sparse::CsrF64> row_blocks,
                       gpusim::DeviceSpec device, Mode mode,
                       unsigned threads_per_block, Family family,
                       Backend backend)
    : DoseEngine(mode, family, backend, threads_per_block, std::move(device)) {
  for (const sparse::CsrF64& block : row_blocks) {
    block.validate();
  }
  switch (mode_) {
    case Mode::kHalfDouble:
      half_matrix_ = sparse::vstack_rows_as<pd::Half>(row_blocks);
      analyze_structure(half_matrix_);
      break;
    case Mode::kSingle:
      single_matrix_ = sparse::vstack_rows_as<float>(row_blocks);
      analyze_structure(single_matrix_);
      break;
    case Mode::kDouble:
      double_matrix_ = sparse::vstack_rows(row_blocks);
      analyze_structure(double_matrix_);
      break;
  }
}

template <typename V>
void DoseEngine::analyze_structure(const sparse::CsrMatrix<V>& matrix) {
  stats_ = sparse::compute_stats(matrix);
  switch (family_) {
    case Family::kRowSplit:
      rowsplit_plan_ = build_row_split_plan(matrix);
      break;
    case Family::kAdaptive:
      adaptive_worklist_ = build_adaptive_worklist(matrix);
      break;
    default:
      break;
  }
}

DoseEngine DoseEngine::transposed(std::uint64_t row_begin,
                                  std::uint64_t row_end) {
  DoseEngine t(mode_, family_, backend_, threads_per_block_, gpu_->spec());
  t.set_engine_options(engine_options());
  t.native_.set_threads(native_.requested_threads());
  const std::size_t parts = native_.resolved_threads();
  const auto run = [this](std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
    native_.run(n, fn);
  };
  switch (mode_) {
    case Mode::kHalfDouble:
      t.half_matrix_ =
          sparse::transpose(half_matrix_, row_begin, row_end, parts, run);
      t.analyze_structure(t.half_matrix_);
      break;
    case Mode::kSingle:
      t.single_matrix_ =
          sparse::transpose(single_matrix_, row_begin, row_end, parts, run);
      t.analyze_structure(t.single_matrix_);
      break;
    case Mode::kDouble:
      t.double_matrix_ =
          sparse::transpose(double_matrix_, row_begin, row_end, parts, run);
      t.analyze_structure(t.double_matrix_);
      break;
  }
  return t;
}

DoseEngine::~DoseEngine() = default;

void DoseEngine::set_engine_options(const gpusim::EngineOptions& opts) {
  gpu_->set_engine(opts);
}

const gpusim::EngineOptions& DoseEngine::engine_options() const {
  return gpu_->engine();
}

void DoseEngine::enable_check(const gpusim::CheckConfig& cfg) {
  gpu_->enable_check(cfg);
}

void DoseEngine::disable_check() { gpu_->disable_check(); }

bool DoseEngine::check_enabled() const { return gpu_->check_enabled(); }

const gpusim::CheckReport& DoseEngine::check_report() const {
  return gpu_->check_report();
}

template <typename F>
decltype(auto) DoseEngine::with_stored(F&& f) const {
  switch (mode_) {
    case Mode::kHalfDouble:
      return f(half_matrix_);
    case Mode::kSingle:
      return f(single_matrix_);
    case Mode::kDouble:
      break;
  }
  return f(double_matrix_);
}

sparse::CsrF64 DoseEngine::stored_matrix_as_double() const {
  return with_stored(
      [](const auto& m) { return sparse::convert_values<double>(m); });
}

DoseEngine::FastFormat DoseEngine::ensure_fast_storage(FastFormat format) {
  if (format == FastFormat::kAuto) {
    format = auto_fast_format_;
  }
  // σ == 0 ("all rows") resolves against the row count so every SELL builder
  // receives a positive multiple of C.
  const auto resolved_sigma = [&]() -> std::uint32_t {
    if (fast_sell_sigma_ != 0) {
      return fast_sell_sigma_;
    }
    const std::uint64_t rows = std::max<std::uint64_t>(stats_.rows, 1);
    const std::uint64_t up =
        (rows + fast_sell_c_ - 1) / fast_sell_c_ * fast_sell_c_;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(up, std::numeric_limits<std::uint32_t>::max() /
                                        fast_sell_c_ * fast_sell_c_));
  };
  switch (format) {
    case FastFormat::kRsFormat:
      if (!rs_matrix_) {
        rs_matrix_ = std::make_unique<rsformat::RsMatrix>(
            rsformat::RsMatrix::from_csr(stored_matrix_as_double()));
      }
      return format;
    case FastFormat::kSellCs:
      if (!sell_matrix_) {
        // Float values: exact for half-widened storage, 2^-24 relative error
        // otherwise — both inside the fast tier's tolerance bound.
        sell_matrix_ = std::make_unique<sparse::SellCsMatrix<float>>(
            sparse::csr_to_sellcs(
                sparse::convert_values<float>(stored_matrix_as_double()),
                fast_sell_c_, resolved_sigma()));
      }
      return format;
    case FastFormat::kSellCsQ:
      if (!sellq_matrix_) {
        sellq_matrix_ = std::make_unique<sparse::SellCsQMatrix>(
            sparse::csr_to_sellcs_q(stored_matrix_as_double(), fast_sell_c_,
                                    resolved_sigma()));
      }
      return format;
    case FastFormat::kAuto:
      break;  // auto_fast_format_ is always concrete (apply_tuned).
  }
  throw pd::Error("DoseEngine: unresolved fast format");
}

void DoseEngine::set_tier(Tier tier, FastFormat format) {
  if (tier == Tier::kFast) {
    format = ensure_fast_storage(format);
  }
  default_spec_ = {tier, format};
}

void apply_tuned(DoseEngine& engine, const TunedConfig& config) {
  PD_CHECK_MSG(config.format != DoseEngine::FastFormat::kAuto,
               "apply_tuned: kAuto must resolve to a concrete format");
  PD_CHECK_MSG(config.sell_c > 0,
               "apply_tuned: SELL chunk height must be positive");
  PD_CHECK_MSG(config.sell_sigma % config.sell_c == 0,
               "apply_tuned: SELL σ must be 0 (all rows) or a multiple of C");
  if (config.sell_c != engine.fast_sell_c_ ||
      config.sell_sigma != engine.fast_sell_sigma_) {
    // The next fast compute rebuilds the SELL containers with the new
    // geometry; rsformat has no geometry knob and stays cached.
    engine.sell_matrix_.reset();
    engine.sellq_matrix_.reset();
  }
  engine.fast_sell_c_ = config.sell_c;
  engine.fast_sell_sigma_ = config.sell_sigma;
  engine.fast_threads_ = config.fast_threads;
  engine.auto_fast_format_ = config.format;
}

const rsformat::RsMatrix& DoseEngine::fast_rs_matrix() const {
  PD_CHECK_MSG(rs_matrix_ != nullptr,
               "DoseEngine: rsformat fast storage not built "
               "(no kRsFormat fast compute yet)");
  return *rs_matrix_;
}

const sparse::SellCsMatrix<float>& DoseEngine::fast_sell_matrix() const {
  PD_CHECK_MSG(sell_matrix_ != nullptr,
               "DoseEngine: SELL-C-σ fast storage not built "
               "(no kSellCs fast compute yet)");
  return *sell_matrix_;
}

const sparse::SellCsQMatrix& DoseEngine::fast_sellq_matrix() const {
  PD_CHECK_MSG(sellq_matrix_ != nullptr,
               "DoseEngine: quantized SELL-C-σ fast storage not built "
               "(no kSellCsQ fast compute yet)");
  return *sellq_matrix_;
}

NativeExecutor DoseEngine::fast_executor() const {
  return native_.at_threads(
      fast_threads_.value_or(native_.requested_threads()));
}

void DoseEngine::ensure_delta_context() {
  if (delta_) {
    return;
  }
  transpose_ = std::make_unique<DoseEngine>(transposed(0, num_voxels()));
  auto ctx = std::make_unique<DeltaContext>();
  switch (family_) {
    case Family::kAdaptive: {
      // Items partition the row space in order; invert to row → item.
      ctx->adaptive_row_item.resize(stats_.rows);
      for (std::size_t i = 0; i < adaptive_worklist_.size(); ++i) {
        const AdaptiveWorkItem& item = adaptive_worklist_[i];
        const std::uint32_t end =
            item.long_row != 0 ? item.row_begin + 1 : item.row_end;
        for (std::uint32_t r = item.row_begin; r < end; ++r) {
          ctx->adaptive_row_item[r] = static_cast<std::uint32_t>(i);
        }
      }
      break;
    }
    case Family::kRowSplit: {
      // The plan is built row by row, so each row's items are contiguous and
      // ascending; record the per-row item range and split-row index.
      ctx->rowsplit_item_begin.assign(stats_.rows + 1, 0);
      for (const RowSplitPlan::WorkItem& item : rowsplit_plan_.items) {
        ++ctx->rowsplit_item_begin[item.row + 1];
      }
      for (std::uint64_t r = 0; r < stats_.rows; ++r) {
        ctx->rowsplit_item_begin[r + 1] += ctx->rowsplit_item_begin[r];
      }
      ctx->rowsplit_split.assign(stats_.rows, -1);
      for (std::size_t s = 0; s < rowsplit_plan_.split_rows.size(); ++s) {
        ctx->rowsplit_split[rowsplit_plan_.split_rows[s].row] =
            static_cast<std::int32_t>(s);
      }
      // Stale-safe scratch: a replayed row folds only the slots its own
      // items just wrote, so the buffers are sized once and never cleared.
      ctx->partials64.resize(rowsplit_plan_.num_partials);
      ctx->partials32.resize(rowsplit_plan_.num_partials);
      break;
    }
    default:
      break;
  }
  delta_ = std::move(ctx);
}

DoseEngine& DoseEngine::csc_sidecar() {
  ensure_delta_context();
  return *transpose_;
}

template <typename MatV, typename Acc>
void DoseEngine::delta_recompute_rows(const sparse::CsrMatrix<MatV>& A,
                                      std::span<const Acc> x,
                                      std::span<const std::uint32_t> rows,
                                      std::span<double> dose) {
  const std::uint32_t* row_ptr = A.row_ptr.data();
  const MatV* values = A.values.data();
  const auto* col_idx = A.col_idx.data();
  if (family_ == Family::kAdaptive) {
    // Short-row groups recompute as whole items (the segmented scan couples
    // the group); unaffected group-mates are rewritten with identical bits.
    // `rows` ascends and items partition the row space, so the item indices
    // come out nondecreasing — dedupe by skipping repeats.
    std::vector<std::uint32_t> items;
    items.reserve(rows.size());
    for (const std::uint32_t r : rows) {
      const std::uint32_t i = delta_->adaptive_row_item[r];
      if (items.empty() || items.back() != i) {
        items.push_back(i);
      }
    }
    std::vector<std::uint64_t> costs(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const AdaptiveWorkItem& item = adaptive_worklist_[items[i]];
      const std::uint32_t end =
          item.long_row != 0 ? item.row_begin + 1 : item.row_end;
      costs[i] = row_ptr[end] - row_ptr[item.row_begin];
    }
    const sparse::RowPartition part =
        sparse::balanced_cost_partition(costs, native_.parts_for(items.size()));
    native_.run(part.parts(), [&](std::size_t p) {
      for (std::uint64_t i = part.boundaries[p]; i < part.boundaries[p + 1];
           ++i) {
        native_adaptive_item_widen(row_ptr, values, col_idx, x.data(),
                                   A.num_cols, dose.data(),
                                   adaptive_worklist_[items[i]]);
      }
    });
    return;
  }
  std::vector<std::uint64_t> costs(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    costs[i] = row_ptr[rows[i] + 1] - row_ptr[rows[i]];
  }
  const sparse::RowPartition part =
      sparse::balanced_cost_partition(costs, native_.parts_for(rows.size()));
  const unsigned sub = family_ == Family::kClassical
                           ? classical_subwarp_size(stats_.nnz, stats_.rows)
                           : 0;
  Acc* partials = nullptr;
  if (family_ == Family::kRowSplit) {
    if constexpr (std::is_same_v<Acc, float>) {
      partials = delta_->partials32.data();
    } else {
      partials = delta_->partials64.data();
    }
  }
  native_.run(part.parts(), [&](std::size_t p) {
    for (std::uint64_t i = part.boundaries[p]; i < part.boundaries[p + 1];
         ++i) {
      const std::uint32_t r = rows[i];
      switch (family_) {
        case Family::kVector:
          dose[r] = static_cast<double>(
              native_row_product(values, col_idx, x.data(), row_ptr[r],
                                 row_ptr[r + 1], A.num_cols));
          break;
        case Family::kClassical:
          dose[r] = static_cast<double>(native_classical_row(
              values, col_idx, x.data(), row_ptr[r], row_ptr[r + 1], sub));
          break;
        case Family::kRowSplit: {
          // Replay the row's phase-1 items (distinct partial slots per row,
          // so concurrent rows never collide), then its phase-2 fold.
          Acc direct{};
          for (std::uint32_t it = delta_->rowsplit_item_begin[r];
               it < delta_->rowsplit_item_begin[r + 1]; ++it) {
            const RowSplitPlan::WorkItem& item = rowsplit_plan_.items[it];
            const Acc total =
                native_row_product(values, col_idx, x.data(), item.begin,
                                   item.end, A.num_cols);
            if (item.partial_slot < 0) {
              direct = total;
            } else {
              partials[item.partial_slot] = total;
            }
          }
          const std::int32_t s = delta_->rowsplit_split[r];
          dose[r] = static_cast<double>(
              s < 0 ? direct
                    : native_rowsplit_fold(
                          static_cast<const Acc*>(partials),
                          rowsplit_plan_.split_rows[static_cast<std::size_t>(
                              s)]));
          break;
        }
        case Family::kAdaptive:
          break;  // handled above
      }
    }
  });
}

DoseEngine::DeltaRun DoseEngine::apply_delta(
    std::span<double> dose, std::span<const double> base_weights,
    std::span<const double> new_weights, DeltaMode mode) {
  pd::threadcheck::note_compute("DoseEngine::apply_delta");
  PD_CHECK_MSG(dose.size() == stats_.rows,
               "DoseEngine::apply_delta: dose length mismatch");
  PD_CHECK_MSG(base_weights.size() == stats_.cols,
               "DoseEngine::apply_delta: base weight count mismatch");
  PD_CHECK_MSG(new_weights.size() == stats_.cols,
               "DoseEngine::apply_delta: new weight count mismatch");
  ensure_delta_context();
  const WeightDelta delta = diff_weights(base_weights, new_weights);
  DeltaRun run{mode, delta.cols.size()};
  // The update streams the changed columns' row indices in Dᵀ (4 B per
  // entry) and then the touched rows' CSR slices.  Once that reaches a full
  // product's bytes (the tuner's csr_bytes model) it is no cheaper than the
  // full compute, whose one-pass kernel also streams faster per byte than
  // the row-by-row replay, so the walk stops at that budget and the full
  // compute runs; by the delta contract its bits are the same
  // (docs/delta_engine.md).
  const std::span<const std::uint32_t> row_ptr = with_stored(
      [](const auto& A) { return std::span<const std::uint32_t>(A.row_ptr); });
  const std::uint64_t value_bytes =
      with_stored([](const auto& A) { return sizeof(A.values[0]); });
  const std::uint64_t full_bytes = stats_.csr_bytes(value_bytes, 4);
  std::optional<AffectedRows> affected;
  transpose_->with_stored([&](const auto& t) {
    run.delta_nnz = csc_delta_nnz(t, delta.cols);
    // touched_rows stays 0 in fast mode: the axpy never builds a row
    // worklist (that pass would cost as much as the update itself).
    if (mode == DeltaMode::kFast) {
      csc_delta_axpy(t, delta.cols, delta.dw, dose);
    } else if (4 * run.delta_nnz < full_bytes) {
      affected = csc_affected_rows(t, delta.cols, row_ptr, value_bytes + 4,
                                   full_bytes - 4 * run.delta_nnz,
                                   delta_->row_mark);
    }
  });
  if (mode == DeltaMode::kFast) {
    return run;
  }
  if (!affected) {
    run.full_compute = true;
    run.touched_rows = stats_.rows;
    run.touched_nnz = stats_.nnz;
    std::fill(dose.begin(), dose.end(), 0.0);
    compute_bitwise(new_weights, dose, 0, Backend::kNative);
    return run;
  }
  const std::vector<std::uint32_t>& rows = affected->rows;
  run.touched_rows = rows.size();
  run.touched_nnz = affected->nnz;
  if (rows.empty()) {
    return run;
  }
  switch (mode_) {
    case Mode::kHalfDouble:
      delta_recompute_rows<pd::Half, double>(half_matrix_, new_weights, rows,
                                             dose);
      break;
    case Mode::kSingle: {
      // Full compute converts the whole weight vector to float; replaying a
      // row needs the same x32 (affected rows read unchanged columns too).
      std::vector<float> x32(new_weights.size());
      std::transform(new_weights.begin(), new_weights.end(), x32.begin(),
                     [](double v) { return static_cast<float>(v); });
      delta_recompute_rows<float, float>(single_matrix_,
                                         std::span<const float>(x32), rows,
                                         dose);
      break;
    }
    case Mode::kDouble:
      delta_recompute_rows<double, double>(double_matrix_, new_weights, rows,
                                           dose);
      break;
  }
  return run;
}

std::vector<double> DoseEngine::compute_delta(
    std::span<const double> base_dose, std::span<const double> base_weights,
    std::span<const double> new_weights, DeltaMode mode) {
  pd::threadcheck::note_compute("DoseEngine::compute_delta");
  PD_CHECK_MSG(base_dose.size() == stats_.rows,
               "DoseEngine::compute_delta: base dose length mismatch");
  std::vector<double> dose(base_dose.begin(), base_dose.end());
  apply_delta(dose, base_weights, new_weights, mode);
  return dose;
}

template <typename MatV, typename Acc>
void DoseEngine::execute(const sparse::CsrMatrix<MatV>& A,
                         std::span<const Acc> x, std::span<Acc> y,
                         std::uint64_t schedule_seed, Backend backend) {
  if (backend == Backend::kNative) {
    switch (family_) {
      case Family::kVector:
        native_vector_spmv(A, x, y, native_);
        break;
      case Family::kClassical:
        native_classical_spmv(A, x, y, native_);
        break;
      case Family::kRowSplit:
        native_rowsplit_spmv(A, rowsplit_plan_, x, y, native_);
        break;
      case Family::kAdaptive:
        native_adaptive_spmv(A, adaptive_worklist_, x, y, native_);
        break;
    }
    return;
  }
  switch (family_) {
    case Family::kVector:
      last_run_ = run_vector_csr<MatV, Acc>(*gpu_, A, x, y, threads_per_block_,
                                            schedule_seed);
      break;
    case Family::kClassical:
      last_run_ = run_classical_csr<MatV, Acc, std::uint32_t>(
          *gpu_, A, x, y, threads_per_block_, schedule_seed);
      break;
    case Family::kRowSplit:
      last_run_ = run_rowsplit_csr<MatV, Acc>(*gpu_, A, rowsplit_plan_, x, y,
                                              threads_per_block_,
                                              schedule_seed);
      break;
    case Family::kAdaptive:
      last_run_ = run_adaptive_csr<MatV, Acc, std::uint32_t>(
          *gpu_, A, adaptive_worklist_, x, y, threads_per_block_,
          schedule_seed);
      break;
  }
  has_run_ = true;
}

template <typename MatV, typename Acc>
void DoseEngine::execute_batch(const sparse::CsrMatrix<MatV>& A,
                               std::span<const Acc* const> xs,
                               std::span<Acc* const> ys,
                               std::uint64_t schedule_seed) {
  const std::size_t batch = xs.size();
  if (family_ == Family::kVector && backend_ == Backend::kNative) {
    native_vector_spmv_batch(A, xs, ys, native_);
    return;
  }
  if (family_ == Family::kVector && backend_ == Backend::kGpusim) {
    // Chunk through the multi-vector kernel (register pressure caps the
    // simulated batch width); each chunk streams the matrix once.
    std::size_t done = 0;
    while (done < batch) {
      const std::size_t width = std::min(kMaxSpmvBatch, batch - done);
      std::vector<std::span<const Acc>> xspans;
      std::vector<std::span<Acc>> yspans;
      for (std::size_t j = 0; j < width; ++j) {
        xspans.emplace_back(xs[done + j], A.num_cols);
        yspans.emplace_back(ys[done + j], A.num_rows);
      }
      last_run_ = run_vector_csr_multi<MatV, Acc>(
          *gpu_, A, std::span<const std::span<const Acc>>(xspans),
          std::span<const std::span<Acc>>(yspans), threads_per_block_,
          schedule_seed);
      has_run_ = true;
      done += width;
    }
    return;
  }
  // Remaining families have no batched traversal; loop single products.
  for (std::size_t j = 0; j < batch; ++j) {
    execute<MatV, Acc>(A, std::span<const Acc>(xs[j], A.num_cols),
                       std::span<Acc>(ys[j], A.num_rows), schedule_seed,
                       backend_);
  }
}

std::vector<double> DoseEngine::compute(std::span<const double> spot_weights,
                                        std::uint64_t schedule_seed) {
  return compute(spot_weights, default_spec_, schedule_seed);
}

std::vector<double> DoseEngine::compute(std::span<const double> spot_weights,
                                        ExecSpec spec,
                                        std::uint64_t schedule_seed) {
  // Latency lint anchor (docs/threadcheck.md): holding any pd::Mutex across
  // this call serializes the serving stack on a multi-ms kernel.
  pd::threadcheck::note_compute("DoseEngine::compute");
  PD_CHECK_MSG(spot_weights.size() == stats_.cols,
               "DoseEngine::compute: spot weight count mismatch");
  std::vector<double> dose(stats_.rows, 0.0);

  if (spec.tier == Tier::kFast) {
    // Fast tier: host-native execution on the compressed container for
    // every mode (the storage was widened to double before compression, so
    // the precision mode only changed what got compressed).
    const std::span<double> y(dose);
    NativeExecutor exec = fast_executor();
    switch (ensure_fast_storage(spec.format)) {
      case FastFormat::kRsFormat:
        rsformat_spmv(*rs_matrix_, spot_weights, y, exec);
        break;
      case FastFormat::kSellCs:
        sellcs_spmv(*sell_matrix_, spot_weights, y, exec);
        break;
      default:  // kSellCsQ: ensure_fast_storage never returns kAuto.
        sellcs_q_spmv(*sellq_matrix_, spot_weights, y, exec);
        break;
    }
    return dose;
  }

  compute_bitwise(spot_weights, dose, schedule_seed, backend_);
  return dose;
}

void DoseEngine::compute_bitwise(std::span<const double> spot_weights,
                                 std::span<double> dose,
                                 std::uint64_t schedule_seed,
                                 Backend backend) {
  switch (mode_) {
    case Mode::kHalfDouble:
      execute<pd::Half, double>(half_matrix_, spot_weights, dose,
                                schedule_seed, backend);
      break;
    case Mode::kSingle: {
      std::vector<float> x32(spot_weights.size());
      std::transform(spot_weights.begin(), spot_weights.end(), x32.begin(),
                     [](double v) { return static_cast<float>(v); });
      std::vector<float> y32(stats_.rows, 0.0f);
      execute<float, float>(single_matrix_, std::span<const float>(x32),
                            std::span<float>(y32), schedule_seed, backend);
      std::transform(y32.begin(), y32.end(), dose.begin(),
                     [](float v) { return static_cast<double>(v); });
      break;
    }
    case Mode::kDouble:
      execute<double, double>(double_matrix_, spot_weights, dose,
                              schedule_seed, backend);
      break;
  }
}

std::vector<std::vector<double>> DoseEngine::compute_batch(
    std::span<const double> weights, std::size_t batch,
    std::uint64_t schedule_seed) {
  return compute_batch(weights, batch, default_spec_, schedule_seed);
}

std::vector<std::vector<double>> DoseEngine::compute_batch(
    std::span<const double> weights, std::size_t batch, ExecSpec spec,
    std::uint64_t schedule_seed) {
  pd::threadcheck::note_compute("DoseEngine::compute_batch");
  PD_CHECK_MSG(batch > 0, "DoseEngine::compute_batch: empty batch");
  PD_CHECK_MSG(weights.size() == batch * stats_.cols,
               "DoseEngine::compute_batch: weights must hold batch x spots");
  if (batch == 1) {
    // A width-1 batch is exactly one product; the single-product kernels are
    // bitwise identical per column (the compute_batch contract) and skip the
    // batched accumulator's per-nonzero inner loop over j.
    std::vector<std::vector<double>> doses(1);
    doses[0] = compute(weights, spec, schedule_seed);
    return doses;
  }
  if (spec.tier == Tier::kFast) {
    spec.format = ensure_fast_storage(spec.format);
    if (spec.format == FastFormat::kRsFormat) {
      // Batched fused traversal: one decode pass of the compressed streams
      // feeds all K accumulators (kernels/rsformat_spmv.hpp).  At one thread
      // each column is bitwise identical to compute() of that column.
      std::vector<std::vector<double>> doses(
          batch, std::vector<double>(stats_.rows, 0.0));
      std::vector<const double*> xs(batch);
      std::vector<double*> ys(batch);
      for (std::size_t j = 0; j < batch; ++j) {
        xs[j] = weights.data() + j * stats_.cols;
        ys[j] = doses[j].data();
      }
      NativeExecutor exec = fast_executor();
      rsformat_spmv_batch(*rs_matrix_, xs, ys, exec);
      return doses;
    }
    // The SELL kernels keep per-row private accumulators, so a batched
    // traversal would gain only the x gathers; loop single products (each
    // column trivially identical to compute() on that column).
    std::vector<std::vector<double>> doses(batch);
    for (std::size_t j = 0; j < batch; ++j) {
      doses[j] = compute(weights.subspan(j * stats_.cols, stats_.cols), spec,
                         schedule_seed);
    }
    return doses;
  }
  std::vector<std::vector<double>> doses(batch,
                                         std::vector<double>(stats_.rows, 0.0));
  switch (mode_) {
    case Mode::kHalfDouble:
    case Mode::kDouble: {
      std::vector<const double*> xs(batch);
      std::vector<double*> ys(batch);
      for (std::size_t j = 0; j < batch; ++j) {
        xs[j] = weights.data() + j * stats_.cols;
        ys[j] = doses[j].data();
      }
      if (mode_ == Mode::kHalfDouble) {
        execute_batch<pd::Half, double>(half_matrix_, xs, ys, schedule_seed);
      } else {
        execute_batch<double, double>(double_matrix_, xs, ys, schedule_seed);
      }
      break;
    }
    case Mode::kSingle: {
      std::vector<std::vector<float>> x32(batch,
                                          std::vector<float>(stats_.cols));
      std::vector<std::vector<float>> y32(batch,
                                          std::vector<float>(stats_.rows, 0.0f));
      std::vector<const float*> xs(batch);
      std::vector<float*> ys(batch);
      for (std::size_t j = 0; j < batch; ++j) {
        const double* w = weights.data() + j * stats_.cols;
        std::transform(w, w + stats_.cols, x32[j].begin(),
                       [](double v) { return static_cast<float>(v); });
        xs[j] = x32[j].data();
        ys[j] = y32[j].data();
      }
      execute_batch<float, float>(single_matrix_, xs, ys, schedule_seed);
      for (std::size_t j = 0; j < batch; ++j) {
        std::transform(y32[j].begin(), y32[j].end(), doses[j].begin(),
                       [](float v) { return static_cast<double>(v); });
      }
      break;
    }
  }
  return doses;
}

const SpmvRun& DoseEngine::last_run() const {
  PD_CHECK_MSG(has_run_,
               "DoseEngine: no gpusim compute() has run yet (the native "
               "backend records no counters)");
  return last_run_;
}

gpusim::PerfEstimate DoseEngine::last_estimate() const {
  PD_CHECK_MSG(has_run_,
               "DoseEngine: no gpusim compute() has run yet (the native "
               "backend records no counters)");
  gpusim::PerfInput in;
  in.stats = last_run_.stats;
  in.config = last_run_.config;
  in.precision = last_run_.precision;
  in.mean_work_per_warp = stats_.mean_nnz_per_nonempty_row;
  return gpusim::estimate_performance(gpu_->spec(), in);
}

}  // namespace pd::kernels
