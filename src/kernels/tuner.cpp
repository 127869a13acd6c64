#include "kernels/tuner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "kernels/rsformat_spmv.hpp"
#include "kernels/sellcs_spmv.hpp"

namespace pd::kernels {

namespace {

using FastFormat = DoseEngine::FastFormat;

// Deterministic tie order when streamed bytes match: rsformat (no padding,
// no permutation) before quantized SELL before float SELL.
int format_rank(FastFormat f) {
  switch (f) {
    case FastFormat::kRsFormat:
      return 0;
    case FastFormat::kSellCsQ:
      return 1;
    default:
      return 2;
  }
}

bool model_order(const TuneCandidate& a, const TuneCandidate& b) {
  if (a.streamed_bytes != b.streamed_bytes) {
    return a.streamed_bytes < b.streamed_bytes;
  }
  if (format_rank(a.format) != format_rank(b.format)) {
    return format_rank(a.format) < format_rank(b.format);
  }
  if (a.sell_c != b.sell_c) {
    return a.sell_c < b.sell_c;
  }
  return a.sell_sigma < b.sell_sigma;
}

std::uint32_t resolve_rows_sigma(std::uint64_t rows, std::uint32_t C) {
  const std::uint64_t up =
      (std::max<std::uint64_t>(rows, 1) + C - 1) / C * C;
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      up, std::numeric_limits<std::uint32_t>::max() / C * C));
}

// The configuration that runs `cand` at `threads` fast threads.
TunedConfig config_for(const TuneCandidate& cand, unsigned threads) {
  TunedConfig config;
  config.format = cand.format;
  if (cand.format != FastFormat::kRsFormat) {
    config.sell_c = cand.sell_c;
    config.sell_sigma = cand.sell_sigma;
  }
  config.fast_threads = threads;
  config.streamed_bytes = cand.streamed_bytes;
  return config;
}

template <typename F>
double elapsed_us(F&& f) {
  const auto start = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Wall-clock of the fastest of `trials` fast products of an all-ones weight
// vector with `cand`'s container at `threads` on the tuner's own engine.
// One warmup rep primes the container build and the thread pool out of the
// measurement.
double measure_candidate(DoseEngine& scratch, const TuneCandidate& cand,
                         unsigned threads, unsigned trials) {
  apply_tuned(scratch, config_for(cand, threads));
  const DoseEngine::ExecSpec spec{DoseEngine::Tier::kFast, cand.format};
  const std::vector<double> x(scratch.num_spots(), 1.0);
  (void)scratch.compute(x, spec);
  double best_us = std::numeric_limits<double>::infinity();
  for (unsigned t = 0; t < trials; ++t) {
    best_us = std::min(best_us,
                       elapsed_us([&] { (void)scratch.compute(x, spec); }));
  }
  return best_us;
}

// A measured rival must beat the model-preferred incumbent by more than
// this margin to override the deterministic order (run-to-run stability on
// quiet machines; see header).
constexpr double kHysteresis = 0.10;

}  // namespace

TuneOptions tune_options_from_env() {
  TuneOptions opts;
  if (const char* env = std::getenv("PROTONDOSE_TUNER_TRIALS")) {
    try {
      opts.trials = static_cast<unsigned>(std::stoul(env));
    } catch (...) {
      throw pd::Error(std::string("PROTONDOSE_TUNER_TRIALS: not a number: ") +
                      env);
    }
  }
  return opts;
}

std::uint64_t sellcs_model_bytes(const std::vector<std::uint32_t>& row_nnz,
                                 std::uint64_t num_cols, std::uint32_t C,
                                 std::uint32_t sigma, bool quantized) {
  PD_CHECK_MSG(C > 0 && sigma > 0 && sigma % C == 0,
               "sellcs_model_bytes: σ must be a positive multiple of C");
  // Replicate the builder: descending sort inside σ windows, then each
  // C-chunk pads to its longest row.  Only the length multiset matters.
  std::vector<std::uint32_t> lens = row_nnz;
  const std::uint64_t rows = lens.size();
  for (std::uint64_t w = 0; w < rows; w += sigma) {
    const std::uint64_t end = std::min<std::uint64_t>(w + sigma, rows);
    std::sort(lens.begin() + static_cast<std::ptrdiff_t>(w),
              lens.begin() + static_cast<std::ptrdiff_t>(end),
              std::greater<std::uint32_t>());
  }
  std::uint64_t slots = 0;
  for (std::uint64_t c0 = 0; c0 < rows; c0 += C) {
    // σ is a multiple of C, so a chunk never straddles a window boundary and
    // the group's first (descending-sorted) length is its padded width.
    slots += static_cast<std::uint64_t>(lens[c0]) * C;
  }
  const std::uint64_t chunks = (rows + C - 1) / C;
  const std::uint64_t shared = (chunks + 1) * 8   // chunk_ptr
                               + chunks * 4       // chunk_width
                               + rows * 4;        // row_perm
  if (quantized) {
    return shared + num_cols * 4  // col_scale
           + slots * (2 + 2);     // u16 qvalue + u16 col_idx
  }
  return shared + slots * (4 + 4);  // f32 value + u32 col_idx
}

void rank_candidates(std::vector<TuneCandidate>& candidates) {
  std::sort(candidates.begin(), candidates.end(), model_order);
  // Duplicate (format, C, σ) pairs can arise from σ snapping; keep the first.
  candidates.erase(
      std::unique(candidates.begin(), candidates.end(),
                  [](const TuneCandidate& a, const TuneCandidate& b) {
                    return a.format == b.format && a.sell_c == b.sell_c &&
                           a.sell_sigma == b.sell_sigma;
                  }),
      candidates.end());
}

TunedConfig autotune_fast_tier(const DoseEngine& engine,
                               const TuneOptions& opts) {
  PD_CHECK_MSG(!opts.chunk_heights.empty() && !opts.sort_windows.empty(),
               "autotune_fast_tier: empty candidate grid");
  sparse::CsrF64 wide = engine.stored_matrix_as_double();
  const std::uint64_t rows = wide.num_rows;
  bool nonneg = true;
  for (const double v : wide.values) {
    nonneg = nonneg && v >= 0.0;
  }
  std::vector<std::uint32_t> all_lens(rows);
  std::vector<std::uint32_t> stored_lens;
  stored_lens.reserve(rows);
  for (std::uint64_t r = 0; r < rows; ++r) {
    all_lens[r] = static_cast<std::uint32_t>(wide.row_nnz(r));
    if (all_lens[r] > 0) {
      stored_lens.push_back(all_lens[r]);
    }
  }
  const bool sellq_ok = nonneg && wide.num_cols <= (std::uint64_t{1} << 16);

  // --- Stage 1: deterministic streamed-bytes model over the full grid. ---
  std::vector<TuneCandidate> candidates;
  if (nonneg) {
    // rsformat has no geometry knob; its exact bytes need the real container
    // (escape count), built here and dropped.
    TuneCandidate rs;
    rs.format = FastFormat::kRsFormat;
    rs.streamed_bytes =
        rsformat_streamed_bytes(rsformat::RsMatrix::from_csr(wide));
    candidates.push_back(rs);
  }
  for (const std::uint32_t C : opts.chunk_heights) {
    for (const std::uint32_t sigma_raw : opts.sort_windows) {
      const std::uint32_t sigma =
          sigma_raw == 0 ? resolve_rows_sigma(rows, C)
                         : (sigma_raw / C) * C;  // snap to a multiple of C
      if (sigma == 0) {
        continue;  // window smaller than a chunk: not a real configuration.
      }
      TuneCandidate fl;
      fl.format = FastFormat::kSellCs;
      fl.sell_c = C;
      fl.sell_sigma = sigma;
      fl.streamed_bytes =
          sellcs_model_bytes(all_lens, wide.num_cols, C, sigma, false);
      candidates.push_back(fl);
      if (sellq_ok) {
        TuneCandidate q = fl;
        q.format = FastFormat::kSellCsQ;
        q.streamed_bytes =
            sellcs_model_bytes(stored_lens, wide.num_cols, C, sigma, true);
        candidates.push_back(q);
      }
    }
  }
  PD_CHECK_MSG(!candidates.empty(),
               "autotune_fast_tier: no viable fast format for this matrix");
  rank_candidates(candidates);

  const unsigned default_threads =
      opts.thread_candidates.empty() ? 1 : opts.thread_candidates.front();
  if (opts.trials == 0) {
    TunedConfig config = config_for(candidates.front(), default_threads);
    config.candidates = std::move(candidates);
    return config;
  }

  // The measured stages run on the tuner's own engine over the widened
  // matrix — exactly what the caller's fast containers are built from — so
  // the caller's engine is only read.
  DoseEngine scratch(std::move(wide), engine.device(),
                     DoseEngine::Mode::kDouble, kDefaultVectorTpb,
                     SpmvFamily::kVector, DoseEngine::Backend::kNative);

  // --- Stage 2: micro-benchmark the model's finalists. ---
  std::size_t winner = 0;
  const std::size_t finalists = std::min<std::size_t>(
      std::max<std::size_t>(opts.measure_finalists, 1), candidates.size());
  for (std::size_t i = 0; i < finalists; ++i) {
    candidates[i].us_per_product = measure_candidate(
        scratch, candidates[i], engine.native_threads(), opts.trials);
    candidates[i].measured = true;
    // Model order is the incumbent; a rival must win by > kHysteresis.
    if (i > 0 && candidates[i].us_per_product <
                     candidates[winner].us_per_product * (1.0 - kHysteresis)) {
      winner = i;
    }
  }
  const TuneCandidate& best = candidates[winner];
  TunedConfig config = config_for(best, default_threads);
  config.trials = opts.trials;
  config.us_per_product = best.us_per_product;

  // --- Stage 3: native thread count for the winning format. ---
  if (opts.thread_candidates.size() > 1) {
    double incumbent_us = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < opts.thread_candidates.size(); ++i) {
      const double us = measure_candidate(
          scratch, best, opts.thread_candidates[i], opts.trials);
      if (i == 0) {
        incumbent_us = us;
      } else if (us < incumbent_us * (1.0 - kHysteresis)) {
        incumbent_us = us;
        config.fast_threads = opts.thread_candidates[i];
      }
    }
    config.us_per_product = incumbent_us;
  }

  // --- Stage 4: batch-width probe (fused rsformat only — the one kernel
  // with a batched traversal). ---
  if (opts.probe_batch > 1 && best.format == FastFormat::kRsFormat) {
    apply_tuned(scratch, config);
    const DoseEngine::ExecSpec spec{DoseEngine::Tier::kFast,
                                    FastFormat::kRsFormat};
    const std::size_t K = opts.probe_batch;
    const std::vector<double> weights(scratch.num_spots() * K, 1.0);
    const std::vector<double> x(scratch.num_spots(), 1.0);
    (void)scratch.compute_batch(weights, K, spec);
    double batched_us = std::numeric_limits<double>::infinity();
    double looped_us = std::numeric_limits<double>::infinity();
    for (unsigned t = 0; t < opts.trials; ++t) {
      batched_us = std::min(batched_us, elapsed_us([&] {
                              (void)scratch.compute_batch(weights, K, spec);
                            }));
      looped_us = std::min(looped_us, elapsed_us([&] {
                             for (std::size_t j = 0; j < K; ++j) {
                               (void)scratch.compute(x, spec);
                             }
                           }));
    }
    config.batched_speedup = batched_us > 0.0 ? looped_us / batched_us : 0.0;
    config.batch_width = config.batched_speedup > 1.0 ? K : 1;
  }

  config.candidates = std::move(candidates);
  return config;
}

}  // namespace pd::kernels
