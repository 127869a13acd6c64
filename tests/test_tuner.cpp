// Fast-tier autotuner suite (kernels/tuner.hpp, docs/fast_tier.md).
//
// Pins the autotuner's three contracts:
//  (a) decision table — the byte model's ranking (rank_candidates, the
//      trials == 0 winner of autotune_fast_tier) picks the fewest streamed
//      bytes with the documented tie order (rsformat > quantized SELL >
//      float SELL), and the candidate set drops rsformat and quantized SELL
//      where they cannot be built;
//  (b) determinism — trials == 0 (the CI pin, PROTONDOSE_TUNER_TRIALS=0)
//      runs the byte model only, so repeated tunes of the same matrix make
//      the same decision; measured runs still return a valid config;
//  (c) safety — tuning only reads the engine (no fast container is left on
//      it), applying a config never perturbs Tier::kBitwise bits, and the
//      EngineCache keeps a plan's config across LRU eviction (a hot plan is
//      tuned exactly once per register_plan).
//
// Suite names start with Tuner so CI can run `ctest -R "FastTier|Tuner"`
// under the sanitizers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cases/cases.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/tuner.hpp"
#include "service/dose_service.hpp"
#include "service/engine_cache.hpp"
#include "sparse/convert.hpp"
#include "sparse/random.hpp"
#include "sparse/sellcs.hpp"

namespace pd::kernels {
namespace {

using Tier = DoseEngine::Tier;
using FastFormat = DoseEngine::FastFormat;
using Mode = DoseEngine::Mode;
using Backend = DoseEngine::Backend;

DoseEngine make_engine() {
  static const cases::BeamDataset ds = cases::generate_all_beams(0.2).front();
  return DoseEngine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
}

TuneOptions model_only() {
  TuneOptions opts;
  opts.trials = 0;
  return opts;
}

// --- (a) decision table ------------------------------------------------------

TEST(TunerDecisionTable, PicksFewestBytesWithDocumentedTieOrder) {
  // Each row: {rs, sell, sellq} bytes -> expected format; 0 = the container
  // is not a candidate (rsformat and quantized SELL need non-negative
  // values, quantized SELL also <= 2^16 columns).
  struct Row {
    std::uint64_t rs, sell, sellq;
    FastFormat expect;
  };
  const Row rows[] = {
      {100, 200, 150, FastFormat::kRsFormat},   // rsformat smallest
      {200, 150, 100, FastFormat::kSellCsQ},    // quantized smallest
      {200, 100, 150, FastFormat::kSellCs},     // float SELL smallest
      {100, 200, 100, FastFormat::kRsFormat},   // tie rs/sellq -> rsformat
      {200, 100, 100, FastFormat::kSellCsQ},    // tie sellq/sell -> quantized
      {100, 100, 100, FastFormat::kRsFormat},   // three-way tie -> rsformat
      {200, 100, 0, FastFormat::kSellCs},       // quantized unavailable
      {100, 200, 0, FastFormat::kRsFormat},     // two-way, rsformat wins
      {100, 100, 0, FastFormat::kRsFormat},     // two-way tie -> rsformat
      {0, 100, 0, FastFormat::kSellCs},         // negative values: SELL only
  };
  for (const Row& row : rows) {
    // Fed in reverse tie order, so the ranking — not the input order — has
    // to produce the documented winner.
    std::vector<TuneCandidate> candidates(1);
    candidates[0].format = FastFormat::kSellCs;
    candidates[0].sell_c = 32;
    candidates[0].sell_sigma = 1024;
    candidates[0].streamed_bytes = row.sell;
    if (row.sellq != 0) {
      TuneCandidate q = candidates[0];
      q.format = FastFormat::kSellCsQ;
      q.streamed_bytes = row.sellq;
      candidates.push_back(q);
    }
    if (row.rs != 0) {
      TuneCandidate rs;
      rs.format = FastFormat::kRsFormat;
      rs.streamed_bytes = row.rs;
      candidates.push_back(rs);
    }
    rank_candidates(candidates);
    EXPECT_EQ(candidates.front().format, row.expect)
        << "rs=" << row.rs << " sell=" << row.sell << " sellq=" << row.sellq;
    const std::uint64_t expect_bytes = row.expect == FastFormat::kRsFormat
                                           ? row.rs
                                       : row.expect == FastFormat::kSellCsQ
                                           ? row.sellq
                                           : row.sell;
    EXPECT_EQ(candidates.front().streamed_bytes, expect_bytes);
  }
}

// autotune_fast_tier's winner on real matrices: the minimum streamed bytes
// over its own candidates, the tie order among equal-byte candidates, and
// the candidate set's dependence on the matrix's values and width.
TEST(TunerDecisionTable, WinnerIsTheFewestBytesCandidate) {
  const auto rank = [](FastFormat f) {
    return f == FastFormat::kRsFormat ? 0 : f == FastFormat::kSellCsQ ? 1 : 2;
  };
  const auto check = [&](const sparse::CsrF64& matrix, bool expect_rs,
                         bool expect_sellq, const char* what) {
    const DoseEngine engine(sparse::CsrF64(matrix), gpusim::make_a100(),
                            Mode::kDouble, kDefaultVectorTpb,
                            SpmvFamily::kVector, Backend::kNative);
    const TunedConfig config = autotune_fast_tier(engine, model_only());
    ASSERT_FALSE(config.candidates.empty()) << what;
    bool has_rs = false, has_sellq = false;
    for (const TuneCandidate& c : config.candidates) {
      has_rs = has_rs || c.format == FastFormat::kRsFormat;
      has_sellq = has_sellq || c.format == FastFormat::kSellCsQ;
      EXPECT_LE(config.streamed_bytes, c.streamed_bytes) << what;
      if (c.streamed_bytes == config.streamed_bytes) {
        EXPECT_LE(rank(config.format), rank(c.format)) << what;
      }
    }
    EXPECT_EQ(has_rs, expect_rs) << what;
    EXPECT_EQ(has_sellq, expect_sellq) << what;
  };
  Rng rng(5);
  for (const auto& ds : cases::generate_all_beams(0.2)) {
    check(ds.beam.matrix, true, true, ds.label.c_str());
  }
  const sparse::CsrF64 skewed =
      sparse::random_csr(rng, 400, 120, 10.0, sparse::RandomStructure::kSkewed);
  check(skewed, true, true, "skewed");
  sparse::CsrF64 negative = skewed;
  negative.values[negative.values.size() / 3] = -0.5;
  check(negative, false, false, "negative value");
  const sparse::CsrF64 wide = sparse::random_csr(
      rng, 64, (std::uint64_t{1} << 16) + 1, 4.0,
      sparse::RandomStructure::kSkewed);
  check(wide, true, false, "2^16 + 1 columns");
}

TEST(TunerDecisionTable, ModelBytesMatchTheRealBuilders) {
  // The deterministic stage is only trustworthy if the byte model is exact.
  DoseEngine engine = make_engine();
  const sparse::CsrF64 wide = engine.stored_matrix_as_double();
  std::vector<std::uint32_t> all_lens, stored_lens;
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    const auto n = static_cast<std::uint32_t>(wide.row_nnz(r));
    all_lens.push_back(n);
    if (n > 0) {
      stored_lens.push_back(n);
    }
  }
  for (const std::uint32_t c : {8u, 32u}) {
    for (const std::uint32_t sigma : {256u, 1024u}) {
      const auto sell =
          sparse::csr_to_sellcs(sparse::convert_values<float>(wide), c, sigma);
      EXPECT_EQ(sellcs_model_bytes(all_lens, wide.num_cols, c, sigma, false),
                sell.bytes())
          << "float C=" << c << " sigma=" << sigma;
      const auto sellq = sparse::csr_to_sellcs_q(wide, c, sigma);
      EXPECT_EQ(sellcs_model_bytes(stored_lens, wide.num_cols, c, sigma, true),
                sellq.bytes())
          << "quantized C=" << c << " sigma=" << sigma;
    }
  }
}

// --- (b) determinism ---------------------------------------------------------

TEST(TunerDeterminism, ModelModeIsReproducible) {
  DoseEngine engine = make_engine();
  const TunedConfig a = autotune_fast_tier(engine, model_only());
  const TunedConfig b = autotune_fast_tier(engine, model_only());
  EXPECT_TRUE(same_decision(a, b));
  EXPECT_EQ(a.trials, 0u);
  EXPECT_EQ(a.us_per_product, 0.0);  // nothing was measured
  EXPECT_EQ(a.candidates.size(), b.candidates.size());
  ASSERT_FALSE(a.candidates.empty());
  // Candidates come back in model-rank order: non-decreasing streamed bytes.
  for (std::size_t i = 1; i < a.candidates.size(); ++i) {
    EXPECT_LE(a.candidates[i - 1].streamed_bytes,
              a.candidates[i].streamed_bytes);
  }
  // The winner is the model front-runner and its bytes beat CSR-double.
  EXPECT_EQ(a.streamed_bytes, a.candidates.front().streamed_bytes);
  EXPECT_LT(a.streamed_bytes, engine.stored_matrix_as_double().bytes());
}

TEST(TunerDeterminism, EnvPinOverridesTrials) {
  ::setenv("PROTONDOSE_TUNER_TRIALS", "0", 1);
  const TuneOptions opts = tune_options_from_env();
  ::unsetenv("PROTONDOSE_TUNER_TRIALS");
  EXPECT_EQ(opts.trials, 0u);
  ::setenv("PROTONDOSE_TUNER_TRIALS", "7", 1);
  const TuneOptions opts7 = tune_options_from_env();
  ::unsetenv("PROTONDOSE_TUNER_TRIALS");
  EXPECT_EQ(opts7.trials, 7u);
}

TEST(TunerDeterminism, MeasuredModeReturnsAValidConfig) {
  DoseEngine engine = make_engine();
  TuneOptions opts;
  opts.trials = 1;
  opts.probe_batch = 4;
  const TunedConfig config = autotune_fast_tier(engine, opts);
  EXPECT_NE(config.format, FastFormat::kAuto);  // always a concrete format
  EXPECT_GT(config.streamed_bytes, 0u);
  EXPECT_GE(config.fast_threads, 0u);
  ASSERT_FALSE(config.candidates.empty());
  // At least one finalist was actually measured.
  bool any_measured = false;
  for (const TuneCandidate& c : config.candidates) {
    any_measured = any_measured || c.measured;
  }
  EXPECT_TRUE(any_measured);
  if (config.format == FastFormat::kRsFormat) {
    // The batch probe ran; width 1 (no win) or the probed width.
    EXPECT_TRUE(config.batch_width == 1 || config.batch_width == 4);
  }
}

// --- (c) safety --------------------------------------------------------------

TEST(TunerSafety, TuningNeverPerturbsBitwiseBits) {
  DoseEngine engine = make_engine();
  Rng rng(42);
  const auto x =
      sparse::random_vector(rng, engine.num_spots(), 0.0, 2.0);
  const std::vector<double> before = engine.compute(x);

  // Tuning reads the engine only: its containers are its own, so none is
  // left behind on the engine — in either tuner mode.
  TuneOptions measured;
  measured.trials = 1;
  measured.probe_batch = 2;
  for (const TuneOptions& opts : {model_only(), measured}) {
    (void)autotune_fast_tier(engine, opts);
    EXPECT_THROW((void)engine.fast_rs_matrix(), pd::Error);
    EXPECT_THROW((void)engine.fast_sell_matrix(), pd::Error);
    EXPECT_THROW((void)engine.fast_sellq_matrix(), pd::Error);
    EXPECT_EQ(engine.compute(x), before);
  }

  // Applying the config (tuned threads, geometry, kAuto resolution) must
  // not touch the bitwise path either — fast threads are a per-call count.
  const TunedConfig config = autotune_fast_tier(engine, model_only());
  apply_tuned(engine, config);
  EXPECT_EQ(engine.compute(x), before);

  // And a fast kAuto compute resolves to the tuned format without touching
  // the bitwise bits afterwards.
  const std::vector<double> fast_auto =
      engine.compute(x, {Tier::kFast, FastFormat::kAuto});
  EXPECT_EQ(fast_auto, engine.compute(x, {Tier::kFast, config.format}));
  if (config.format == FastFormat::kSellCsQ) {
    EXPECT_EQ(engine.fast_sellq_matrix().chunk_height, config.sell_c);
  }
  EXPECT_EQ(engine.compute(x), before);
}

TEST(TunerSafety, CacheTunesOncePerPlanAcrossEviction) {
  Rng rng(7);
  const auto matrix_a = sparse::random_csr(rng, 400, 120, 10.0,
                                           sparse::RandomStructure::kSkewed);
  const auto matrix_b = sparse::random_csr(rng, 300, 90, 8.0,
                                           sparse::RandomStructure::kSkewed);

  service::EngineParams params;
  params.device = gpusim::make_a100();
  params.backend = Backend::kNative;
  params.autotune = true;
  params.tune_options = model_only();
  service::EngineCache cache(1, params);  // capacity 1 forces eviction thrash
  cache.register_plan("a", [&] { return sparse::CsrF64(matrix_a); });
  cache.register_plan("b", [&] { return sparse::CsrF64(matrix_b); });

  (void)cache.acquire("a");
  const auto first = cache.tuned_config("a");
  ASSERT_NE(first, nullptr);
  // Thrash: each acquire evicts the other plan's engine, but never its
  // config — the tune counter must stay at one per plan.
  for (int i = 0; i < 3; ++i) {
    (void)cache.acquire("b");
    (void)cache.acquire("a");
  }
  const service::EngineCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.tunes, 2u);  // one per plan, ever
  EXPECT_EQ(stats.tuned_plans, 2u);
  const auto again = cache.tuned_config("a");
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(same_decision(*first, *again));

  // Replacing the source invalidates the tuning (the matrix may differ).
  cache.register_plan("a", [&] { return sparse::CsrF64(matrix_b); });
  EXPECT_EQ(cache.tuned_config("a"), nullptr);
  (void)cache.acquire("a");
  EXPECT_EQ(cache.stats().tunes, 3u);
}

TEST(TunerSafety, ServiceWithAutotuneKeepsBitwiseContractAndServesAuto) {
  Rng rng(77);
  const auto plan_matrix = sparse::random_csr(
      rng, 300, 90, 12.0, sparse::RandomStructure::kSkewed);

  service::ServiceConfig config;
  config.workers = 2;
  config.batch_cap = 4;
  config.flush_deadline_ms = 0.5;
  config.engine.device = gpusim::make_a100();
  config.engine.backend = Backend::kNative;
  config.engine.autotune = true;
  config.engine.tune_options = model_only();
  service::DoseService svc(config);
  svc.register_plan("p", [&] { return sparse::CsrF64(plan_matrix); });

  DoseEngine oracle(sparse::CsrF64(plan_matrix), gpusim::make_a100(),
                    Mode::kHalfDouble, kDefaultVectorTpb, SpmvFamily::kVector,
                    Backend::kNative);

  std::vector<service::Ticket> bitwise_tickets;
  std::vector<std::vector<double>> bitwise_weights;
  std::vector<service::Ticket> auto_tickets;
  for (int i = 0; i < 8; ++i) {
    Rng wrng(100 + i);
    std::vector<double> w = sparse::random_vector(wrng, 90, 0.0, 2.0);
    service::SubmitOptions opts;
    if (i % 2 == 0) {
      bitwise_weights.push_back(w);
      bitwise_tickets.push_back(svc.submit("p", std::move(w), opts));
    } else {
      opts.tier = Tier::kFast;
      opts.fast_format = FastFormat::kAuto;
      auto_tickets.push_back(svc.submit("p", std::move(w), opts));
    }
  }
  svc.drain();

  for (std::size_t i = 0; i < bitwise_tickets.size(); ++i) {
    service::DoseResult r = bitwise_tickets[i].result.get();
    ASSERT_EQ(r.status, service::RequestStatus::kOk);
    // Autotune on: default-tier traffic still bitwise-matches a fresh
    // sequential engine.
    EXPECT_EQ(r.dose, oracle.compute(bitwise_weights[i]));
  }
  for (service::Ticket& t : auto_tickets) {
    service::DoseResult r = t.result.get();
    ASSERT_EQ(r.status, service::RequestStatus::kOk);
    EXPECT_EQ(r.dose.size(), 300u);
  }
  const auto tuned = svc.tuned_config("p");
  ASSERT_NE(tuned, nullptr);
  EXPECT_NE(tuned->format, FastFormat::kAuto);
  EXPECT_EQ(svc.stats().cache.tunes, 1u);
}

}  // namespace
}  // namespace pd::kernels
