// Delta-engine differential suite (docs/delta_engine.md).
//
// The incremental delta path promises two contracts and this suite pins both:
//  (a) DeltaMode::kBitwise — compute_delta is EXPECT_EQ-bitwise-identical to
//      a full compute of the new weights, on every Table I beam, both
//      backends, thread counts {1, 2, 5}, every kernel family and precision
//      mode, on both of its paths (row replay and full-compute fallback),
//      and through the service (submit_delta);
//  (b) DeltaMode::kFast — the scatter-add update stays inside a *derived*
//      per-row bound (test_fast_tier.cpp style), and the bound is tight
//      enough to reject a deliberately miscompiled reference.
// Plus the structural pieces: the CSC sidecar (the engine's stored Dᵀ) is
// exactly the transpose, the fast mode is bit-pinned to the plain ascending
// scatter-add, both axpy variants agree bitwise, apply_delta reports the
// true touch counts, and the tuner's delta threshold does its streamed-bytes
// arithmetic (tie goes to full recompute).
//
// Suite names start with Delta so CI can run `ctest -R Delta` under the
// sanitizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cases/cases.hpp"
#include "common/rng.hpp"
#include "common/threadcheck.hpp"
#include "gpusim/device.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/tuner.hpp"
#include "opt/optimizer.hpp"
#include "service/dose_service.hpp"
#include "sparse/coo.hpp"
#include "sparse/random.hpp"
#include "sparse/reference.hpp"

namespace pd::kernels {
namespace {

/// Clean-suite enforcement (docs/threadcheck.md): under
/// PROTONDOSE_THREADCHECK=1 (the CI threadcheck job) this binary's service
/// and delta traffic runs instrumented, and at exit the analyzer must have
/// found nothing.
class ThreadcheckCleanEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    if (!threadcheck::enabled()) {
      return;
    }
    const threadcheck::Report report = threadcheck::analyze();
    EXPECT_TRUE(report.clean()) << report.summary();
  }
};
[[maybe_unused]] const auto* const kThreadcheckCleanEnv =
    ::testing::AddGlobalTestEnvironment(new ThreadcheckCleanEnv);

using Backend = DoseEngine::Backend;
using DeltaMode = DoseEngine::DeltaMode;
using Mode = DoseEngine::Mode;

const std::vector<cases::BeamDataset>& beams() {
  static const std::vector<cases::BeamDataset> b =
      cases::generate_all_beams(0.2);
  return b;
}

constexpr double kUlp53 = 1.1102230246251565e-16;  // 2^-53
constexpr double kUlp24 = 5.9604644775390625e-8;   // 2^-24

std::vector<double> base_weights_for(std::uint64_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return sparse::random_vector(rng, cols, 0.5, 2.0);
}

/// Change ~frac of the weights (at least one), multiplicatively so changed
/// entries are bounded away from their old values.
std::vector<double> perturb(const std::vector<double>& w, double frac,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w_new = w;
  const std::size_t k = std::min<std::size_t>(
      w.size(),
      std::max<std::size_t>(
          1, static_cast<std::size_t>(frac * static_cast<double>(w.size()))));
  std::vector<std::uint8_t> used(w.size(), 0);
  for (std::size_t changed = 0; changed < k;) {
    const std::size_t j = rng.uniform_index(w.size());
    if (used[j] == 0) {
      used[j] = 1;
      w_new[j] = w[j] * 1.5 + 0.1;
      ++changed;
    }
  }
  return w_new;
}

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[r]),
              std::bit_cast<std::uint64_t>(want[r]))
        << what << ": row " << r << " (" << got[r] << " vs " << want[r] << ")";
  }
}

/// The two paths of the bitwise tier (docs/delta_engine.md).  On every
/// scale-0.2 beam here, 2% changed spots replay the touched rows; 50% reach
/// every row, where the replay would stream more than a full product, so
/// apply_delta runs the full compute instead.
struct DeltaPath {
  double frac;
  bool full_compute;
  const char* name;
};
constexpr DeltaPath kDeltaPaths[] = {{0.02, false, "replay"},
                                     {0.5, true, "full compute"}};

/// kBitwise differential on one engine, once per path: the delta result
/// must match the full compute of the new weights bit for bit, at every
/// thread count, and apply_delta must report the path it was meant to take.
void check_bitwise_delta(DoseEngine& engine, const std::string& label) {
  const std::vector<double> w = base_weights_for(engine.num_spots(), 211);
  const std::vector<double> base = engine.compute(w);
  std::vector<std::vector<double>> w_new;
  std::vector<std::vector<double>> full;
  for (const DeltaPath& path : kDeltaPaths) {
    w_new.push_back(perturb(w, path.frac, 977));
    full.push_back(engine.compute(w_new.back()));
  }
  for (std::size_t p = 0; p < std::size(kDeltaPaths); ++p) {
    const std::string what = label + " " + kDeltaPaths[p].name;
    for (const unsigned threads : {1u, 2u, 5u}) {
      engine.set_native_threads(threads);
      const std::vector<double> delta =
          engine.compute_delta(base, w, w_new[p], DeltaMode::kBitwise);
      expect_bitwise(delta, full[p],
                     (what + " t" + std::to_string(threads)).c_str());
    }
    std::vector<double> applied = base;
    const DoseEngine::DeltaRun run =
        engine.apply_delta(applied, w, w_new[p], DeltaMode::kBitwise);
    EXPECT_GT(run.changed_cols, 0u) << what;
    EXPECT_EQ(run.full_compute, kDeltaPaths[p].full_compute) << what;
    expect_bitwise(applied, full[p], (what + " apply").c_str());
  }
}

// --- (a) the bitwise contract -----------------------------------------------

TEST(DeltaCases, BitwiseEqualOnAllBeamsNativeBackend) {
  for (const auto& ds : beams()) {
    DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                      kDefaultVectorTpb, SpmvFamily::kVector,
                      Backend::kNative);
    check_bitwise_delta(engine, ds.label + " native");
  }
}

TEST(DeltaCases, BitwiseEqualOnAllBeamsGpusimBackend) {
  // The delta replay executes host-native even on gpusim engines; the
  // cross-backend bitwise contract makes the result identical to the
  // simulated full compute too.
  for (const auto& ds : beams()) {
    DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                      kDefaultVectorTpb, SpmvFamily::kVector,
                      Backend::kGpusim);
    engine.set_engine_options({gpusim::TraceMode::kFunctionalOnly, 0});
    check_bitwise_delta(engine, ds.label + " gpusim");
  }
}

TEST(DeltaCases, BitwiseEqualForEveryKernelFamily) {
  const auto& ds = beams().front();
  for (const SpmvFamily family :
       {SpmvFamily::kVector, SpmvFamily::kClassical, SpmvFamily::kRowSplit,
        SpmvFamily::kAdaptive}) {
    DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                      kDefaultVectorTpb, family, Backend::kNative);
    check_bitwise_delta(engine,
                        "family " + std::to_string(static_cast<int>(family)));
  }
}

TEST(DeltaCases, BitwiseEqualForEveryPrecisionMode) {
  const auto& ds = beams().front();
  for (const Mode mode : {Mode::kHalfDouble, Mode::kSingle, Mode::kDouble}) {
    for (const SpmvFamily family :
         {SpmvFamily::kVector, SpmvFamily::kAdaptive, SpmvFamily::kRowSplit}) {
      DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), mode,
                        kDefaultVectorTpb, family, Backend::kNative);
      check_bitwise_delta(engine, "mode " +
                                      std::to_string(static_cast<int>(mode)) +
                                      " family " +
                                      std::to_string(static_cast<int>(family)));
    }
  }
}

TEST(DeltaCases, ChainedAppliesStayBitwise) {
  // An optimizer loop applies deltas on top of deltas; drift would compound.
  const auto& ds = beams().front();
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  std::vector<double> w = base_weights_for(engine.num_spots(), 5);
  std::vector<double> dose = engine.compute(w);
  for (int step = 0; step < 6; ++step) {
    const std::vector<double> w_new =
        perturb(w, 0.03, 42 + static_cast<std::uint64_t>(step));
    // 3% changed stays on the replay path (about 85% of the nnz touched).
    EXPECT_FALSE(
        engine.apply_delta(dose, w, w_new, DeltaMode::kBitwise).full_compute)
        << step;
    w = w_new;
  }
  expect_bitwise(dose, engine.compute(w), "chained applies");
}

TEST(DeltaCases, EdgeCases) {
  const auto& ds = beams().front();
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  std::vector<double> w = base_weights_for(engine.num_spots(), 7);
  w[0] = 0.0;
  const std::vector<double> base = engine.compute(w);

  // No change: nothing touched, dose returned verbatim.
  const std::vector<double> same =
      engine.compute_delta(base, w, w, DeltaMode::kBitwise);
  expect_bitwise(same, base, "no-op delta");
  std::vector<double> dose = base;
  const DoseEngine::DeltaRun noop =
      engine.apply_delta(dose, w, w, DeltaMode::kBitwise);
  EXPECT_EQ(noop.changed_cols, 0u);
  EXPECT_EQ(noop.delta_nnz, 0u);
  EXPECT_EQ(noop.touched_rows, 0u);

  // A sign flip on zero is invisible to operator== but not to the bitwise
  // contract — diff_weights compares bits, so it must be treated as changed.
  std::vector<double> w_negzero = w;
  w_negzero[0] = -0.0;
  EXPECT_EQ(engine.apply_delta(dose, w, w_negzero, DeltaMode::kBitwise)
                .changed_cols,
            1u);

  // Every column changed: the worklist degenerates to a full recompute and
  // must still match bit for bit.
  std::vector<double> w_all(w.size());
  for (std::size_t j = 0; j < w.size(); ++j) {
    w_all[j] = w[j] * 2.0 + 0.25;
  }
  expect_bitwise(engine.compute_delta(base, w, w_all, DeltaMode::kBitwise),
                 engine.compute(w_all), "all columns changed");
}

// --- sidecar + counters ------------------------------------------------------

TEST(DeltaSidecar, MatchesTheTransposeExactly) {
  const auto& ds = beams().front();
  // The sidecar is the engine of Dᵀ in the stored precision: its arrays must
  // be the transpose of the stored matrix, entry for entry.  Widening to
  // double is exact and injective, so comparing widened value bits compares
  // the stored half / float bits.  Mode::kDouble stores the matrix
  // unconverted, so there it must also equal the transpose of the input.
  for (const Mode mode : {Mode::kHalfDouble, Mode::kSingle, Mode::kDouble}) {
    DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), mode,
                      kDefaultVectorTpb, SpmvFamily::kVector,
                      Backend::kNative);
    const sparse::CsrF64 csc = engine.csc_sidecar().stored_matrix_as_double();
    const sparse::CsrF64 t = sparse::transpose(
        mode == Mode::kDouble ? ds.beam.matrix
                              : engine.stored_matrix_as_double());
    const int m = static_cast<int>(mode);
    ASSERT_EQ(csc.num_rows, t.num_rows) << "mode " << m;
    ASSERT_EQ(csc.num_cols, t.num_cols) << "mode " << m;
    ASSERT_EQ(csc.nnz(), t.nnz()) << "mode " << m;
    for (std::uint64_t c = 0; c <= csc.num_rows; ++c) {
      ASSERT_EQ(csc.row_ptr[c], t.row_ptr[c]) << "mode " << m << " col " << c;
    }
    for (std::uint64_t k = 0; k < csc.nnz(); ++k) {
      ASSERT_EQ(csc.col_idx[k], t.col_idx[k]) << "mode " << m << " entry " << k;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(csc.values[k]),
                std::bit_cast<std::uint64_t>(t.values[k]))
          << "mode " << m << " entry " << k;
    }
  }
}

TEST(DeltaSidecar, LastDeltaReportsTrueTouchCounts) {
  const auto& ds = beams().front();
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  const std::vector<double> w = base_weights_for(engine.num_spots(), 13);
  std::vector<double> w_new = w;
  const std::uint32_t c0 = 1, c1 = static_cast<std::uint32_t>(w.size() / 2);
  w_new[c0] += 0.5;
  w_new[c1] += 0.5;
  const std::vector<double> base = engine.compute(w);
  std::vector<double> dose = base;
  const DoseEngine::DeltaRun run =
      engine.apply_delta(dose, w, w_new, DeltaMode::kBitwise);

  const sparse::CsrF64 csc = engine.csc_sidecar().stored_matrix_as_double();
  EXPECT_EQ(run.mode, DeltaMode::kBitwise);
  EXPECT_EQ(run.changed_cols, 2u);
  EXPECT_EQ(run.delta_nnz, csc.row_nnz(c0) + csc.row_nnz(c1));
  // touched_rows = |union of the two columns' row sets|.
  std::vector<std::uint32_t> rows;
  for (const std::uint32_t c : {c0, c1}) {
    for (std::uint32_t k = csc.row_ptr[c]; k < csc.row_ptr[c + 1]; ++k) {
      rows.push_back(csc.col_idx[k]);
    }
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  EXPECT_EQ(run.touched_rows, rows.size());
  // delta cost ∝ |Δw| nnz: two columns touch a tiny fraction of the matrix.
  EXPECT_LT(run.delta_nnz, engine.stats().nnz / 4);

  dose = base;
  const DoseEngine::DeltaRun fast =
      engine.apply_delta(dose, w, w_new, DeltaMode::kFast);
  EXPECT_EQ(fast.mode, DeltaMode::kFast);
  EXPECT_EQ(fast.delta_nnz, run.delta_nnz);
  EXPECT_EQ(fast.touched_rows, 0u);  // fast builds no worklist
}

TEST(DeltaSidecar, FullComputeOnceTheReplayStreamsAFullProduct) {
  // Liver 1 at full scale: 0.1% changed spots reach about half the nnz and
  // replay those rows; 10% reach nearly all of them, where the replay would
  // stream more than one full product, so the full compute runs.  Either
  // way the bits are the full compute's.
  const cases::CaseDefinition def = cases::liver_case(1.0);
  DoseEngine engine(
      cases::generate_beam(def, cases::build_phantom(def), 0).matrix,
      gpusim::make_a100(), Mode::kHalfDouble, kDefaultVectorTpb,
      SpmvFamily::kVector, Backend::kNative);
  const std::vector<double> w = base_weights_for(engine.num_spots(), 31);
  const std::vector<double> base = engine.compute(w);
  for (const double frac : {0.001, 0.1}) {
    const std::vector<double> w_new = perturb(w, frac, 37);
    std::vector<double> dose = base;
    const DoseEngine::DeltaRun run =
        engine.apply_delta(dose, w, w_new, DeltaMode::kBitwise);
    const bool full = frac > 0.01;
    EXPECT_EQ(run.full_compute, full) << frac;
    if (full) {
      EXPECT_EQ(run.touched_rows, engine.num_voxels());
      EXPECT_EQ(run.touched_nnz, engine.stats().nnz);
    } else {
      EXPECT_LT(run.touched_rows, engine.num_voxels() / 4);
      EXPECT_LT(run.touched_nnz, engine.stats().nnz);
    }
    expect_bitwise(dose, engine.compute(w_new),
                   full ? "10% full compute" : "0.1% replay");
  }
}

TEST(DeltaSidecar, FastModeEqualsTheAscendingScatterAdd) {
  // Bit-pin of the fast mode: dose += v·Δw in ascending column order,
  // ascending rows within a column, over the transpose of the widened stored
  // matrix — the recipe of a double-valued CSC.  Reading the stored values
  // and widening them on load must not move a single bit.
  for (const auto& ds : beams()) {
    for (const Mode mode : {Mode::kHalfDouble, Mode::kSingle, Mode::kDouble}) {
      DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), mode,
                        kDefaultVectorTpb, SpmvFamily::kVector,
                        Backend::kNative);
      const sparse::CsrF64 csc =
          sparse::transpose(engine.stored_matrix_as_double());
      const std::vector<double> w = base_weights_for(engine.num_spots(), 41);
      const std::vector<double> base = engine.compute(w);
      for (const double frac : {0.001, 0.01, 0.1}) {
        const std::vector<double> w_new = perturb(w, frac, 73);
        std::vector<double> oracle = base;
        for (std::uint64_t c = 0; c < csc.num_rows; ++c) {
          if (std::bit_cast<std::uint64_t>(w[c]) ==
              std::bit_cast<std::uint64_t>(w_new[c])) {
            continue;
          }
          const double dw = w_new[c] - w[c];
          for (std::uint32_t k = csc.row_ptr[c]; k < csc.row_ptr[c + 1]; ++k) {
            oracle[csc.col_idx[k]] += csc.values[k] * dw;
          }
        }
        const std::vector<double> fast =
            engine.compute_delta(base, w, w_new, DeltaMode::kFast);
        ASSERT_EQ(fast.size(), oracle.size());
        for (std::size_t r = 0; r < fast.size(); ++r) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(fast[r]),
                    std::bit_cast<std::uint64_t>(oracle[r]))
              << ds.label << " mode " << static_cast<int>(mode) << " frac "
              << frac << " row " << r;
        }
      }
    }
  }
}

#if defined(PD_NATIVE_F16C_DISPATCH)
/// One column axpy through the AVX2 body and through the scalar body, on the
/// same values, rows and Δw; the doses must agree bit for bit.
template <typename V>
void expect_axpy_variants_agree(const std::vector<V>& values,
                                const char* what) {
  const std::uint64_t n = values.size();
  std::vector<std::uint32_t> rows(n);  // ascending with gaps, like a column
  for (std::uint64_t k = 0; k < n; ++k) {
    rows[k] = static_cast<std::uint32_t>(2 * k + k % 2);
  }
  const std::vector<double> start = base_weights_for(2 * n + 2, 53);
  for (const double dw : {0.3, -1.75, 1e-300, 3.0e5}) {
    std::vector<double> scalar = start;
    std::vector<double> avx2 = start;
    csc_col_axpy_scalar(values.data(), rows.data(), n, dw, scalar.data());
    csc_col_axpy_avx2(values.data(), rows.data(), n, dw, avx2.data());
    expect_bitwise(avx2, scalar,
                   (std::string(what) + " n=" + std::to_string(n)).c_str());
  }
}

TEST(DeltaAxpy, Avx2AndScalarAgreeBitwiseForEveryStoredType) {
  if (!delta_axpy_has_avx2()) {
    GTEST_SKIP() << "host has no AVX2/F16C";
  }
  Rng rng(91);
  for (const std::uint64_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 13u, 64u, 1023u}) {
    std::vector<pd::Half> halves(n);
    std::vector<float> floats(n);
    std::vector<double> doubles(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      // Every third half is subnormal (bits 0x0001..0x03ff), some negative.
      const std::uint16_t bits =
          k % 3 == 0
              ? static_cast<std::uint16_t>(1 + rng.uniform_index(0x03ff))
              : static_cast<std::uint16_t>(0x0400 +
                                           rng.uniform_index(0x7800));
      halves[k] = pd::Half::from_bits(
          static_cast<std::uint16_t>(bits | (k % 5 == 0 ? 0x8000u : 0u)));
      floats[k] = static_cast<float>(rng.uniform(-2.0, 2.0)) *
                  (k % 4 == 0 ? 1e-40f : 1.0f);  // float subnormals too
      doubles[k] = rng.uniform(-2.0, 2.0);
    }
    expect_axpy_variants_agree(halves, "half");
    expect_axpy_variants_agree(floats, "float");
    expect_axpy_variants_agree(doubles, "double");
  }
}
#endif

// --- (b) the fast mode's derived bound --------------------------------------

/// Derived per-row tolerance for |fast_delta - full_compute(new)|:
///
///   bound_r = 4 n_r u (S_r + S'_r)  +  4 (m_r + 1) u (|base_r| + T_r)
///
/// S_r = Σ|v_k w_k|, S'_r = Σ|v_k w'_k| cover both full computes'
/// accumulation slack (each side within ~n·u of its exact sum, first-order);
/// the second term covers the m_r scatter-add roundings the fast update
/// performs on top of the base value (T_r = Σ_changed |v_k Δw_k| bounds the
/// running value's excursion; +1 for the product roundings).  u is 2^-24
/// when the bitwise side accumulates in float (Mode::kSingle), else 2^-53.
std::vector<double> derive_delta_bounds(const sparse::CsrF64& wide,
                                        const std::vector<double>& w,
                                        const std::vector<double>& w_new,
                                        const std::vector<double>& base,
                                        double acc_ulp) {
  std::vector<double> bound(wide.num_rows, 0.0);
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    const std::uint64_t n = wide.row_nnz(r);
    double s_base = 0.0, s_new = 0.0, t_delta = 0.0;
    std::uint64_t m = 0;
    for (std::uint32_t k = wide.row_ptr[r]; k < wide.row_ptr[r + 1]; ++k) {
      const std::uint32_t c = wide.col_idx[k];
      const double av = std::fabs(wide.values[k]);
      s_base += av * std::fabs(w[c]);
      s_new += av * std::fabs(w_new[c]);
      if (std::bit_cast<std::uint64_t>(w[c]) !=
          std::bit_cast<std::uint64_t>(w_new[c])) {
        t_delta += av * std::fabs(w_new[c] - w[c]);
        ++m;
      }
    }
    bound[r] = 4.0 * static_cast<double>(n) * acc_ulp * (s_base + s_new) +
               4.0 * static_cast<double>(m + 1) * acc_ulp *
                   (std::fabs(base[r]) + t_delta);
  }
  return bound;
}

TEST(DeltaFastBound, WithinDerivedBoundOnAllBeams) {
  for (const auto& ds : beams()) {
    for (const Mode mode : {Mode::kHalfDouble, Mode::kSingle}) {
      DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), mode,
                        kDefaultVectorTpb, SpmvFamily::kVector,
                        Backend::kNative);
      const std::vector<double> w = base_weights_for(engine.num_spots(), 31);
      const std::vector<double> w_new = perturb(w, 0.05, 67);
      const std::vector<double> base = engine.compute(w);
      const std::vector<double> full = engine.compute(w_new);
      const std::vector<double> fast =
          engine.compute_delta(base, w, w_new, DeltaMode::kFast);
      const double acc_ulp = mode == Mode::kSingle ? kUlp24 : kUlp53;
      const std::vector<double> bound = derive_delta_bounds(
          engine.stored_matrix_as_double(), w, w_new, base, acc_ulp);
      for (std::size_t r = 0; r < fast.size(); ++r) {
        ASSERT_LE(std::fabs(fast[r] - full[r]), bound[r])
            << ds.label << " row " << r;
      }
    }
  }
}

TEST(DeltaFastBound, CatchesAnOffByOneColumnBug) {
  // Tightness: a miscompiled full-recompute reference (every entry reads its
  // right neighbour's weight) must violate the bound on a decisive majority
  // of rows.  Every column changes so every nonempty row is exercised.
  const auto& ds = beams().front();
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  const std::vector<double> w = base_weights_for(engine.num_spots(), 1234);
  std::vector<double> w_new(w.size());
  for (std::size_t j = 0; j < w.size(); ++j) {
    w_new[j] = w[j] * 1.5 + 0.25;
  }
  const std::vector<double> base = engine.compute(w);
  const std::vector<double> fast =
      engine.compute_delta(base, w, w_new, DeltaMode::kFast);
  const sparse::CsrF64 wide = engine.stored_matrix_as_double();

  std::vector<double> buggy(wide.num_rows, 0.0);
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    double acc = 0.0;
    for (std::uint32_t k = wide.row_ptr[r]; k < wide.row_ptr[r + 1]; ++k) {
      acc += wide.values[k] * w_new[(wide.col_idx[k] + 1) % wide.num_cols];
    }
    buggy[r] = acc;
  }

  const std::vector<double> bound =
      derive_delta_bounds(wide, w, w_new, base, kUlp53);
  std::uint64_t violations = 0, nonempty = 0;
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    nonempty += wide.row_nnz(r) > 0 ? 1 : 0;
    violations += std::fabs(fast[r] - buggy[r]) > bound[r] ? 1 : 0;
  }
  EXPECT_GT(violations, nonempty / 2);
}

// --- tuner -------------------------------------------------------------------

TEST(DeltaTuner, ThresholdFromStreamedBytes) {
  // nnz/cols = 10 entries per column, 28 B each: updating every column would
  // stream 28000 B.  A full CSR pass streams 14000 B, so delta pays off only
  // below half the columns.
  const DeltaThreshold t = delta_threshold(14000, 1000, 100);
  EXPECT_EQ(t.full_bytes, 14000u);
  EXPECT_DOUBLE_EQ(t.delta_bytes_per_col, 280.0);
  EXPECT_DOUBLE_EQ(t.breakeven_changed_frac, 0.5);
  EXPECT_TRUE(t.prefer_delta(0.49));
  EXPECT_FALSE(t.prefer_delta(0.51));
}

TEST(DeltaTuner, TieGoesToFullRecompute) {
  const DeltaThreshold t = delta_threshold(14000, 1000, 100);
  // Exactly at breakeven the bytes are equal; full recompute wins the tie
  // (one sequential pass, no worklist bookkeeping).
  EXPECT_FALSE(t.prefer_delta(t.breakeven_changed_frac));
}

TEST(DeltaTuner, BreakevenCapsAtOneAndHandlesEmpty) {
  // CSR streams more than updating every column: delta always wins, but the
  // fraction is still capped at 1.
  EXPECT_DOUBLE_EQ(delta_threshold(1u << 20, 1000, 100).breakeven_changed_frac,
                   1.0);
  EXPECT_DOUBLE_EQ(delta_threshold(0, 0, 0).breakeven_changed_frac, 1.0);
  // On a real beam the threshold is a proper fraction: half-precision CSR
  // streams fewer bytes per nnz than the delta path's 28.
  const auto& ds = beams().front();
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  const sparse::MatrixStats& st = engine.stats();
  const DeltaThreshold t =
      delta_threshold(st.csr_bytes(2, 4), st.nnz, st.cols);
  EXPECT_GT(t.breakeven_changed_frac, 0.0);
  EXPECT_LT(t.breakeven_changed_frac, 1.0);
  EXPECT_TRUE(t.prefer_delta(0.01));
}

// --- service -----------------------------------------------------------------

sparse::CsrF64 plan_matrix() {
  Rng rng(77);
  return sparse::random_csr(rng, 300, 90, 12.0,
                            sparse::RandomStructure::kSkewed);
}

TEST(DeltaService, SubmitDeltaBitwiseDifferential) {
  constexpr std::uint64_t kCols = 90;
  service::ServiceConfig config;
  config.workers = 2;
  config.batch_cap = 4;
  config.flush_deadline_ms = 0.5;
  config.engine.device = gpusim::make_a100();
  config.engine.backend = Backend::kNative;
  service::DoseService svc(config);
  svc.register_plan("p", plan_matrix);

  DoseEngine oracle(plan_matrix(), gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);

  const std::vector<double> w0 = base_weights_for(kCols, 3);
  auto base = std::make_shared<service::DeltaBase>();
  base->key = 9;
  base->weights = w0;
  base->dose = oracle.compute(w0);

  struct Sent {
    service::Ticket ticket;
    std::vector<double> weights;
    bool is_delta;
  };
  std::vector<Sent> sent;
  for (int i = 0; i < 24; ++i) {
    if (i % 2 == 0) {
      std::vector<double> w_new = perturb(w0, 0.05, 500 + i);
      Sent s{svc.submit_delta("p", base, w_new), w_new, true};
      sent.push_back(std::move(s));
    } else {
      Rng rng(1000 + i);
      std::vector<double> w = sparse::random_vector(rng, kCols, 0.0, 2.0);
      Sent s{svc.submit("p", w), w, false};
      sent.push_back(std::move(s));
    }
  }
  svc.drain();
  for (Sent& s : sent) {
    service::DoseResult r = s.ticket.result.get();
    ASSERT_EQ(r.status, service::RequestStatus::kOk);
    // Both full and bitwise-delta requests meet the same contract: bitwise
    // identical to a sequential full compute of the request's weights.
    expect_bitwise(r.dose, oracle.compute(s.weights),
                   s.is_delta ? "delta request" : "full request");
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_GT(stats.delta_batches, 0u);
  EXPECT_GT(stats.batches, stats.delta_batches);  // full launches too
}

TEST(DeltaService, FastModeRequestStaysInBound) {
  service::ServiceConfig config;
  config.workers = 1;
  config.engine.device = gpusim::make_a100();
  config.engine.backend = Backend::kNative;
  service::DoseService svc(config);
  svc.register_plan("p", plan_matrix);

  DoseEngine oracle(plan_matrix(), gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  const std::vector<double> w0 = base_weights_for(90, 19);
  auto base = std::make_shared<service::DeltaBase>();
  base->weights = w0;
  base->dose = oracle.compute(w0);

  const std::vector<double> w_new = perturb(w0, 0.1, 23);
  service::DeltaOptions opts;
  opts.mode = DeltaMode::kFast;
  service::Ticket t = svc.submit_delta("p", base, w_new, opts);
  svc.drain();
  service::DoseResult r = t.result.get();
  ASSERT_EQ(r.status, service::RequestStatus::kOk);
  const std::vector<double> full = oracle.compute(w_new);
  const std::vector<double> bound = derive_delta_bounds(
      oracle.stored_matrix_as_double(), w0, w_new, base->dose, kUlp53);
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_LE(std::fabs(r.dose[i] - full[i]), bound[i]) << "row " << i;
  }
}

TEST(DeltaService, BadBaseFailsAloneAndNullBaseImmediately) {
  service::ServiceConfig config;
  config.workers = 1;
  config.batch_cap = 4;
  config.engine.device = gpusim::make_a100();
  config.engine.backend = Backend::kNative;
  service::DoseService svc(config);
  svc.register_plan("p", plan_matrix);

  service::Ticket null_t = svc.submit_delta("p", nullptr, {});
  service::DoseResult null_r = null_t.result.get();
  EXPECT_EQ(null_r.status, service::RequestStatus::kFailed);

  DoseEngine oracle(plan_matrix(), gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  const std::vector<double> w0 = base_weights_for(90, 29);
  auto good = std::make_shared<service::DeltaBase>();
  good->key = 1;
  good->weights = w0;
  good->dose = oracle.compute(w0);
  auto bad = std::make_shared<service::DeltaBase>();
  bad->key = 1;  // same exec key: coalesces with the good request
  bad->weights = w0;
  bad->dose = std::vector<double>(3, 0.0);  // wrong length

  const std::vector<double> w_new = perturb(w0, 0.05, 31);
  service::Ticket bad_t = svc.submit_delta("p", bad, w_new);
  service::Ticket good_t = svc.submit_delta("p", good, w_new);
  svc.drain();
  service::DoseResult bad_r = bad_t.result.get();
  service::DoseResult good_r = good_t.result.get();
  EXPECT_EQ(bad_r.status, service::RequestStatus::kFailed);
  ASSERT_EQ(good_r.status, service::RequestStatus::kOk);
  expect_bitwise(good_r.dose, oracle.compute(w_new), "good batch-mate");
}

TEST(DeltaService, QueueKeepsDeltaTrafficApartFromFullComputes) {
  // Delta exec keys live in their own key space (top bit) split by base key
  // and mode; the queue must never coalesce them with full computes or with
  // deltas against a different base.
  service::BatchQueue queue(service::BatchQueueConfig{8, 64, 1000});
  const std::uint32_t kDeltaBase5 = 0x80000000u | 5u;
  const std::uint32_t kDeltaBase5Fast = 0x80000000u | 0x40000000u | 5u;
  const std::uint32_t kDeltaBase6 = 0x80000000u | 6u;
  const auto push = [&](std::uint64_t id, std::uint32_t key) {
    service::QueuedRequest r;
    r.id = id;
    r.plan = "p";
    r.enqueue_tick = id;
    r.exec_key = key;
    ASSERT_TRUE(queue.submit(std::move(r)));
  };
  push(1, 0);             // full compute
  push(2, kDeltaBase5);   // delta, base 5
  push(3, kDeltaBase5);   // delta, base 5 — coalesces with 2
  push(4, kDeltaBase6);   // delta, base 6
  push(5, kDeltaBase5Fast);  // fast-mode delta, base 5

  const auto ids = [](const std::vector<service::QueuedRequest>& batch) {
    std::vector<std::uint64_t> v;
    for (const auto& r : batch) {
      v.push_back(r.id);
    }
    return v;
  };
  EXPECT_EQ(ids(queue.pop_ready(0, true)), (std::vector<std::uint64_t>{1}));
  queue.mark_idle("p");
  EXPECT_EQ(ids(queue.pop_ready(0, true)),
            (std::vector<std::uint64_t>{2, 3}));
  queue.mark_idle("p");
  EXPECT_EQ(ids(queue.pop_ready(0, true)), (std::vector<std::uint64_t>{4}));
  queue.mark_idle("p");
  EXPECT_EQ(ids(queue.pop_ready(0, true)), (std::vector<std::uint64_t>{5}));
  queue.mark_idle("p");
  EXPECT_EQ(queue.depth(), 0u);
}

// --- optimizer warm start ----------------------------------------------------

TEST(DeltaOptimizer, WarmStartKeepsTheTrajectoryBitwise) {
  // Identical configs except the warm start: the delta replay is bitwise
  // equal to the full compute, so weights, dose, and objective history must
  // match exactly — while the warm-started run serves some forward products
  // via compute_delta.
  const auto def = cases::prostate_case(0.2);
  const auto patient = cases::build_phantom(def);
  const sparse::CsrF64 D = cases::generate_beam(def, patient, 0).matrix;
  std::vector<double> probe(D.num_rows);
  sparse::reference_spmv(D, std::vector<double>(D.num_cols, 1.0), probe);
  double max_dose = 0.0;
  for (const double d : probe) max_dose = std::max(max_dose, d);
  const auto objective = opt::DoseObjective::standard_goals(
      patient, 0.5 * max_dose, 0.2 * max_dose);

  opt::OptimizerConfig off;
  off.max_iterations = 12;
  off.delta_warm_start = false;
  opt::OptimizerConfig on = off;
  on.delta_warm_start = true;
  // Force the warm start to engage regardless of the matrix's breakeven:
  // the projection won't pin enough spots in 12 iterations on this phantom.
  on.delta_changed_frac = 1.1;
  on.delta_stable_iters = 1;

  opt::PlanOptimizer opt_off(D, objective, gpusim::make_a100(), off);
  opt::PlanOptimizer opt_on(D, objective, gpusim::make_a100(), on);
  const opt::OptimizerResult r_off = opt_off.optimize();
  const opt::OptimizerResult r_on = opt_on.optimize();

  EXPECT_EQ(r_off.iterations, r_on.iterations);
  EXPECT_EQ(r_off.objective_history, r_on.objective_history);
  expect_bitwise(r_on.spot_weights, r_off.spot_weights, "weights");
  expect_bitwise(r_on.dose, r_off.dose, "dose");
  EXPECT_EQ(r_off.delta_spmv_count, 0u);
  EXPECT_EQ(r_off.warm_start_iteration, 0u);
  EXPECT_GT(r_on.delta_spmv_count, 0u);
  EXPECT_GT(r_on.warm_start_iteration, 0u);
  EXPECT_EQ(r_on.spmv_count, r_off.spmv_count);
}

TEST(DeltaOptimizer, SmallStepsReplayInsideTheLoop) {
  // Default warm-start gate on a plan whose active set shrinks to a few
  // spots.  Each spot's footprint is a short run of rows (spots overlap
  // their neighbours, as pencil beams do), the goals ask for dose only in
  // two spots' footprints and for none elsewhere, so the projection pins
  // every other spot at zero and the late steps change a few percent of the
  // weights.  A replay of such a step re-walks only a few footprints, so
  // some line-search products must be served by a replay (not a
  // full-compute fallback) — with every bit of the trajectory equal to the
  // warm-start-off run.
  constexpr std::uint32_t kSpots = 100;
  constexpr std::uint32_t kRowsPerSpot = 10;
  Rng rng(77);
  sparse::CooMatrix<double> coo;
  coo.num_rows = kSpots * kRowsPerSpot + 5;
  coo.num_cols = kSpots;
  for (std::uint32_t s = 0; s < kSpots; ++s) {
    for (std::uint32_t r = 0; r < kRowsPerSpot + 5; ++r) {
      coo.entries.push_back({s * kRowsPerSpot + r, s, rng.uniform(0.1, 1.0)});
    }
  }
  const sparse::CsrF64 D = sparse::coo_to_csr(coo);
  opt::ObjectiveTerm target{opt::ObjectiveTerm::Type::kUniformDose, {}, 1.0,
                            1.0};
  opt::ObjectiveTerm rest{opt::ObjectiveTerm::Type::kMaxDose, {}, 0.0, 50.0};
  for (std::uint64_t r = 0; r < D.num_rows; ++r) {
    const bool in_target = r >= 50 * kRowsPerSpot && r < 52 * kRowsPerSpot;
    (in_target ? target : rest).voxels.push_back(r);
  }
  opt::DoseObjective objective;
  objective.add_term(target);
  objective.add_term(rest);

  opt::OptimizerConfig on;
  on.max_iterations = 40;
  opt::OptimizerConfig off = on;
  off.delta_warm_start = false;

  opt::PlanOptimizer opt_on(D, objective, gpusim::make_a100(), on);
  opt::PlanOptimizer opt_off(D, objective, gpusim::make_a100(), off);
  const opt::OptimizerResult r_on = opt_on.optimize();
  const opt::OptimizerResult r_off = opt_off.optimize();

  EXPECT_EQ(r_on.iterations, r_off.iterations);
  EXPECT_EQ(r_on.objective_history, r_off.objective_history);
  expect_bitwise(r_on.spot_weights, r_off.spot_weights, "weights");
  expect_bitwise(r_on.dose, r_off.dose, "dose");
  EXPECT_EQ(r_on.spmv_count, r_off.spmv_count);
  EXPECT_EQ(r_off.delta_replay_count, 0u);
  EXPECT_GT(r_on.warm_start_iteration, 0u);
  EXPECT_GE(r_on.delta_replay_count, 1u);
  EXPECT_LE(r_on.delta_replay_count, r_on.delta_spmv_count);
}

}  // namespace
}  // namespace pd::kernels
