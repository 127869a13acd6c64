// Wallclock of the native host backend vs the gpusim backend on Liver 1.
//
// The native backend exists so the downstream consumers the paper motivates
// (optimizer / robust-optimizer inner loops, §I-II) stop paying simulator
// overhead for products whose counters they never read — while staying
// bitwise identical to the simulated kernels (tests/test_native_backend.cpp
// enforces it).  This bench records what that buys: dose products per second
// for the native backend at 1/2/4 threads against gpusim functional-only and
// full trace-replay, plus the batched multi-scenario traversal (K=9, the
// robust-planning shape) against K looped single products, and which row
// kernel the default storage ran (AVX2 or scalar) with a check that its dose
// is bitwise the scalar body's on every row of the beam.  Results land in
// bench_results/wallclock_native_backend.csv and BENCH_native.json.

#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gpusim/simcheck.hpp"
#include "gpusim/trace.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/native_spmv.hpp"
#include "sparse/convert.hpp"
#include "sparse/random.hpp"

namespace {

using pd::kernels::DoseEngine;

struct ModeResult {
  std::string name;
  double seconds_per_product = 0.0;
  double speedup_vs_functional = 0.0;
};

std::string fmt(double v, int prec = 3) {
  std::ostringstream os;
  os << std::setprecision(prec) << std::fixed << v;
  return os.str();
}

/// Time `body()` (one dose product per call) with the standard warm-up +
/// "at least 5 reps and 0.4 s" loop; returns seconds per call.
template <typename Body>
double time_per_call(const Body& body) {
  body();  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  int reps = 0;
  double elapsed = 0.0;
  do {
    body();
    ++reps;
    elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } while (reps < 5 || elapsed < 0.4);
  return elapsed / reps;
}

}  // namespace

int main() {
  const double scale = pd::bench::bench_scale();
  pd::bench::print_banner("wallclock_native_backend",
                          "native host backend vs gpusim (bitwise identical)",
                          scale);
  const auto beams = pd::bench::load_case_beams("liver", scale);
  const auto& beam = beams.front();

  pd::Rng rng(2023);
  const std::vector<double> x =
      pd::sparse::random_vector(rng, beam.matrix.num_cols, 0.5, 2.0);

  auto make_engine = [&](DoseEngine::Backend backend) {
    return DoseEngine(pd::sparse::CsrF64(beam.matrix), pd::gpusim::make_a100(),
                      DoseEngine::Mode::kHalfDouble,
                      pd::kernels::kDefaultVectorTpb,
                      pd::kernels::SpmvFamily::kVector, backend);
  };

  std::vector<ModeResult> results;
  {
    DoseEngine engine = make_engine(DoseEngine::Backend::kGpusim);
    engine.set_engine_options({pd::gpusim::TraceMode::kFunctionalOnly, 0});
    results.push_back({"gpusim_functional_only",
                       time_per_call([&] { engine.compute(x); }), 0.0});
    engine.set_engine_options({pd::gpusim::TraceMode::kTraceReplay, 0});
    results.push_back({"gpusim_trace_replay",
                       time_per_call([&] { engine.compute(x); }), 0.0});
  }
  for (const unsigned threads : {1u, 2u, 4u}) {
    DoseEngine engine = make_engine(DoseEngine::Backend::kNative);
    engine.set_native_threads(threads);
    results.push_back({"native_" + std::to_string(threads) + "t",
                       time_per_call([&] { engine.compute(x); }), 0.0});
  }
  const double functional_s = results.front().seconds_per_product;
  for (auto& r : results) {
    r.speedup_vs_functional = functional_s / r.seconds_per_product;
  }

  // Batched multi-scenario shape: K=9 weight vectors (nominal + 8 error
  // scenarios), one stacked traversal vs K looped products, both native.
  constexpr std::size_t kBatch = 9;
  const std::vector<double> batch_weights = pd::sparse::random_vector(
      rng, kBatch * beam.matrix.num_cols, 0.5, 2.0);
  DoseEngine batch_engine = make_engine(DoseEngine::Backend::kNative);
  batch_engine.set_native_threads(1);
  const double batched_s = time_per_call(
      [&] { batch_engine.compute_batch(batch_weights, kBatch); });
  const double looped_s = time_per_call([&] {
    for (std::size_t j = 0; j < kBatch; ++j) {
      batch_engine.compute(std::span<const double>(
          batch_weights.data() + j * beam.matrix.num_cols,
          beam.matrix.num_cols));
    }
  });
  const double batched_speedup = looped_s / batched_s;

  // Row kernel of the default storage (half values, double accumulation):
  // the dispatched body against the scalar oracle on every row, one thread.
  const auto half = pd::sparse::convert_values<pd::Half>(beam.matrix);
  const char* row_kernel =
      pd::kernels::native_row_kernel_name<double, pd::Half, std::uint32_t>(
          half.num_cols);
  std::vector<double> y_scalar(half.num_rows);
  std::vector<double> y_dispatched(half.num_rows);
  const auto all_rows = [&](bool scalar, std::vector<double>& y) {
    for (std::uint64_t r = 0; r < half.num_rows; ++r) {
      y[r] = scalar ? pd::kernels::native_row_product_scalar(
                          half.values.data(), half.col_idx.data(), x.data(),
                          half.row_ptr[r], half.row_ptr[r + 1])
                    : pd::kernels::native_row_product(
                          half.values.data(), half.col_idx.data(), x.data(),
                          half.row_ptr[r], half.row_ptr[r + 1], half.num_cols);
    }
  };
  const double row_scalar_s = time_per_call([&] { all_rows(true, y_scalar); });
  const double row_dispatched_s =
      time_per_call([&] { all_rows(false, y_dispatched); });
  bool row_kernel_bitwise = true;
  for (std::uint64_t r = 0; r < half.num_rows; ++r) {
    row_kernel_bitwise =
        row_kernel_bitwise && std::bit_cast<std::uint64_t>(y_scalar[r]) ==
                                  std::bit_cast<std::uint64_t>(y_dispatched[r]);
  }

  pd::TextTable table({"backend", "ms / product", "speedup vs functional"});
  for (const auto& r : results) {
    table.add_row({r.name, fmt(r.seconds_per_product * 1e3),
                   fmt(r.speedup_vs_functional, 2) + "x"});
  }
  std::cout << table.str() << "\n";
  std::cout << "batched K=" << kBatch << " (native, 1 thread): "
            << fmt(batched_s * 1e3) << " ms vs looped "
            << fmt(looped_s * 1e3) << " ms -> " << fmt(batched_speedup, 2)
            << "x (one matrix traversal for all scenarios)\n";
  std::cout << "row kernel " << row_kernel << ": "
            << fmt(row_dispatched_s * 1e3) << " ms vs scalar "
            << fmt(row_scalar_s * 1e3) << " ms per product (1 thread), "
            << (row_kernel_bitwise ? "bitwise equal" : "BITS DIFFER") << "\n";
  std::cout << "every row above produces bitwise-identical dose (see "
               "tests/test_native_backend.cpp)\n\n";

  std::vector<std::vector<std::string>> rows;
  for (const auto& r : results) {
    rows.push_back({beam.label, r.name, fmt(r.seconds_per_product * 1e6, 1),
                    fmt(r.speedup_vs_functional, 3)});
  }
  rows.push_back({beam.label, "native_1t_batched_k9",
                  fmt(batched_s / kBatch * 1e6, 1),
                  fmt(functional_s / (batched_s / kBatch), 3)});
  pd::bench::write_csv("wallclock_native_backend",
                       {"beam", "backend", "us_per_product",
                        "speedup_vs_functional"},
                       rows);

  std::ofstream json("BENCH_native.json");
  json << "{\n";
  json << "  \"bench\": \"wallclock_native_backend\",\n";
  json << "  \"beam\": \"" << beam.label << "\",\n";
  json << "  \"scale\": " << scale << ",\n";
  json << "  \"kernel\": \"vector_csr<half,double> (DoseEngine, kHalfDouble)\",\n";
  // DoseEngine auto-enables the analyzer under PROTONDOSE_SIMCHECK; brand the
  // record so scripts/check_bench_results.sh can reject checked-run numbers.
  json << "  \"simcheck\": "
       << (pd::gpusim::simcheck_env_enabled() ? "true" : "false") << ",\n";
  json << "  \"modes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"mode\": \"" << r.name << "\", \"us_per_product\": "
         << fmt(r.seconds_per_product * 1e6, 1)
         << ", \"speedup_vs_functional\": " << fmt(r.speedup_vs_functional, 3)
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"batch\": {\"k\": " << kBatch
       << ", \"us_batched\": " << fmt(batched_s * 1e6, 1)
       << ", \"us_looped\": " << fmt(looped_s * 1e6, 1)
       << ", \"batched_speedup\": " << fmt(batched_speedup, 3) << "},\n";
  json << "  \"row_kernel\": \"" << row_kernel << "\",\n";
  json << "  \"row_kernel_us\": {\"scalar\": " << fmt(row_scalar_s * 1e6, 1)
       << ", \"dispatched\": " << fmt(row_dispatched_s * 1e6, 1) << "},\n";
  json << "  \"row_kernel_bitwise\": "
       << (row_kernel_bitwise ? "true" : "false") << "\n";
  json << "}\n";
  std::cout << "wrote BENCH_native.json\n";
  return row_kernel_bitwise ? 0 : 1;
}
