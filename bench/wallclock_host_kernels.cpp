// Real wall-clock benchmarks (google-benchmark) of the host-side components:
// the reference SpMVs, the scratch-array CPU dose engine, format conversions
// and compression.  These complement the simulated-GPU figures with honest
// measured times on this machine.

#include <benchmark/benchmark.h>

#include <functional>

#include "bench_common.hpp"
#include "kernels/native_backend.hpp"
#include "rsformat/cpu_engine.hpp"
#include "rsformat/rsmatrix.hpp"
#include "sparse/convert.hpp"
#include "sparse/ell.hpp"
#include "sparse/parallel_spmv.hpp"
#include "sparse/reference.hpp"
#include "sparse/sellcs.hpp"

namespace {

const pd::bench::BenchBeam& beam() {
  // A quarter-scale liver beam keeps each iteration in the milliseconds.
  static const pd::bench::BenchBeam kBeam =
      pd::bench::load_case_beams("liver", 0.25).front();
  return kBeam;
}

void BM_ReferenceSpmv(benchmark::State& state) {
  const auto& D = beam().matrix;
  const std::vector<double> x(D.num_cols, 1.0);
  std::vector<double> y(D.num_rows);
  for (auto _ : state) {
    pd::sparse::reference_spmv(D, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(D.nnz()));
}
BENCHMARK(BM_ReferenceSpmv);

void BM_WarpOrderSpmv(benchmark::State& state) {
  const auto& D = beam().matrix;
  const std::vector<double> x(D.num_cols, 1.0);
  std::vector<double> y(D.num_rows);
  for (auto _ : state) {
    pd::sparse::warp_order_spmv(D, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(D.nnz()));
}
BENCHMARK(BM_WarpOrderSpmv);

void BM_ParallelRowSpmv(benchmark::State& state) {
  const auto& D = beam().matrix;
  const std::vector<double> x(D.num_cols, 1.0);
  std::vector<double> y(D.num_rows);
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    pd::sparse::parallel_spmv(D, x, y, threads);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(D.nnz()));
}
BENCHMARK(BM_ParallelRowSpmv)->Arg(1)->Arg(2)->Arg(4);

void BM_CpuDoseEngine(benchmark::State& state) {
  static const pd::rsformat::RsMatrix rs =
      pd::rsformat::RsMatrix::from_csr(beam().matrix);
  const std::vector<double> x(rs.num_cols(), 1.0);
  std::vector<double> y(rs.num_rows());
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    pd::rsformat::cpu_compute_dose(rs, x, y, threads);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rs.nnz()));
}
BENCHMARK(BM_CpuDoseEngine)->Arg(1)->Arg(2)->Arg(4);

void BM_CompressToRsFormat(benchmark::State& state) {
  const auto& D = beam().matrix;
  for (auto _ : state) {
    auto rs = pd::rsformat::RsMatrix::from_csr(D);
    benchmark::DoNotOptimize(rs.nnz());
  }
}
BENCHMARK(BM_CompressToRsFormat);

void BM_DecompressToCsr(benchmark::State& state) {
  static const pd::rsformat::RsMatrix rs =
      pd::rsformat::RsMatrix::from_csr(beam().matrix);
  for (auto _ : state) {
    auto csr = rs.to_csr();
    benchmark::DoNotOptimize(csr.nnz());
  }
}
BENCHMARK(BM_DecompressToCsr);

void BM_ConvertToHalf(benchmark::State& state) {
  const auto& D = beam().matrix;
  for (auto _ : state) {
    auto mh = pd::sparse::convert_values<pd::Half>(D);
    benchmark::DoNotOptimize(mh.values.data());
  }
}
BENCHMARK(BM_ConvertToHalf);

void BM_Transpose(benchmark::State& state) {
  const auto& D = beam().matrix;
  for (auto _ : state) {
    auto t = pd::sparse::transpose(D);
    benchmark::DoNotOptimize(t.nnz());
  }
}
BENCHMARK(BM_Transpose);

/// The optimizers' gradient-engine build: transpose one row block (the
/// middle half, like one scenario of a stacked forward engine) of the
/// half-precision storage.  Arg = native threads; 0 = all hardware threads.
void BM_TransposeHalfRowBlock(benchmark::State& state) {
  static const auto half =
      pd::sparse::convert_values<pd::Half>(beam().matrix);
  pd::kernels::NativeExecutor exec;
  exec.set_threads(static_cast<unsigned>(state.range(0)));
  const auto run = [&exec](std::size_t parts,
                           const std::function<void(std::size_t)>& fn) {
    exec.run(parts, fn);
  };
  const std::uint64_t begin = half.num_rows / 4;
  const std::uint64_t end = 3 * half.num_rows / 4;
  for (auto _ : state) {
    auto t = pd::sparse::transpose(half, begin, end, exec.resolved_threads(),
                                   run);
    benchmark::DoNotOptimize(t.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (half.row_ptr[end] - half.row_ptr[begin]));
}
BENCHMARK(BM_TransposeHalfRowBlock)->Arg(1)->Arg(0);

void BM_SellCsConversion(benchmark::State& state) {
  const auto& D = beam().matrix;
  for (auto _ : state) {
    auto s = pd::sparse::csr_to_sellcs(D, 32, 1024);
    benchmark::DoNotOptimize(s.values.data());
  }
}
BENCHMARK(BM_SellCsConversion);

}  // namespace

BENCHMARK_MAIN();
