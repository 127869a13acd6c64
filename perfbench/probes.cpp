// Kernel probe phase of a traced run: DoseEngine called directly on the
// workload's own matrices at the workload's thread setting, so each layer's
// time and computed bandwidth can be read beside the end-to-end numbers.

#include <span>

#include "bench.hpp"
#include "kernels/tuner.hpp"
#include "sparse/coo.hpp"
#include "sparse/partition.hpp"

namespace perfbench {
namespace {

using E = pd::kernels::DoseEngine;

/// Median wall time (ms) of `fn` over at least `min_reps` calls and at
/// least 0.3 s, after one warm call.
template <typename Fn>
double time_ms(Fn&& fn, unsigned min_reps = 15) {
  fn();
  std::vector<double> ms;
  const auto start = Clock::now();
  while (ms.size() < min_reps || s_between(start, Clock::now()) < 0.3) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

template <typename Fn>
double once_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

const char* format_name(E::FastFormat f) {
  switch (f) {
    case E::FastFormat::kRsFormat: return "rsformat";
    case E::FastFormat::kSellCs: return "sellcs";
    case E::FastFormat::kSellCsQ: return "sellcsq";
    case E::FastFormat::kAuto: break;
  }
  return "auto";
}

/// Bytes one product streams besides the matrix: read x, write y.
double vector_bytes(const E& e) {
  return 8.0 * static_cast<double>(e.num_spots() + e.num_voxels());
}

}  // namespace

Metrics probe_kernels(const std::vector<const pd::sparse::CsrF64*>& plans,
                      const std::vector<pd::sparse::CsrF64>& scenarios,
                      unsigned threads, double changed_frac, std::uint64_t seed,
                      Tracer& tracer) {
  Metrics m;
  const auto traced = [&](const char* name, auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    tracer.span(name, "probe", t0, Clock::now());
  };

  // Build-side costs per plan (median over the workload's plans).
  std::vector<double> build, fast_build, sidecar, tune;
  pd::kernels::TuneOptions tune_opts;
  tune_opts.trials = 0;  // the byte model alone: the same choice every run
  for (const auto* matrix : plans) {
    std::unique_ptr<E> engine;
    traced("probe.engine_build", [&] {
      build.push_back(once_ms([&] {
        engine = std::make_unique<E>(make_engine(pd::sparse::CsrF64(*matrix), threads));
      }));
    });
    pd::kernels::TunedConfig tuned;
    traced("probe.tune", [&] {
      tune.push_back(once_ms([&] { tuned = pd::kernels::autotune_fast_tier(*engine, tune_opts); }));
    });
    traced("probe.sidecar_build", [&] {
      sidecar.push_back(once_ms([&] { engine->csc_sidecar(); }));
    });
    E fresh = make_engine(pd::sparse::CsrF64(*matrix), threads);
    traced("probe.fast_build", [&] {
      fast_build.push_back(once_ms([&] { fresh.set_tier(E::Tier::kFast, tuned.format); }));
    });
  }
  m["kernels.engine_build_ms"] = {median(build), "ms"};
  m["kernels.fast_build_ms"] = {median(fast_build), "ms"};
  m["kernels.sidecar_build_ms"] = {median(sidecar), "ms"};
  m["kernels.tune_ms"] = {median(tune), "ms"};

  // Product timings on the first plan.
  Stream rng(seed ^ 0x9e3779b97f4a7c15ull);
  E engine = make_engine(pd::sparse::CsrF64(*plans.front()), threads);
  const auto w = random_weights(rng, engine.num_spots());
  const double bitwise_bytes =
      static_cast<double>(engine.stats().nnz) * (2.0 + 4.0) +
      4.0 * static_cast<double>(engine.num_voxels() + 1) + vector_bytes(engine);
  traced("probe.bitwise", [&] {
    const double ms = time_ms([&] { engine.compute(w); });
    m["kernels.bitwise_ms"] = {ms, "ms"};
    m["kernels.bitwise_bytes"] = {bitwise_bytes, "B"};
    m["kernels.bitwise_gbps"] = {bitwise_bytes / ms / 1e6, "GB/s"};
  });
  traced("probe.batch8", [&] {
    std::vector<double> ws;
    for (int k = 0; k < 8; ++k) {
      const auto wk = random_weights(rng, engine.num_spots());
      ws.insert(ws.end(), wk.begin(), wk.end());
    }
    m["kernels.batch8_ms_per_dose"] = {time_ms([&] { engine.compute_batch(ws, 8); }) / 8.0, "ms"};
  });
  for (const E::FastFormat f :
       {E::FastFormat::kRsFormat, E::FastFormat::kSellCs, E::FastFormat::kSellCsQ}) {
    engine.set_tier(E::Tier::kFast, f);
    const double container = static_cast<double>(
        f == E::FastFormat::kRsFormat ? engine.fast_rs_matrix().bytes()
        : f == E::FastFormat::kSellCs ? engine.fast_sell_matrix().bytes()
                                      : engine.fast_sellq_matrix().bytes());
    const std::string p = std::string("kernels.fast_") + format_name(f);
    traced("probe.fast", [&] {
      const double ms = time_ms([&] { engine.compute(w); });
      m[p + "_ms"] = {ms, "ms"};
      m[p + "_gbps"] = {(container + vector_bytes(engine)) / ms / 1e6, "GB/s"};
    });
  }
  engine.set_tier(E::Tier::kBitwise);

  const std::vector<double> base = engine.compute(w);
  const auto w_new = perturb_weights(rng, w, changed_frac);
  engine.csc_sidecar();
  traced("probe.delta_bitwise", [&] {
    m["kernels.delta_bitwise_ms"] = {
        time_ms([&] { engine.compute_delta(base, w, w_new, E::DeltaMode::kBitwise); }), "ms"};
  });
  traced("probe.delta_fast", [&] {
    m["kernels.delta_fast_ms"] = {
        time_ms([&] { engine.compute_delta(base, w, w_new, E::DeltaMode::kFast); }), "ms"};
  });

  // The optimizer's products: the stacked scenario forward and one
  // scenario's transpose, plus the transpose construction itself.
  m["kernels.robust_forward_ms"] = {0.0, "ms"};
  m["kernels.robust_transpose_ms"] = {0.0, "ms"};
  m["sparse.transpose_ms"] = {0.0, "ms"};
  if (!scenarios.empty()) {
    {
      E stacked = make_engine(
          pd::sparse::vstack_rows(std::span<const pd::sparse::CsrF64>(scenarios)), threads);
      const auto x = random_weights(rng, stacked.num_spots());
      traced("probe.robust_forward", [&] {
        m["kernels.robust_forward_ms"] = {time_ms([&] { stacked.compute(x); }), "ms"};
      });
    }
    pd::sparse::CsrF64 t;
    traced("probe.sparse_transpose", [&] {
      m["sparse.transpose_ms"] = {
          time_ms([&] { t = pd::sparse::transpose(scenarios.front()); }, 3), "ms"};
    });
    E transposed = make_engine(std::move(t), threads);
    const auto g = random_weights(rng, transposed.num_spots());
    traced("probe.robust_transpose", [&] {
      m["kernels.robust_transpose_ms"] = {time_ms([&] { transposed.compute(g); }), "ms"};
    });
  }
  return m;
}

void finish_roofline(Metrics& layer, double ceiling_gbps) {
  for (const char* p : {"kernels.bitwise", "kernels.fast_rsformat", "kernels.fast_sellcs",
                        "kernels.fast_sellcsq"}) {
    const auto it = layer.find(std::string(p) + "_gbps");
    const double gbps = it == layer.end() ? 0.0 : it->second.value;
    layer[std::string(p) + "_roof_frac"] = {ceiling_gbps > 0.0 ? gbps / ceiling_gbps : 0.0,
                                            "fraction"};
  }
  layer["host.read_ceiling_gbps"] = {ceiling_gbps, "GB/s"};
}

}  // namespace perfbench
