// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload serve-fleet|plan-robust --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints the host block, then as its last stdout line one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// for --trace 0, the per-layer metrics for --trace 1.  A run that fails a
// check prints correct=false with no metrics and exits 1.  run.py builds
// this binary.

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload serve-fleet|plan-robust --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (a == "--work-dir") {
        o.work_dir = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::exception&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
  return o;
}

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string metrics_json(const Metrics& m,
                         const std::vector<std::pair<std::string, std::string>>& names,
                         std::vector<std::string>& errors) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = m.find(name);
    if (it == m.end()) {
      errors.push_back("metric " + name + " was not measured");
      continue;
    }
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number(it->second.value)
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::cerr << "perfbench: refusing to measure: " << refusal << "\n";
    return 3;
  }

  Tracer tracer(opt.trace);
  RunResult r;
  try {
    if (opt.workload == "serve-fleet") {
      r = run_serve_fleet(opt, tracer);
    } else if (opt.workload == "plan-robust") {
      r = run_plan_robust(opt, tracer);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    r.errors.push_back(std::string("exception: ") + e.what());
  }

  if (r.attempted == 0 && r.errors.empty()) r.errors.push_back("nothing was attempted");

  // The ceiling is measured after the workload so its array never counts
  // toward peak_rss_mib.
  Host host = describe_host();
  measure_read_ceiling(host);
  if (opt.trace) finish_roofline(r.layer, host.ceiling_gbps());

  const std::string metrics =
      opt.trace ? metrics_json(r.layer, layer_metric_names(), r.errors)
                : metrics_json(r.e2e, e2e_metric_names(), r.errors);
  if (opt.trace) {
    const std::string path = opt.work_dir + "/traces/" + opt.workload + ".trace.json";
    tracer.write(path);
    std::cerr << "perfbench: " << tracer.size() << " spans written to " << path << "\n";
  }

  std::cout << "{\"host\": " << host.json() << ", \"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
            << ", \"trace\": " << (opt.trace ? 1 : 0) << "}\n";
  for (const std::string& e : r.errors) std::cerr << "perfbench: check failed: " << e << "\n";
  const bool correct = r.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(r.attempted, 1)
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << (correct ? metrics : std::string("{}")) << "}" << std::endl;
  return correct ? 0 : 1;
}
