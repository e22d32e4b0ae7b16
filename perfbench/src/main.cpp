// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-out <file>] [--scratch <dir>]
//             [--source <id>]
//
// Prints a provenance stamp and human-readable lines, then, as the last line
// of standard output, one JSON object: {correct, attempted, failed, metrics},
// with metrics a map from name to value. An untraced run reports the
// end-to-end metrics, a traced run the per-layer metrics of the layers the
// workload exercises; run.py completes the result from BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;
using perfbench::RunConfig;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <au-async-stabilize|au-sync-1m|"
               "mis-le-faults|service-mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--trace-out <file>] "
               "[--scratch <dir>] [--source <id>]\n";
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = std::stoull(value());
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      cfg.trace = t == "1";
    } else if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--trace-out") {
      cfg.trace_out = value();
    } else if (a == "--scratch") {
      cfg.scratch_dir = value();
    } else if (a == "--source") {
      cfg.source_id = value();
    } else {
      usage("unknown argument " + a);
    }
  }
  if (cfg.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");
  if (cfg.scratch_dir.empty()) cfg.scratch_dir = ".";
  if (cfg.source_id.empty()) cfg.source_id = "unknown";
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig cfg = parse(argc, argv);
  Report (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "au-async-stabilize") run = perfbench::run_au_async;
  if (cfg.workload == "au-sync-1m") run = perfbench::run_au_sync;
  if (cfg.workload == "mis-le-faults") run = perfbench::run_mis_le;
  if (cfg.workload == "service-mix") run = perfbench::run_service_mix;
  if (run == nullptr) usage("unknown workload " + cfg.workload);

  perfbench::print_stamp(cfg);
  Report r;
  try {
    r = run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (r.attempted == 0) {
    std::cerr << "perfbench: no operation was attempted\n";
    return 1;
  }
  std::printf("%s\n", r.json().c_str());
  return 0;
}
