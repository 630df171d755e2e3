// perfbench: the repo benchmark's runner binary.
//
//   perfbench --workload <ingest|read_mostly|wire_fanin> --seed <n>
//             --seconds <s> --trace <0|1> [--toy] [--break-check <name>]
//             [--out-dir <dir>]
//
// Generates the workload's inputs from the seed, sets the system up
// several times (setup_s is the median), runs it for --seconds, checks
// its outputs, and prints the environment record, a metric table, the
// check log and, as the last line, one JSON result object. --trace 0
// reports the end-to-end metrics; --trace 1 makes the separate traced
// run and reports the per-layer metrics. Exit status 1 when a
// correctness check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ingest|read_mostly|wire_fanin> --seed <n> --seconds <s> "
               "--trace <0|1> [--toy] [--break-check <name>] "
               "[--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--toy") {
      cfg.toy = true;
      continue;
    }
    if (value == nullptr) return Usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--break-check") {
      cfg.break_check = value;
    } else if (arg == "--out-dir") {
      cfg.out_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!(cfg.seconds > 0.0) || cfg.seconds > 120.0) {
    return Usage("--seconds must be in (0, 120]");
  }

  perfbench::Checks checks(cfg.break_check);
  perfbench::RunResult result;
  if (cfg.workload == "ingest") {
    result = perfbench::RunIngest(cfg, &checks);
  } else if (cfg.workload == "read_mostly") {
    result = perfbench::RunReadMostly(cfg, &checks);
  } else if (cfg.workload == "wire_fanin") {
    result = perfbench::RunWireFanin(cfg, &checks);
  } else {
    return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }

  checks.Check("bench.break_check", checks.broken_consulted(),
               cfg.break_check.empty() ? "none requested"
                                       : "perturbed " + cfg.break_check);
  std::printf("env %s\n", perfbench::EnvironmentJson(cfg.seed).c_str());
  std::printf("metrics (%s, seed %llu, %s run):\n%s", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "traced" : "untraced",
              result.metrics.Table().c_str());
  for (const std::string& line : checks.log()) {
    std::printf("check %s\n", line.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      checks.ok() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      result.metrics.Json().c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}
