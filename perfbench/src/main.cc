// Stream-reasoning benchmark: command-line entry point.
//
//   perfbench --workload traffic|reach-sliding|tenants --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Diagnostic lines go before the last line of standard output, which is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set of the traced run (see README.md).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

using perfbench::Fail;
using perfbench::Options;
using perfbench::RunReport;

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (options.seconds <= 0) Fail("--seconds must be positive");
  return options;
}

void PrintReport(const RunReport& report) {
  for (const perfbench::Metric& d : report.diagnostics) {
    std::printf("diag %s=%.6g %s\n", d.name.c_str(), d.value, d.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const double calibration_start = perfbench::CalibrationMs();
  RunReport report;
  if (options.workload == "traffic" || options.workload == "reach-sliding") {
    report = perfbench::RunEngineWorkload(options);
  } else if (options.workload == "tenants") {
    report = perfbench::RunTenantsWorkload(options);
  } else {
    Fail("unknown workload '" + options.workload + "'");
  }
  // Host-speed probe: a slow host phase shows as a longer calibration
  // loop at either end of the run, independently of the engine.
  report.Diag("bench.calibration_start_ms", calibration_start, "ms");
  report.Diag("bench.calibration_end_ms", perfbench::CalibrationMs(), "ms");
  if (report.attempted == 0) Fail("no windows were attempted");
  PrintReport(report);
  return 0;
}
