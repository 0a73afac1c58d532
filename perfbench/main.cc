// perfbench: the repository benchmark. One invocation runs one workload
// and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Exits non-zero when an output or durability
// check fails. See README.md for the workloads and metric definitions.
//
//   perfbench --workload paper_queries|service_churn --seed N --seconds S
//             --trace 0|1 [--scale F]
//
// Run it from the checkout root: WAL segments and traces go under
// .bench_build/work there.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"

namespace tango {
namespace perfbench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_queries|service_churn "
               "--seed N --seconds S --trace 0|1 [--scale F]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--scale") {
      options->scale = std::atof(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0 && options->scale > 0 &&
         (options->workload == "paper_queries" ||
          options->workload == "service_churn");
}

/// JSON number with every digit; non-finite values (a metric that could
/// not be computed) print as 0.
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  const Report report = options.workload == "paper_queries"
                            ? RunPaperQueries(options)
                            : RunServiceChurn(options);

  std::printf("# workload %s seed %llu seconds %g trace %d scale %g\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.scale);
  for (const std::string& line : report.notes) {
    std::printf("# %s\n", line.c_str());
  }
  for (const Report::NamedMetric& m : report.named) {
    std::printf("# %-22s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double error_rate =
      report.attempted == 0
          ? 0
          : static_cast<double>(report.failed) / report.attempted;
  std::printf("# %-22s %14.6f ratio (%llu of %llu ops)\n", "error_rate",
              error_rate, static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  const std::vector<MetricSpec>& catalogue =
      options.trace ? PerLayerCatalogue() : EndToEndCatalogue();
  const std::map<std::string, double>& values =
      options.trace ? report.per_layer : report.end_to_end;
  std::string metrics;
  for (const MetricSpec& spec : catalogue) {
    const auto it = values.find(spec.name);
    const double v = it == values.end() ? 0 : it->second;
    std::printf("# %-28s %16.4f %s\n", spec.name.c_str(), v,
                spec.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + spec.name + "\": {\"value\": " + Number(v) +
               ", \"unit\": \"" + spec.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, report.attempted)),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace tango

int main(int argc, char** argv) { return tango::perfbench::Main(argc, argv); }
