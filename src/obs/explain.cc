#include "obs/explain.h"

#include <cmath>
#include <cstdio>

namespace tango {
namespace obs {

namespace {

std::string FormatSeconds(double seconds) {
  char buf[48];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  }
  return buf;
}

std::string FormatRows(double rows) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld",
                static_cast<long long>(std::llround(rows)));
  return buf;
}

void RenderOp(const AnalyzeReport& report, size_t id, int depth,
              std::string* out) {
  if (id >= report.ops.size()) return;
  const OpObservation& op = report.ops[id];
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += op.label;
  *out += " [";
  *out += op.site;
  *out += "]";

  // TRANSFER^D delivers its rows INTO the DBMS during Init and produces no
  // cursor output, so "actual rows" is not an output cardinality here.
  const bool loads_only = op.label == "TRANSFER^D";
  char buf[160];
  if (loads_only) {
    std::snprintf(buf, sizeof(buf), " rows est=%s act=- q=- batches=-",
                  FormatRows(op.est_rows).c_str());
  } else {
    std::snprintf(buf, sizeof(buf), " rows est=%s act=%llu q=%.2f batches=%llu",
                  FormatRows(op.est_rows).c_str(),
                  static_cast<unsigned long long>(op.act_rows),
                  QError(op.est_rows, static_cast<double>(op.act_rows)),
                  static_cast<unsigned long long>(op.act_batches));
  }
  *out += buf;

  std::snprintf(buf, sizeof(buf), " cost=%.0fus self=%s incl=%s",
                op.est_cost_us, FormatSeconds(op.self_seconds).c_str(),
                FormatSeconds(op.inclusive_seconds).c_str());
  *out += buf;
  *out += "\n";

  for (size_t child : op.children) {
    RenderOp(report, child, depth + 1, out);
  }
}

}  // namespace

double QError(double estimated, double actual) {
  const double est = estimated < 1 ? 1 : estimated;
  const double act = actual < 1 ? 1 : actual;
  return est > act ? est / act : act / est;
}

std::string RenderAnalyzeTree(const AnalyzeReport& report) {
  std::string out;
  RenderOp(report, report.root, 0, &out);
  return out;
}

}  // namespace obs
}  // namespace tango
