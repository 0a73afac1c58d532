#include "adapt/feedback.h"

namespace tango {
namespace adapt {

double QError(double estimated, double actual) {
  const double est = estimated < 1 ? 1 : estimated;
  const double act = actual < 1 ? 1 : actual;
  return est > act ? est / act : act / est;
}

double FeedbackStore::Record(uint64_t fingerprint,
                             const std::vector<Observation>& observations) {
  double worst = 1.0;
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double>& per_node = observed_[fingerprint];
  for (const Observation& o : observations) {
    if (o.node_key == 0) continue;
    per_node[o.node_key] = static_cast<double>(o.act_rows);
    const double q = QError(o.est_rows, static_cast<double>(o.act_rows));
    if (q > worst) worst = q;
  }
  return worst;
}

std::map<uint64_t, double> FeedbackStore::OverridesFor(
    uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = observed_.find(fingerprint);
  if (it == observed_.end()) return {};
  return it->second;
}

}  // namespace adapt
}  // namespace tango
