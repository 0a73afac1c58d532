#ifndef TANGO_EXEC_PERIODS_H_
#define TANGO_EXEC_PERIODS_H_

#include <cstdint>
#include <vector>

#include "common/value.h"

namespace tango {
namespace exec {

/// \brief The period endpoints [T1, T2) of the rows an operator buffers: a
/// TAGGR^M group, a TJOIN^M right key group.
///
/// They are kept as int64 while every endpoint is an int (day numbers, the
/// only kind the paper's relations hold), so the sweep and the overlap test
/// compare machine integers. The first endpoint that is not an int (a
/// double, a NULL) switches the buffer to Values, converting the ints kept
/// so far, and every comparison then goes through `Value::Compare` exactly
/// as before.
struct PeriodColumns {
  bool ints = true;
  std::vector<int64_t> t1, t2;  // while `ints`
  std::vector<Value> v1, v2;    // once not

  size_t size() const { return ints ? t1.size() : v1.size(); }

  void Clear() {
    ints = true;
    t1.clear();
    t2.clear();
    v1.clear();
    v2.clear();
  }

  void Append(const Value& start, const Value& end) {
    if (ints && start.is_int() && end.is_int()) {
      t1.push_back(start.AsInt());
      t2.push_back(end.AsInt());
      return;
    }
    if (ints) {
      ints = false;
      for (size_t i = 0; i < t1.size(); ++i) {
        v1.emplace_back(t1[i]);
        v2.emplace_back(t2[i]);
      }
    }
    v1.push_back(start);
    v2.push_back(end);
  }

  /// Row `i`'s endpoints as Values, whichever way they are kept.
  Value Start(size_t i) const { return ints ? Value(t1[i]) : v1[i]; }
  Value End(size_t i) const { return ints ? Value(t2[i]) : v2[i]; }
};

}  // namespace exec
}  // namespace tango

#endif  // TANGO_EXEC_PERIODS_H_
