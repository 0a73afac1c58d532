#include "common/date.h"

#include <cstdio>

namespace tango {
namespace date {

// Howard Hinnant's civil-calendar algorithms (public domain derivation).
int64_t FromYmd(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);           // [0, 399]
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void ToYmd(int64_t days, int* year, int* month, int* day) {
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(days - era * 146097);      // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);         // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                              // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                      // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                           // [1, 12]
  *year = static_cast<int>(y + (m <= 2));
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

Result<int64_t> Parse(const std::string& text) {
  int y = 0, m = 0, d = 0;
  char extra = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d%c", &y, &m, &d, &extra) != 3 ||
      m < 1 || m > 12 || d < 1 || d > 31) {
    return Status::ParseError("invalid date literal: " + text);
  }
  return FromYmd(y, m, d);
}

std::string Format(int64_t days) {
  int y, m, d;
  ToYmd(days, &y, &m, &d);
  // Sized for any three ints (11 characters each), not just real dates, so
  // the output can never be truncated.
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

}  // namespace date
}  // namespace tango
