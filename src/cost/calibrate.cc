#include "cost/calibrate.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/rng.h"
#include "exec/basic.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "exec/taggr.h"

namespace tango {
namespace cost {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall-clock microseconds of draining a cursor block by block, the way
/// the executor drains a plan.
Result<double> TimeCursor(Cursor* cursor, size_t* rows_out = nullptr) {
  const auto start = Clock::now();
  TANGO_RETURN_IF_ERROR(cursor->Init());
  RowBlock block;
  size_t rows = 0;
  while (true) {
    TANGO_ASSIGN_OR_RETURN(const size_t n, cursor->NextBatch(&block));
    if (n == 0) break;
    rows += n;
  }
  if (rows_out != nullptr) *rows_out = rows;
  return SecondsSince(start) * 1e6;
}

/// Total encoded bytes of a rowset (the size(r) the formulas weigh).
double RowBytes(const std::vector<Tuple>& rows) {
  double bytes = 0;
  for (const Tuple& t : rows) bytes += static_cast<double>(TupleByteSize(t));
  return bytes;
}

/// Solves t = p * s for one factor from two probes by least squares through
/// the origin; keeps the old factor if the probes were degenerate.
void FitOne(double* factor, double t1, double s1, double t2, double s2) {
  const double denom = s1 * s1 + s2 * s2;
  if (denom <= 0) return;
  const double p = (t1 * s1 + t2 * s2) / denom;
  if (p > 0 && std::isfinite(p)) *factor = p;
}

/// Solves t_i = a*in_i + b*out_i from two probes (2x2 linear system).
void FitTwo(double* a, double* b, double t1, double in1, double out1,
            double t2, double in2, double out2) {
  const double det = in1 * out2 - in2 * out1;
  if (std::abs(det) < 1e-9) {
    // Degenerate: attribute everything to the input term.
    FitOne(a, t1, in1, t2, in2);
    return;
  }
  const double na = (t1 * out2 - t2 * out1) / det;
  const double nb = (in1 * t2 - in2 * t1) / det;
  if (na > 0 && std::isfinite(na)) *a = na;
  if (nb > 0 && std::isfinite(nb)) *b = nb;
}

Schema ProbeSchema() {
  return Schema({{"", "ID", DataType::kInt},
                 {"", "K", DataType::kInt},
                 {"", "PAD", DataType::kString},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
}

std::vector<Tuple> ProbeRows(size_t n, uint64_t seed, int64_t distinct_k) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t t1 = rng.Uniform(0, 5000);
    rows.push_back({Value(static_cast<int64_t>(i)),
                    Value(rng.Uniform(0, distinct_k - 1)),
                    Value(rng.Identifier(16)), Value(t1),
                    Value(t1 + rng.Uniform(1, 200))});
  }
  return rows;
}

std::vector<Tuple> SortedBy(std::vector<Tuple> rows,
                            std::vector<SortKey> keys) {
  TupleComparator cmp(std::move(keys));
  std::stable_sort(rows.begin(), rows.end(), cmp);
  return rows;
}

}  // namespace

std::string CalibrationReport::ToString() const {
  return "calibration (" + std::to_string(probe_seconds) + "s)\n  before: " +
         before.ToString() + "\n  after:  " + after.ToString();
}

Status Calibrator::SetUpProbes() {
  TANGO_RETURN_IF_ERROR(
      conn_->Execute("CREATE TABLE CALIB_PROBE (ID INT, K INT, "
                     "PAD VARCHAR(16), T1 INT, T2 INT)")
          .status());
  TANGO_RETURN_IF_ERROR(conn_->BulkLoad(
      "CALIB_PROBE", ProbeRows(options_.probe_rows, options_.seed, 64)));
  return conn_->Execute("ANALYZE CALIB_PROBE").status();
}

void Calibrator::TearDownProbes() {
  (void)conn_->Execute("DROP TABLE CALIB_PROBE");
}

Result<CalibrationReport> Calibrator::Calibrate(CostModel* model) {
  CalibrationReport report;
  report.before = model->factors();
  const auto start = Clock::now();

  TANGO_RETURN_IF_ERROR(SetUpProbes());
  CostFactors& f = model->factors();
  const size_t n = options_.probe_rows;

  // ---- TRANSFER^M: fetch full and half probes, fit per-byte factor. ----
  {
    double t[2], s[2];
    const char* queries[2] = {
        "SELECT ID, K, PAD, T1, T2 FROM CALIB_PROBE",
        "SELECT ID, K, PAD, T1, T2 FROM CALIB_PROBE WHERE ID < %HALF%"};
    for (int i = 0; i < 2; ++i) {
      std::string sql = queries[i];
      const size_t pos = sql.find("%HALF%");
      if (pos != std::string::npos) {
        sql.replace(pos, 6, std::to_string(n / 2));
      }
      const uint64_t bytes_before = conn_->counters().bytes_to_client;
      TANGO_ASSIGN_OR_RETURN(CursorPtr cur, conn_->ExecuteQuery(sql));
      TANGO_ASSIGN_OR_RETURN(t[i], TimeCursor(cur.get()));
      s[i] = static_cast<double>(conn_->counters().bytes_to_client -
                                 bytes_before);
      t[i] = std::max(0.0, t[i] - f.stmt);
    }
    FitOne(&f.tm, t[0], s[0], t[1], s[1]);
  }

  // Local probe data for the middleware algorithms (no wire involved).
  std::vector<Tuple> full = ProbeRows(n, options_.seed + 1, 64);
  std::vector<Tuple> half(full.begin(), full.begin() + n / 2);
  const double full_bytes = RowBytes(full);
  const double half_bytes = RowBytes(half);

  // ---- TRANSFER^D: create + bulk load two sizes. ----
  {
    double t[2];
    const double s[2] = {full_bytes, half_bytes};
    const std::vector<Tuple>* data[2] = {&full, &half};
    for (int i = 0; i < 2; ++i) {
      TANGO_RETURN_IF_ERROR(
          conn_->Execute("CREATE TABLE CALIB_TD (ID INT, K INT, "
                         "PAD VARCHAR(16), T1 INT, T2 INT)")
              .status());
      const auto t0 = Clock::now();
      TANGO_RETURN_IF_ERROR(conn_->BulkLoad("CALIB_TD", *data[i]));
      t[i] = std::max(0.0, SecondsSince(t0) * 1e6 - f.stmt);
      TANGO_RETURN_IF_ERROR(conn_->Execute("DROP TABLE CALIB_TD").status());
    }
    FitOne(&f.td, t[0], s[0], t[1], s[1]);
  }

  // ---- SORT^M (per byte per log2 n). ----
  {
    double t[2], s[2];
    const std::vector<Tuple>* data[2] = {&full, &half};
    const double bytes[2] = {full_bytes, half_bytes};
    for (int i = 0; i < 2; ++i) {
      exec::SortCursor sort(
          std::make_unique<VectorCursor>(ProbeSchema(), *data[i]),
          {{1, true}, {3, true}});
      TANGO_ASSIGN_OR_RETURN(t[i], TimeCursor(&sort));
      s[i] = bytes[i] * std::log2(static_cast<double>(data[i]->size()));
    }
    FitOne(&f.sortm, t[0], s[0], t[1], s[1]);
  }

  // ---- FILTER^M (per byte, one comparison). ----
  {
    auto pred = Bind(Expr::Binary(BinaryOp::kLt, Expr::ColumnRef("ID"),
                                  Expr::Int(static_cast<int64_t>(n / 2))),
                     ProbeSchema())
                    .ValueOrDie();
    double t[2], s[2] = {full_bytes, half_bytes};
    const std::vector<Tuple>* data[2] = {&full, &half};
    for (int i = 0; i < 2; ++i) {
      exec::FilterCursor filter(
          std::make_unique<VectorCursor>(ProbeSchema(), *data[i]), pred);
      TANGO_ASSIGN_OR_RETURN(t[i], TimeCursor(&filter));
    }
    FitOne(&f.sem, t[0], s[0], t[1], s[1]);
  }

  // ---- TAGGR^M: two group cardinalities give two output sizes. ----
  {
    Schema out({{"", "K", DataType::kInt},
                {"", "T1", DataType::kInt},
                {"", "T2", DataType::kInt},
                {"", "C", DataType::kInt}});
    double t[2], in_b[2], out_b[2];
    const int64_t distinct[2] = {16, 512};
    for (int i = 0; i < 2; ++i) {
      auto rows = SortedBy(ProbeRows(n, options_.seed + 2, distinct[i]),
                           {{1, true}, {3, true}});
      in_b[i] = RowBytes(rows);
      exec::TemporalAggregationCursor agg(
          std::make_unique<VectorCursor>(ProbeSchema(), rows), {1}, 3, 4,
          {{AggFunc::kCount, 0, false}}, out);
      size_t out_rows = 0;
      TANGO_ASSIGN_OR_RETURN(t[i], TimeCursor(&agg, &out_rows));
      out_b[i] = static_cast<double>(out_rows) * 40.0;
    }
    FitTwo(&f.taggm1, &f.taggm2, t[0], in_b[0], out_b[0], t[1], in_b[1],
           out_b[1]);
  }

  // ---- MERGEJOIN^M and TJOIN^M: two key cardinalities give two output
  // sizes, so both the per-input and per-output factors can be fitted. ----
  {
    Schema tout({{"", "ID", DataType::kInt},
                 {"", "K", DataType::kInt},
                 {"", "PAD", DataType::kString},
                 {"", "ID_2", DataType::kInt},
                 {"", "PAD_2", DataType::kString},
                 {"", "T1", DataType::kInt},
                 {"", "T2", DataType::kInt}});
    double tm[2], tt[2], in_b[2], mout_b[2], tout_b[2];
    const int64_t distinct[2] = {1024, 128};
    const size_t probe_n = n / 4;
    for (int i = 0; i < 2; ++i) {
      auto left = SortedBy(ProbeRows(probe_n, options_.seed + 4, distinct[i]),
                           {{1, true}});
      auto right = SortedBy(
          ProbeRows(probe_n / 2, options_.seed + 5, distinct[i]), {{1, true}});
      in_b[i] = RowBytes(left) + RowBytes(right);
      const double out_tuple =
          2.0 * RowBytes(left) / static_cast<double>(left.size());
      {
        exec::MergeJoinCursor join(
            std::make_unique<VectorCursor>(ProbeSchema(), left),
            std::make_unique<VectorCursor>(ProbeSchema(), right), {1}, {1});
        size_t rows = 0;
        TANGO_ASSIGN_OR_RETURN(tm[i], TimeCursor(&join, &rows));
        mout_b[i] = static_cast<double>(rows) * out_tuple;
      }
      {
        exec::TemporalJoinCursor tjoin(
            std::make_unique<VectorCursor>(ProbeSchema(), left),
            std::make_unique<VectorCursor>(ProbeSchema(), right), {1}, {1}, 3,
            4, 3, 4, {0, 1, 2}, {0, 2}, tout);
        size_t rows = 0;
        TANGO_ASSIGN_OR_RETURN(tt[i], TimeCursor(&tjoin, &rows));
        tout_b[i] = static_cast<double>(rows) * out_tuple;
      }
    }
    FitTwo(&f.mjm, &f.mjout, tm[0], in_b[0], mout_b[0], tm[1], in_b[1],
           mout_b[1]);
    // The temporal join shares the output-emission path; fit its input
    // factor against the already-fitted output factor.
    double tj_out = f.mjout;
    FitTwo(&f.tjm, &tj_out, tt[0], in_b[0], tout_b[0], tt[1], in_b[1],
           tout_b[1]);
  }

  // ---- Generic DBMS operations. ----
  {
    // Full scan (no rows transferred: impossible predicate after the scan).
    TANGO_ASSIGN_OR_RETURN(
        CursorPtr cur,
        conn_->ExecuteQuery("SELECT ID FROM CALIB_PROBE WHERE PAD = ''"));
    TANGO_ASSIGN_OR_RETURN(double t, TimeCursor(cur.get()));
    t = std::max(0.0, t - f.stmt);
    FitOne(&f.scand, t, full_bytes, t, full_bytes);
  }
  {
    // DBMS sort: an ORDER BY over the whole probe table. The statement has
    // no filter, so it ships every row; the fit subtracts the round trip,
    // the scan and the transfer of the bytes it shipped, and floors the
    // rest at 1 us. The transfer is most of the drain, so that rest, the
    // sort's share, is noisy and can land on the floor.
    TANGO_ASSIGN_OR_RETURN(
        CursorPtr cur,
        conn_->ExecuteQuery(
            "SELECT ID, K, PAD, T1, T2 FROM CALIB_PROBE ORDER BY K, T1"));
    const uint64_t bytes_before = conn_->counters().bytes_to_client;
    TANGO_ASSIGN_OR_RETURN(double t, TimeCursor(cur.get()));
    const double transferred = static_cast<double>(
        conn_->counters().bytes_to_client - bytes_before);
    t = std::max(1.0, t - f.stmt - f.scand * full_bytes - f.tm * transferred);
    FitOne(&f.sortd, t, full_bytes * std::log2(static_cast<double>(n)), t,
           full_bytes * std::log2(static_cast<double>(n)));
  }
  {
    // DBMS join with empty output (impossible residual on the join result).
    TANGO_ASSIGN_OR_RETURN(
        CursorPtr cur,
        conn_->ExecuteQuery("SELECT A.ID FROM CALIB_PROBE A, CALIB_PROBE B "
                            "WHERE A.K = B.K AND A.ID + B.ID < 0"));
    TANGO_ASSIGN_OR_RETURN(double t, TimeCursor(cur.get()));
    // Join output (before residual) is n*n/64 rows of ~2x tuple size.
    const double out_bytes = static_cast<double>(n) * static_cast<double>(n) /
                             64.0 * 2.0 * (full_bytes / static_cast<double>(n));
    t = std::max(1.0, t - f.stmt - 2 * f.scand * full_bytes);
    // One formula covers both terms; attribute half to each basis.
    FitTwo(&f.joind, &f.joindout, t, 2 * full_bytes + out_bytes, out_bytes,
           t * 1.05, (2 * full_bytes + out_bytes) * 1.05, out_bytes * 1.05);
  }
  {
    // TAGGR^D: the nested SQL on two group cardinalities.
    double t0 = 0, in0 = 0, out0 = 0;
    for (int probe = 0; probe < 2; ++probe) {
      const int64_t distinct = probe == 0 ? 512 : 2048;
      TANGO_RETURN_IF_ERROR(
          conn_->Execute("CREATE TABLE CALIB_TAGG (ID INT, K INT, "
                         "PAD VARCHAR(16), T1 INT, T2 INT)")
              .status());
      TANGO_RETURN_IF_ERROR(conn_->BulkLoad(
          "CALIB_TAGG", ProbeRows(n / 4, options_.seed + 3, distinct)));
      const std::string inst =
          "SELECT K AS G, T1 AS T FROM CALIB_TAGG "
          "UNION SELECT K AS G, T2 AS T FROM CALIB_TAGG";
      const std::string pairs =
          "SELECT A.G AS G, A.T AS T1, MIN(B.T) AS T2 FROM (" + inst +
          ") A, (" + inst + ") B WHERE A.G = B.G AND A.T < B.T GROUP BY A.G, A.T";
      const std::string sql =
          "SELECT R.K AS K, P.T1 AS T1, P.T2 AS T2, COUNT(*) AS C "
          "FROM CALIB_TAGG R, (" + pairs + ") P "
          "WHERE R.K = P.G AND R.T1 <= P.T1 AND P.T2 <= R.T2 "
          "GROUP BY R.K, P.T1, P.T2";
      TANGO_ASSIGN_OR_RETURN(CursorPtr cur, conn_->ExecuteQuery(sql));
      size_t out_rows = 0;
      TANGO_ASSIGN_OR_RETURN(double t, TimeCursor(cur.get(), &out_rows));
      TANGO_RETURN_IF_ERROR(conn_->Execute("DROP TABLE CALIB_TAGG").status());
      const double in_bytes = full_bytes / 4;
      const double out_bytes = static_cast<double>(out_rows) * 40.0;
      if (probe == 0) {
        t0 = t;
        in0 = in_bytes;
        out0 = out_bytes;
      } else {
        FitTwo(&f.taggd1, &f.taggd2, t0, in0, out0, t, in_bytes, out_bytes);
      }
    }
  }

  TearDownProbes();
  report.after = model->factors();
  report.probe_seconds = SecondsSince(start);
  return report;
}

}  // namespace cost
}  // namespace tango
