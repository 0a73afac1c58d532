// Reproduces Figure 10: Query 2 — temporal aggregation of POSITION joined
// temporally back to POSITION tuples with PayRate > 10, restricted to a
// time window [1983-01-01, END), sorted by position — under the paper's six
// plans, with END varying from 1984 to 2000.
//
//   Plan 1: TAGGR^M in the middleware, everything else in the DBMS
//   Plan 2: + temporal join in the middleware (sort back in the DBMS)
//   Plan 3: + sorting in the middleware
//   Plan 4: + the selection in the middleware (transfers the base relation)
//   Plan 5: like Plan 1 but without the argument-reducing selection below
//           the temporal aggregation
//   Plan 6: everything in the DBMS
//
// Expected shape (paper): similar times while the window ends before the
// data's mass (most POSITION data is after 1992); for larger windows Plans
// 4-5 deteriorate (TRANSFER^M of whole relations), Plan 6 deteriorates
// (DBMS temporal aggregation), Plan 1 deteriorates faster than 2-3
// (TRANSFER^D of the growing aggregation result); the histogram-equipped
// optimizer settles on the Plan-2 shape while the histogram-less one errs.

#include <algorithm>
#include <optional>

#include "common/date.h"
#include "bench_util.h"

namespace tango {
namespace bench {
namespace {

using optimizer::Algorithm;
using optimizer::PhysPlanPtr;

constexpr int64_t kPayRate = 10;
/// The window ends swept, in years.
constexpr int kFirstEnd = 1984;
constexpr int kLastEnd = 2000;
/// Rounds timed at the first and last windows, the only ones the shape
/// checks read; each plan's time there is its fastest round. At END = 2000
/// plans 1 and 5 do the same work, so a single sample of each would decide
/// the 5 % margin between them. Interference on a shared host only ever
/// slows a run, and it comes in phases lasting several rounds, so the
/// fastest round is steadier than the median.
constexpr int kShapeRounds = 5;

struct Query2Plans {
  std::vector<PhysPlanPtr> plans;  // plans[0] = Plan 1 ...
  algebra::OpPtr initial;
};

Query2Plans BuildPlans(dbms::Engine* db, int64_t w_start, int64_t w_end) {
  const Schema schema =
      db->catalog().GetTable("POSITION").ValueOrDie()->schema();
  auto scan_a = algebra::Scan("POSITION", schema, "A").ValueOrDie();
  auto scan_b = algebra::Scan("POSITION", schema, "B").ValueOrDie();

  auto window_pred = [&](const std::string& t1, const std::string& t2) {
    return Expr::And(
        Expr::Binary(BinaryOp::kLt, Expr::ColumnRef(t1), Expr::Int(w_end)),
        Expr::Binary(BinaryOp::kGt, Expr::ColumnRef(t2), Expr::Int(w_start)));
  };

  // Aggregation side: σ_w(A) (the argument reducer) and the plain A.
  auto sel_a = algebra::Select(scan_a, window_pred("A.T1", "A.T2")).ValueOrDie();
  const std::vector<algebra::AggItem> aggs = {
      {AggFunc::kCount, "A.POSID", "CNT"}};
  auto agg_reduced = algebra::TAggregate(sel_a, {"A.POSID"}, aggs).ValueOrDie();
  auto agg_full = algebra::TAggregate(scan_a, {"A.POSID"}, aggs).ValueOrDie();

  // B side: pay rate + window.
  auto pay_pred = Expr::Binary(BinaryOp::kGt, Expr::ColumnRef("PAYRATE"),
                               Expr::Int(kPayRate));
  auto sel_b = algebra::Select(
                   scan_b, Expr::And(pay_pred, window_pred("B.T1", "B.T2")))
                   .ValueOrDie();

  auto tjoin = [&](const algebra::OpPtr& agg) {
    return algebra::TJoin(agg, sel_b, {{"POSID", "B.POSID"}}).ValueOrDie();
  };
  auto tj_r = tjoin(agg_reduced);
  // The final window selection on the intersected periods.
  auto top_sel = [&](const algebra::OpPtr& tj) {
    return algebra::Select(tj, window_pred("T1", "T2")).ValueOrDie();
  };
  auto proj = [&](const algebra::OpPtr& in) {
    return algebra::Project(in, {{Expr::ColumnRef("POSID"), "POSID"},
                                 {Expr::ColumnRef("EMPNAME"), "EMPNAME"},
                                 {Expr::ColumnRef("CNT"), "CNT"},
                                 {Expr::ColumnRef("T1"), "T1"},
                                 {Expr::ColumnRef("T2"), "T2"}})
        .ValueOrDie();
  };

  Query2Plans out;
  // The initial logical plan fed to the optimizer: selections above the
  // join (the memo rules derive the pushed/replicated variants).
  {
    auto tj0 = tjoin(agg_full);
    auto pred = Expr::And(pay_pred, window_pred("T1", "T2"));
    auto sel0 = algebra::Select(tj0, pred).ValueOrDie();
    auto sorted =
        algebra::Sort(proj(sel0), {{"POSID", true}}).ValueOrDie();
    out.initial = algebra::TransferM(sorted).ValueOrDie();
  }

  const std::vector<algebra::SortSpec> agg_in_keys = {{"POSID", true},
                                                      {"T1", true}};
  const std::vector<algebra::SortSpec> posid_key = {{"POSID", true}};

  // Shared building blocks.
  auto scan_a_d = Node(Algorithm::kScanD, scan_a, {});
  auto scan_b_d = Node(Algorithm::kScanD, scan_b, {});
  auto sel_a_d = Node(Algorithm::kSelectD, sel_a, {scan_a_d});
  auto sel_b_d = Node(Algorithm::kSelectD, sel_b, {scan_b_d});

  // TAGGR^M over the reduced argument, sorted in the DBMS (Plan 1/2/3 base).
  auto aggm_reduced = Node(
      Algorithm::kTAggrM, agg_reduced,
      {Node(Algorithm::kTransferM,
            TransferOpOf(algebra::OpKind::kTransferM, sel_a->schema),
            {Node(Algorithm::kSortD, SortOpOf(sel_a->schema, agg_in_keys),
                  {sel_a_d})})});
  // TAGGR^M over the full relation (Plan 5).
  auto aggm_full = Node(
      Algorithm::kTAggrM, agg_full,
      {Node(Algorithm::kTransferM,
            TransferOpOf(algebra::OpKind::kTransferM, scan_a->schema),
            {Node(Algorithm::kSortD, SortOpOf(scan_a->schema, agg_in_keys),
                  {scan_a_d})})});

  // DBMS pipeline above a (transferred-back) aggregation result:
  //   TJOIN^D + σ_w + π + sort + T^M    (Plans 1, 5, 6 share this).
  auto dbms_tail = [&](PhysPlanPtr agg_side, const algebra::OpPtr& agg_op) {
    auto tj = tjoin(agg_op);
    auto sel_top = top_sel(tj);
    auto projected = proj(sel_top);
    return Node(
        Algorithm::kTransferM,
        TransferOpOf(algebra::OpKind::kTransferM, projected->schema),
        {Node(Algorithm::kSortD, SortOpOf(projected->schema, posid_key),
              {Node(Algorithm::kProjectD, projected,
                    {Node(Algorithm::kSelectD, sel_top,
                          {Node(Algorithm::kTJoinD, tj,
                                {agg_side, sel_b_d})})})})});
  };

  // Plan 1: T^D loads the middleware aggregation result; the DBMS finishes.
  out.plans.push_back(dbms_tail(
      Node(Algorithm::kTransferD,
           TransferOpOf(algebra::OpKind::kTransferD, agg_reduced->schema),
           {aggm_reduced}),
      agg_reduced));

  // Middleware temporal join over the in-middleware aggregation result and
  // the transferred B side (Plans 2, 3).
  auto b_transferred = Node(
      Algorithm::kTransferM,
      TransferOpOf(algebra::OpKind::kTransferM, sel_b->schema),
      {Node(Algorithm::kSortD, SortOpOf(sel_b->schema, posid_key), {sel_b_d})});
  auto mw_join_tail = [&](PhysPlanPtr agg_side, const algebra::OpPtr& agg_op,
                          PhysPlanPtr b_side) {
    auto tj = tjoin(agg_op);
    auto sel_top = top_sel(tj);
    auto projected = proj(sel_top);
    return std::make_tuple(
        Node(Algorithm::kProjectM, projected,
             {Node(Algorithm::kFilterM, sel_top,
                   {Node(Algorithm::kTJoinM, tj, {agg_side, b_side})})}),
        projected);
  };

  // Plan 2: join in the middleware, final sort back in the DBMS.
  {
    auto [mw_projected, projected] =
        mw_join_tail(aggm_reduced, agg_reduced, b_transferred);
    out.plans.push_back(Node(
        Algorithm::kTransferM,
        TransferOpOf(algebra::OpKind::kTransferM, projected->schema),
        {Node(Algorithm::kSortD, SortOpOf(projected->schema, posid_key),
              {Node(Algorithm::kTransferD,
                    TransferOpOf(algebra::OpKind::kTransferD, projected->schema),
                    {mw_projected})})}));
  }

  // Plan 3: join and sorting in the middleware.
  {
    auto [mw_projected, projected] =
        mw_join_tail(aggm_reduced, agg_reduced, b_transferred);
    out.plans.push_back(Node(Algorithm::kSortM,
                             SortOpOf(projected->schema, posid_key),
                             {mw_projected}));
  }

  // Plan 4: also the B-side selection in the middleware (the whole base
  // relation crosses the wire).
  {
    auto b_mw = Node(
        Algorithm::kFilterM, sel_b,
        {Node(Algorithm::kSortM, SortOpOf(scan_b->schema, posid_key),
              {Node(Algorithm::kTransferM,
                    TransferOpOf(algebra::OpKind::kTransferM, scan_b->schema),
                    {scan_b_d})})});
    auto [mw_projected, projected] =
        mw_join_tail(aggm_reduced, agg_reduced, b_mw);
    out.plans.push_back(Node(Algorithm::kSortM,
                             SortOpOf(projected->schema, posid_key),
                             {mw_projected}));
  }

  // Plan 5: Plan 1 without the argument-reducing selection.
  out.plans.push_back(dbms_tail(
      Node(Algorithm::kTransferD,
           TransferOpOf(algebra::OpKind::kTransferD, agg_full->schema),
           {aggm_full}),
      agg_full));

  // Plan 6: everything in the DBMS.
  out.plans.push_back(
      dbms_tail(Node(Algorithm::kTAggrD, agg_reduced, {sel_a_d}), agg_reduced));

  return out;
}

/// Compact description of an optimizer-chosen plan's site assignment.
std::string DescribeChoice(const PhysPlanPtr& plan) {
  std::function<bool(const PhysPlanPtr&, Algorithm)> has =
      [&](const PhysPlanPtr& p, Algorithm a) {
        if (p->algorithm == a) return true;
        for (const auto& c : p->children) {
          if (has(c, a)) return true;
        }
        return false;
      };
  std::string out;
  out += has(plan, Algorithm::kTAggrM) ? "aggM" : "aggD";
  out += has(plan, Algorithm::kTJoinM) ? "+joinM" : "+joinD";
  if (has(plan, Algorithm::kFilterM)) out += "+selM";
  if (has(plan, Algorithm::kSortM)) out += "+sortM";
  return out;
}

int Main() {
  std::printf("=== Figure 10: Query 2 (aggregation + temporal join + "
              "selections), 6 plans ===\n");
  std::printf("running times in seconds (END = %d and %d: fastest of %d "
              "rounds); scale=%.2f\n\n",
              kFirstEnd, kLastEnd, kShapeRounds, Scale());

  dbms::Engine db;
  workload::UisOptions opts;
  opts.position_rows = Scaled(opts.position_rows);
  opts.employee_rows = 1;
  if (!workload::LoadUis(&db, opts).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }

  Middleware mw(&db);
  CalibrateOrDie(&mw);

  Middleware::Config no_hist_cfg;
  no_hist_cfg.use_histograms = false;
  Middleware mw_no_hist(&db, no_hist_cfg);
  mw_no_hist.cost_model().factors() = mw.cost_model().factors();

  const int64_t w_start = date::Jan1(1983);
  std::printf("%6s %8s %8s %8s %8s %8s %8s   %-22s %s\n", "end", "plan1",
              "plan2", "plan3", "plan4", "plan5", "plan6", "chosen(hist)",
              "chosen(no hist)");

  std::vector<std::array<double, 6>> times;
  std::vector<std::string> hist_choice, nohist_choice;
  bool all_agree = true;
  for (int year = kFirstEnd; year <= kLastEnd; year += 1) {
    const int64_t w_end = date::Jan1(year);
    Query2Plans plans = BuildPlans(&db, w_start, w_end);
    const int rounds =
        year == kFirstEnd || year == kLastEnd ? kShapeRounds : 1;
    std::array<std::vector<double>, 6> samples;
    std::optional<uint64_t> checksum;
    for (int round = 0; round < rounds; ++round) {
      for (size_t i = 0; i < 6; ++i) {
        // Rotate the plan order each round, so no plan always runs first.
        const size_t p = (i + static_cast<size_t>(round)) % 6;
        auto r = mw.Execute(plans.plans[p]);
        if (!r.ok()) {
          std::fprintf(stderr, "plan %zu failed: %s\n", p + 1,
                       r.status().ToString().c_str());
          return 1;
        }
        samples[p].push_back(r.ValueOrDie().elapsed_seconds);
        // Plan 5 legitimately splits constant periods differently (the
        // argument-reducing selection changes period boundaries outside the
        // window, not the time-varying content): compare snapshots clipped
        // to the window — columns (POSID, EMPNAME, CNT, T1, T2).
        const uint64_t c =
            SnapshotChecksum(r.ValueOrDie().rows, 3, 4, w_start, w_end);
        if (!checksum.has_value()) {
          checksum = c;
        } else {
          all_agree = all_agree && c == *checksum;
        }
      }
    }
    std::array<double, 6> row{};
    for (size_t p = 0; p < 6; ++p) {
      row[p] = *std::min_element(samples[p].begin(), samples[p].end());
    }
    times.push_back(row);

    // Per-window optimizer choice: the windows differ only in literals
    // (one fingerprint), so clear the caches or every later window would
    // just replay the first window's cached plan.
    mw.plan_cache().Clear();
    mw_no_hist.plan_cache().Clear();
    auto with_hist = mw.PrepareLogical(plans.initial);
    auto without = mw_no_hist.PrepareLogical(plans.initial);
    hist_choice.push_back(with_hist.ok()
                              ? DescribeChoice(with_hist.ValueOrDie().plan)
                              : "ERR");
    nohist_choice.push_back(
        without.ok() ? DescribeChoice(without.ValueOrDie().plan) : "ERR");
    std::printf("%6d %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f   %-22s %s\n", year,
                row[0], row[1], row[2], row[3], row[4], row[5],
                hist_choice.back().c_str(), nohist_choice.back().c_str());
  }

  std::printf("\nshape checks:\n");
  ShapeChecks checks;
  checks.Check(all_agree,
               "all six plans agree on the time-varying result (snapshot "
               "equivalence over the window)");
  const auto& first = times.front();
  const auto& last = times.back();
  // Figure 10(a): for highly selective windows, plans 1-3 and 6 are all
  // competitive while plans 4-5 perform poorly — their TRANSFER^M takes the
  // whole base relation.
  {
    const double best = std::min(std::min(first[0], first[1]),
                                 std::min(first[2], first[5]));
    const double worst_136 = std::max(std::max(first[0], first[1]),
                                      std::max(first[2], first[5]));
    checks.Check(worst_136 < 5 * best,
                 "Fig 10(a): plans 1-3 and 6 comparable for small windows");
    checks.Check(first[3] > 3 * best && first[4] > 3 * best,
                 "Fig 10(a): plans 4-5 poor for small windows "
                 "(whole-relation TRANSFER^M)");
  }
  // Figure 10(b): for large windows plan 6 (DBMS temporal aggregation)
  // deteriorates rapidly; plan 1 deteriorates faster than plans 2-3
  // (TRANSFER^D of the growing aggregation result); plan 5 stays above
  // plan 1's middleware-reduced variant.
  {
    const double best23 = std::min(last[1], last[2]);
    checks.Check(last[5] > 2.0 * best23,
                 "Fig 10(b): plan 6 deteriorates (got " +
                     std::to_string(last[5] / best23) + "x of plans 2-3)");
    checks.Check(last[0] > best23,
                 "Fig 10(b): plan 1 deteriorates faster than plans 2-3");
    checks.Check(last[4] > 0.95 * last[0],
                 "Fig 10(b): plan 5 no better than plan 1");
    checks.Check(last[3] > 0.95 * std::min(last[1], last[2]),
                 "Fig 10(b): plan 4 no better than plans 2-3");
  }
  // The histogram-equipped optimizer keeps the aggregation in the
  // middleware for every window (the paper: it always returned Plan 2).
  bool hist_all_aggm = true;
  for (const std::string& c : hist_choice) {
    if (c.find("aggM") == std::string::npos) hist_all_aggm = false;
  }
  checks.Check(hist_all_aggm,
               "with histograms the optimizer always uses TAGGR^M");
  // The histogram-less optimizer's choices differ somewhere (the paper: it
  // switched plans across the sweep).
  checks.Check(hist_choice != nohist_choice,
               "histograms change the optimizer's choices");
  return checks.failures() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tango

int main() { return tango::bench::Main(); }
