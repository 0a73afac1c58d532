#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "sql/parser.h"

namespace tango {
namespace cost {
namespace {

using optimizer::Algorithm;
using optimizer::PhysPlan;
using optimizer::PhysPlanPtr;

ExprPtr Pred(const std::string& text) {
  return sql::Parser::ParseSelect("SELECT X FROM T WHERE " + text)
      .ValueOrDie()
      ->where;
}

/// A plan node with the given estimates; `predicate` is a FILTER^M's.
PhysPlanPtr Node(Algorithm alg, double rows, double bytes,
                 std::vector<PhysPlanPtr> children = {},
                 ExprPtr predicate = nullptr) {
  auto op = std::make_shared<algebra::Op>();
  op->predicate = std::move(predicate);
  auto node = std::make_shared<PhysPlan>();
  node->algorithm = alg;
  node->op = std::move(op);
  node->est_cardinality = rows;
  node->est_bytes = bytes;
  node->children = std::move(children);
  return node;
}

double SelfCost(const CostModel& m, const PhysPlanPtr& node) {
  return m.Price(m.SelfTerms(*node));
}

PhysPlanPtr Scan(double bytes) { return Node(Algorithm::kScanD, 1, bytes); }

/// A middleware algorithm's input: a shipped scan, which has its own
/// record.
PhysPlanPtr Shipped(double bytes) {
  return Node(Algorithm::kTransferM, 1, bytes, {Scan(bytes)});
}

// ---------------------------------------------------------------------------
// Pricing.

TEST(CostModelTest, Figure6FormulasScaleWithSize) {
  CostModel m;
  const CostFactors& f = m.factors();
  // Transfers: linear in size(r) plus the statement round trip; an unknown
  // cardinality pays one block, 2,048 rows at 1,024 a block pay two.
  const auto transfer = [&](Algorithm alg, double rows, double bytes) {
    return SelfCost(m, Node(alg, rows, bytes, {Scan(bytes)}));
  };
  EXPECT_DOUBLE_EQ(transfer(Algorithm::kTransferM, 0, 1000),
                   f.stmt + f.tm * 1000 + f.tmblk);
  EXPECT_NEAR(transfer(Algorithm::kTransferM, 0, 2000) -
                  transfer(Algorithm::kTransferM, 0, 1000),
              f.tm * 1000, 1e-9);
  EXPECT_NEAR(transfer(Algorithm::kTransferD, 0, 2000) -
                  transfer(Algorithm::kTransferD, 0, 1000),
              f.td * 1000, 1e-9);
  EXPECT_NEAR(transfer(Algorithm::kTransferM, 2048, 1000) -
                  transfer(Algorithm::kTransferM, 0, 1000),
              f.tmblk, 1e-9);
  // Selection: linear in the input's size and in f(P).
  const auto filter = [&](const char* predicate, double in_bytes) {
    return SelfCost(m, Node(Algorithm::kFilterM, 10, 100, {Scan(in_bytes)},
                            Pred(predicate)));
  };
  EXPECT_DOUBLE_EQ(filter("A = 1 AND B < 2", 1000), 2 * filter("A = 1", 1000));
  EXPECT_DOUBLE_EQ(filter("A = 1", 2000), 2 * filter("A = 1", 1000));
  // Temporal aggregation: both input and output terms.
  const auto taggr = [&](Algorithm alg, double in_bytes, double out_bytes) {
    return SelfCost(m, Node(alg, 10, out_bytes, {Scan(in_bytes)}));
  };
  EXPECT_GT(taggr(Algorithm::kTAggrM, 1000, 2000),
            taggr(Algorithm::kTAggrM, 1000, 100));
  EXPECT_GT(taggr(Algorithm::kTAggrM, 2000, 100),
            taggr(Algorithm::kTAggrM, 1000, 100));
  EXPECT_GT(taggr(Algorithm::kTAggrD, 1000, 100), 0);
  // Selection / projection in the DBMS are free (§3.1).
  for (const Algorithm free : {Algorithm::kSelectD, Algorithm::kProjectD}) {
    EXPECT_EQ(m.SelfTerms(*Node(free, 10, 100, {Scan(1000)})).size(), 0u);
  }
}

TEST(CostModelTest, DefaultsEncodeThePapersAsymmetry) {
  CostModel m;
  // The reason Query 1 behaves as it does: per byte, temporal aggregation
  // is far cheaper in the middleware than via the DBMS's SQL formulation.
  EXPECT_GT(SelfCost(m, Node(Algorithm::kTAggrD, 1e4, 1e6, {Scan(1e6)})),
            5 * SelfCost(m, Node(Algorithm::kTAggrM, 1e4, 1e6, {Scan(1e6)})));
}

TEST(CostModelTest, SortCostsGrowLogLinearly) {
  CostModel m;
  const auto sort = [&](Algorithm alg, double rows, double bytes) {
    return SelfCost(m, Node(alg, rows, bytes, {Scan(bytes)}));
  };
  const double s1 = sort(Algorithm::kSortM, 1e4, 1e6);
  const double s2 = sort(Algorithm::kSortM, 2e4, 2e6);
  EXPECT_GT(s2, 2 * s1);    // superlinear
  EXPECT_LT(s2, 2.5 * s1);  // but only by the log factor
  EXPECT_GT(s1, sort(Algorithm::kSortD, 1e4, 1e6) * 0.5);  // same order
  // Degenerate cardinalities do not produce zero/negative costs.
  EXPECT_GT(sort(Algorithm::kSortM, 1, 100), 0);
  EXPECT_GT(sort(Algorithm::kSortD, 0, 100), 0);
  EXPECT_GT(SelfCost(m, Node(Algorithm::kDistinctD, 0, 100,
                             {Node(Algorithm::kScanD, 0, 100)})),
            0);
}

TEST(CostModelTest, PredicateCoefficientCountsComparisons) {
  // FILTER^M's basis is f(P) times its input's bytes.
  CostModel m;
  const auto coefficient = [&](const char* predicate) {
    const Terms terms = m.SelfTerms(
        *Node(Algorithm::kFilterM, 1, 1, {Scan(1)},
              predicate == nullptr ? nullptr : Pred(predicate)));
    EXPECT_EQ(terms.size(), 1u);
    return terms.begin()->basis;
  };
  EXPECT_DOUBLE_EQ(coefficient(nullptr), 0);
  EXPECT_DOUBLE_EQ(coefficient("A = 1"), 1);
  EXPECT_DOUBLE_EQ(coefficient("A = 1 AND B < 2 AND C > 3"), 3);
  EXPECT_DOUBLE_EQ(coefficient("A = 1 OR (B < 2 AND C > 3)"), 3);
  EXPECT_DOUBLE_EQ(coefficient("NOT A = 1"), 1);
}

TEST(CostModelTest, FactorsRenderForLogs) {
  CostModel m;
  const std::string s = m.factors().ToString();
  for (const char* name :
       {"p_tm", "p_td", "p_tmblk", "p_tdblk", "p_sem", "p_taggm1", "p_taggm2",
        "p_taggd1", "p_taggd2", "p_sortm", "p_projm", "p_mjm", "p_mjout",
        "p_tjm", "p_dupm", "p_coalm", "p_diffm", "p_scand", "p_sortd",
        "p_joind", "p_joindout", "p_prodd", "p_stmt"}) {
    EXPECT_NE(s.find(std::string(name) + "="), std::string::npos) << name;
  }
  EXPECT_NE(s.find("p_tm=0.04 "), std::string::npos) << s;
}

TEST(CostModelTest, VersionBumpsWhenAFactorDriftsPastTheThreshold) {
  // The plan cache keys plans by Version(): it must move when any factor,
  // the per-block ones included, has moved more than kDriftThreshold (0.5)
  // relative to its value at the last bump, and only then.
  for (const NamedFactor& nf : kFactors) {
    CostModel m;
    const uint64_t v0 = m.Version();
    const double base = m.factors().*nf.factor;
    m.factors().*nf.factor = base * 1.45;
    EXPECT_EQ(m.Version(), v0) << nf.name;
    m.factors().*nf.factor = base * 0.55;
    EXPECT_EQ(m.Version(), v0) << nf.name;
    m.factors().*nf.factor = base * 1.55;
    EXPECT_EQ(m.Version(), v0 + 1) << nf.name;
    // The bump re-anchors: the next one is measured from 1.55 x base.
    m.factors().*nf.factor = base * 1.55 * 1.45;
    EXPECT_EQ(m.Version(), v0 + 1) << nf.name;
  }

  // Exactly 0.5 either way does not bump; anything past it does.
  CostModel m(CostFactors{});
  const uint64_t v0 = m.Version();
  m.factors().stmt = 600;  // 400 -> 600: +0.5
  EXPECT_EQ(m.Version(), v0);
  m.factors().stmt = 200;  // 400 -> 200: -0.5
  EXPECT_EQ(m.Version(), v0);
  m.factors().stmt = 601;
  EXPECT_EQ(m.Version(), v0 + 1);

  // Fit writes the factors too: a measured time 20x the estimate scales a
  // fitted factor past the threshold.
  CostModel fitted;
  const uint64_t f0 = fitted.Version();
  PhysPlan sort;
  sort.algorithm = Algorithm::kSortM;
  sort.est_bytes = 1e6;
  sort.est_cardinality = 1e4;
  const double estimate = fitted.Price(fitted.SelfTerms(sort));
  fitted.Fit(sort, estimate * 20, 0.5);
  EXPECT_EQ(fitted.Version(), f0 + 1);
}

// The formulas as the optimizer called them before pricing went through
// the terms: the oracle the terms must reproduce.
struct Figure6Oracle {
  CostFactors f;
  double batch;

  static double Log2(double card) { return card < 2 ? 1 : std::log2(card); }
  double Blocks(double card) const {
    return card <= 0 ? 1 : std::ceil(card / batch);
  }
  double TransferM(double size, double card) const {
    return f.stmt + f.tm * size + f.tmblk * Blocks(card);
  }
  double TransferD(double size, double card) const {
    return f.stmt + f.td * size + f.tdblk * Blocks(card);
  }
  double FilterM(double coef, double size) const { return f.sem * coef * size; }
  double TAggrM(double in, double out) const {
    return f.taggm1 * in + f.taggm2 * out;
  }
  double TAggrD(double in, double out) const {
    return f.taggd1 * in + f.taggd2 * out;
  }
  double SortM(double size, double card) const {
    return f.sortm * size * Log2(card);
  }
  double ProjectM(double size) const { return f.projm * size; }
  double MergeJoinM(double l, double r, double out) const {
    return f.mjm * (l + r) + f.mjout * out;
  }
  double TJoinM(double l, double r, double out) const {
    return f.tjm * (l + r) + f.mjout * out;
  }
  double DupElimM(double size) const { return f.dupm * size; }
  double CoalesceM(double size) const { return f.coalm * size; }
  double DifferenceM(double l, double r) const { return f.diffm * (l + r); }
  double ScanD(double size) const { return f.scand * size; }
  double SortD(double size, double card) const {
    return f.sortd * size * Log2(card);
  }
  double JoinD(double l, double r, double out) const {
    return f.joind * (l + r) + f.joindout * out;
  }
  double ProductD(double out) const { return f.prodd * out; }

  /// What the optimizer charged `node` (sizes from the node's group and its
  /// children's groups).
  double Price(const PhysPlan& n, double coef) const {
    const double out = n.est_bytes;
    const double rows = n.est_cardinality;
    const auto in = [&](size_t i) { return n.children[i]->est_bytes; };
    switch (n.algorithm) {
      case Algorithm::kScanD: return ScanD(out);
      case Algorithm::kSelectD: return 0;
      case Algorithm::kProjectD: return 0;
      case Algorithm::kSortD: return SortD(out, rows);
      case Algorithm::kJoinD:
      case Algorithm::kTJoinD: return JoinD(in(0), in(1), out);
      case Algorithm::kTAggrD: return TAggrD(in(0), out);
      case Algorithm::kDistinctD:
        return SortD(in(0), n.children[0]->est_cardinality);
      case Algorithm::kProductD: return ProductD(out);
      case Algorithm::kFilterM: return FilterM(coef, in(0));
      case Algorithm::kProjectM: return ProjectM(in(0));
      case Algorithm::kSortM: return SortM(out, rows);
      case Algorithm::kMergeJoinM: return MergeJoinM(in(0), in(1), out);
      case Algorithm::kTJoinM: return TJoinM(in(0), in(1), out);
      case Algorithm::kTAggrM: return TAggrM(in(0), out);
      case Algorithm::kDupElimM: return DupElimM(in(0));
      case Algorithm::kCoalesceM: return CoalesceM(in(0));
      case Algorithm::kDiffM: return DifferenceM(in(0), in(1));
      case Algorithm::kTransferM: return TransferM(out, rows);
      case Algorithm::kTransferD: return TransferD(out, rows);
    }
    return -1;
  }
};

size_t Arity(Algorithm alg) {
  switch (alg) {
    case Algorithm::kScanD: return 0;
    case Algorithm::kJoinD:
    case Algorithm::kTJoinD:
    case Algorithm::kProductD:
    case Algorithm::kMergeJoinM:
    case Algorithm::kTJoinM:
    case Algorithm::kDiffM: return 2;
    default: return 1;
  }
}

TEST(CostTermsTest, EveryAlgorithmPricesAsTheFormulas) {
  const ExprPtr predicate = Pred("A = 1 AND B < 2 AND C > 3");
  const double coef = 3;  // f(P): the predicate's comparisons
  CostFactors distinct;  // every factor different, so a swap shows
  for (size_t i = 0; i < std::size(kFactors); ++i) {
    distinct.*kFactors[i].factor = 0.0031 * static_cast<double>(i + 1) + 0.17;
  }
  const double cards[] = {0, 1, 2, 1e6};
  size_t checked = 0;
  for (const CostFactors& factors : {CostFactors(), distinct}) {
    for (const size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
      CostModel m(factors);
      m.set_batch_size(batch);
      const Figure6Oracle oracle{factors, static_cast<double>(batch)};
      for (int a = 0; a <= static_cast<int>(Algorithm::kTransferD); ++a) {
        const auto alg = static_cast<Algorithm>(a);
        for (const double rows : cards) {
          for (const double left : cards) {
            for (const double right : cards) {
              std::vector<PhysPlanPtr> children;
              if (Arity(alg) >= 1) {
                children.push_back(
                    Node(Algorithm::kScanD, left, left * 24 + 8));
              }
              if (Arity(alg) == 2) {
                children.push_back(
                    Node(Algorithm::kScanD, right, right * 56 + 16));
              }
              const PhysPlanPtr node =
                  Node(alg, rows, rows * 40, std::move(children), predicate);
              const double want = oracle.Price(*node, coef);
              const double got = SelfCost(m, node);
              ASSERT_GE(want, 0) << optimizer::AlgorithmName(alg);
              EXPECT_LE(std::abs(got - want), 1e-12 * want)
                  << optimizer::AlgorithmName(alg) << " rows=" << rows
                  << " left=" << left << " right=" << right
                  << " batch=" << batch << ": " << got << " vs " << want;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2u * 3u * 20u * 64u);
}

// ---------------------------------------------------------------------------
// Feedback: one rule over the same terms.

TEST(CostFitTest, OneAdjustableTermIsExponentialSmoothing) {
  CostModel m;
  m.factors().projm = 1.0;
  const PhysPlanPtr project =
      Node(Algorithm::kProjectM, 10, 500, {Shipped(1000)});
  // Observed 2 us/byte, alpha 0.5 -> midpoint.
  m.Fit(*project, /*observed_us=*/2000, /*alpha=*/0.5);
  EXPECT_DOUBLE_EQ(m.factors().projm, 1.5);
  // Converges to the observed ratio under repetition.
  for (int i = 0; i < 50; ++i) m.Fit(*project, 2000, 0.5);
  EXPECT_NEAR(m.factors().projm, 2.0, 1e-6);
  // Degenerate observations leave the factor untouched.
  m.Fit(*project, 0, 0.5);
  m.Fit(*Node(Algorithm::kProjectM, 10, 500, {Shipped(0)}), 1000, 0.5);
  EXPECT_NEAR(m.factors().projm, 2.0, 1e-6);

  // (1 - alpha) f + alpha observed / basis, within the clamp, for a
  // one-term algorithm, a log-linear basis and a transfer (its round trip
  // and block terms subtracted first).
  for (const double alpha : {0.1, 0.3, 0.9}) {
    for (const double observed : {1500.0, 5000.0, 30000.0}) {
      CostModel fit;
      const double sortm = fit.factors().sortm;
      const PhysPlanPtr sort =
          Node(Algorithm::kSortM, 3000, 60000, {Shipped(60000)});
      const double basis = 60000 * std::log2(3000.0);
      fit.Fit(*sort, observed, alpha);
      EXPECT_NEAR(fit.factors().sortm,
                  (1 - alpha) * sortm + alpha * observed / basis,
                  1e-12 * fit.factors().sortm);

      const CostFactors& f = fit.factors();
      const double td = f.td;
      const PhysPlanPtr load = Node(Algorithm::kTransferD, 3000, 60000,
                                    {Node(Algorithm::kProjectM, 3000, 60000,
                                          {Shipped(60000)})});
      const double rest = observed - f.stmt - f.tdblk * 3;  // 3 blocks
      fit.Fit(*load, observed, alpha);
      EXPECT_NEAR(f.td, (1 - alpha) * td + alpha * rest / 60000,
                  1e-12 * f.td);
    }
  }
}

TEST(CostFitTest, PinnedFactorsNeverMove) {
  CostModel m;
  const CostFactors before = m.factors();
  const PhysPlanPtr fragment =
      Node(Algorithm::kTransferM, 1e5, 4e6,
           {Node(Algorithm::kJoinD, 1e5, 4e6, {Scan(2e6), Scan(3e6)})});
  const PhysPlanPtr load =
      Node(Algorithm::kTransferD, 1e4, 4e5,
           {Node(Algorithm::kProjectM, 1e4, 4e5, {Shipped(4e5)})});
  for (const double observed : {2.0, 1e3, 1e5, 1e8}) {
    m.Fit(*fragment, observed, 0.5);
    m.Fit(*load, observed, 0.5);
  }
  const CostFactors& after = m.factors();
  EXPECT_EQ(after.stmt, before.stmt);
  EXPECT_EQ(after.tmblk, before.tmblk);
  EXPECT_EQ(after.tdblk, before.tdblk);
  EXPECT_EQ(after.scand, before.scand);
  // The fragment held a join, so p_tm was pinned too.
  EXPECT_EQ(after.tm, before.tm);
  EXPECT_NE(after.joind, before.joind);
  EXPECT_NE(after.td, before.td);
}

TEST(CostFitTest, ClampBindsAtBothEnds) {
  const double alpha = 0.3;
  for (const double observed : {1e9, 1e-3}) {
    CostModel m;
    const double before = m.factors().dupm;
    const PhysPlanPtr dup =
        Node(Algorithm::kDupElimM, 10, 100, {Shipped(1000)});
    ASSERT_DOUBLE_EQ(SelfCost(m, dup), before * 1000);
    m.Fit(*dup, observed, alpha);
    const double ratio = observed > 1 ? 20 : 0.05;
    EXPECT_DOUBLE_EQ(m.factors().dupm, before * ((1 - alpha) + alpha * ratio));
  }
}

TEST(CostFitTest, MergeJoinScalesItsOutputTermToo) {
  // MERGEJOIN^M and TJOIN^M share p_mjout: both terms of the record scale
  // by one ratio.
  CostModel m;
  const CostFactors before = m.factors();
  const PhysPlanPtr join =
      Node(Algorithm::kTJoinM, 100, 5000, {Shipped(2000), Shipped(3000)});
  const double estimate = SelfCost(m, join);
  m.Fit(*join, 2 * estimate, 0.5);
  EXPECT_DOUBLE_EQ(m.factors().tjm, before.tjm * 1.5);
  EXPECT_DOUBLE_EQ(m.factors().mjout, before.mjout * 1.5);
  EXPECT_EQ(m.factors().mjm, before.mjm);
}

TEST(CostFitTest, TransferMFitsWithItsFragment) {
  const double alpha = 0.5;
  // Nothing adjustable below: the time is the transfer's, less the round
  // trip, its blocks and the scan.
  {
    CostModel m;
    const CostFactors f = m.factors();
    const PhysPlanPtr t =
        Node(Algorithm::kTransferM, 2048, 80000, {Scan(100000)});
    const double observed = 20000;
    const double rest =
        observed - f.stmt - 2 * f.tmblk - f.scand * 100000;
    m.Fit(*t, observed, alpha);
    EXPECT_NEAR(m.factors().tm, (1 - alpha) * f.tm + alpha * rest / 80000,
                1e-12 * f.tm);
    EXPECT_EQ(m.factors().sortd, f.sortd);
  }
  // A sort and a join in the fragment: p_tm is pinned and the fragment's
  // factors scale by one ratio, each once although p_joind prices two
  // joins. The walk stops at the TRANSFER^D, whose PROJECT^M has its own
  // record.
  {
    CostModel m;
    const CostFactors f = m.factors();
    const PhysPlanPtr loaded = Node(
        Algorithm::kTransferD, 100, 4000,
        {Node(Algorithm::kProjectM, 100, 4000, {Shipped(4000)})});
    const PhysPlanPtr inner =
        Node(Algorithm::kJoinD, 500, 30000, {Scan(20000), loaded});
    const PhysPlanPtr outer =
        Node(Algorithm::kJoinD, 800, 50000, {inner, Scan(10000)});
    const PhysPlanPtr t = Node(Algorithm::kTransferM, 800, 50000,
                               {Node(Algorithm::kSortD, 800, 50000, {outer})});
    const double pinned = f.stmt + f.tm * 50000 + f.tmblk * 1 +
                          f.scand * (20000 + 10000);
    const double estimate = f.sortd * 50000 * std::log2(800.0) +
                            f.joind * (20000 + 4000) + f.joindout * 30000 +
                            f.joind * (30000 + 10000) + f.joindout * 50000;
    const double observed = pinned + 3 * estimate;
    m.Fit(*t, observed, alpha);
    const double scale = (1 - alpha) + alpha * 3;
    EXPECT_NEAR(m.factors().sortd, f.sortd * scale, 1e-12 * f.sortd * scale);
    EXPECT_NEAR(m.factors().joind, f.joind * scale, 1e-12 * f.joind * scale);
    EXPECT_NEAR(m.factors().joindout, f.joindout * scale,
                1e-12 * f.joindout * scale);
    EXPECT_EQ(m.factors().tm, f.tm);
    EXPECT_EQ(m.factors().td, f.td);
    EXPECT_EQ(m.factors().projm, f.projm);
  }
}

TEST(CostFitTest, TimeWithinThePinnedTermsIsSkipped) {
  CostModel m;
  const CostFactors before = m.factors();
  // Less than the round trip: says nothing about p_td or p_sortd.
  m.Fit(*Node(Algorithm::kTransferD, 10, 400,
              {Node(Algorithm::kProjectM, 10, 400, {Shipped(400)})}),
        before.stmt / 2, 0.5);
  m.Fit(*Node(Algorithm::kTransferM, 10, 400,
              {Node(Algorithm::kSortD, 10, 400, {Scan(400)})}),
        before.stmt / 2, 0.5);
  EXPECT_EQ(m.factors().td, before.td);
  EXPECT_EQ(m.factors().sortd, before.sortd);
  EXPECT_EQ(m.factors().tm, before.tm);
}

}  // namespace
}  // namespace cost
}  // namespace tango
