// Trace-span tests: recorder semantics (first-call-wins stamps, parent
// fixups), Chrome trace_event JSON well-formedness (validated by a real
// JSON parser, not substring checks), and the middleware integration —
// every executed operator gets a span, spans nest properly, and every
// operator span carries the executing thread's id.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"
#include "tango/middleware.h"

namespace tango {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON well-formedness checker (objects, arrays, strings with
// escapes, numbers, literals). Returns false on any syntax error.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(
                                         s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TraceRecorderTest, StampsAreFirstCallWins) {
  obs::TraceRecorder trace;
  const obs::SpanId id = trace.Allocate("op", "operator");
  // End before Begin is ignored: the span stays un-started.
  trace.End(id);
  std::vector<obs::Span> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].completed());

  trace.Begin(id);
  const int64_t started = trace.Snapshot()[0].start_us;
  trace.Begin(id);  // second Begin ignored
  EXPECT_EQ(trace.Snapshot()[0].start_us, started);
  trace.End(id);
  const int64_t ended = trace.Snapshot()[0].end_us;
  trace.End(id);  // second End ignored
  EXPECT_EQ(trace.Snapshot()[0].end_us, ended);
  EXPECT_TRUE(trace.Snapshot()[0].completed());

  // kNoSpan is always safe.
  trace.Begin(obs::kNoSpan);
  trace.End(obs::kNoSpan);
  EXPECT_EQ(trace.Snapshot().size(), 1u);
}

TEST(TraceRecorderTest, ParentFixupAndPlanNodeAttribution) {
  obs::TraceRecorder trace;
  const obs::SpanId parent = trace.StartSpan("execute", "query");
  const obs::SpanId child = trace.Allocate("SORT^M", "operator", obs::kNoSpan,
                                           /*plan_node=*/3);
  trace.SetParent(child, parent);
  trace.Begin(child);
  trace.End(child);
  trace.End(parent);

  std::map<obs::SpanId, obs::Span> by_id;
  for (const obs::Span& s : trace.Snapshot()) by_id[s.id] = s;
  EXPECT_EQ(by_id[child].parent, parent);
  EXPECT_EQ(by_id[child].plan_node, 3);
  EXPECT_EQ(by_id[parent].plan_node, -1);
}

TEST(TraceRecorderTest, ScopedSpanIsNullSafe) {
  obs::ScopedSpan off(nullptr, "noop", "test");
  EXPECT_EQ(off.id(), obs::kNoSpan);

  obs::TraceRecorder trace;
  {
    obs::ScopedSpan on(&trace, "scoped", "test");
    EXPECT_NE(on.id(), obs::kNoSpan);
  }
  std::vector<obs::Span> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].completed());
}

TEST(TraceRecorderTest, ChromeJsonIsWellFormedAndEscaped) {
  obs::TraceRecorder trace;
  // Hostile name: quotes, backslash, newline, tab, control char.
  const obs::SpanId nasty =
      trace.StartSpan("SELECT \"G\" \\ \n\t \x01 FROM R", "operator");
  trace.End(nasty);
  const obs::SpanId open = trace.StartSpan("never-ended", "query");
  (void)open;

  const std::string json = trace.ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // The required trace_event envelope and complete-event phase.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Open spans are omitted, not emitted half-timed.
  EXPECT_EQ(json.find("never-ended"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Middleware integration on Query 2 (the paper's join query) at DOP 2.

struct RandomRelation {
  std::vector<Tuple> rows;  // (G, V, T1, T2)
};

RandomRelation MakeRelation(uint64_t seed, size_t n, int64_t groups,
                            int64_t horizon) {
  Rng rng(seed);
  RandomRelation rel;
  for (size_t i = 0; i < n; ++i) {
    const int64_t t1 = rng.Uniform(0, horizon);
    rel.rows.push_back({Value(rng.Uniform(1, groups)),
                        Value(rng.Uniform(0, 50)), Value(t1),
                        Value(t1 + rng.Uniform(1, horizon / 4))});
  }
  return rel;
}

void Load(dbms::Engine* db, const std::string& table,
          const RandomRelation& rel) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE " + table + " (G INT, V INT, T1 INT, T2 INT)")
          .ok());
  ASSERT_TRUE(db->BulkLoad(table, rel.rows).ok());
  ASSERT_TRUE(db->Execute("ANALYZE " + table).ok());
}

const char* kQuery2 =
    "TEMPORAL SELECT X.G, X.V, Y.V FROM RA X, RB Y "
    "WHERE X.G = Y.G ORDER BY G";

TEST(TraceMiddlewareTest, Query2SpansCoverPlanNestAndThread) {
  dbms::Engine db;
  Load(&db, "RA", MakeRelation(7, 400, 8, 80));
  Load(&db, "RB", MakeRelation(8, 300, 8, 80));

  Middleware::Config config;
  config.wire.simulate_delay = false;
  config.adapt = false;
  Middleware mw(&db, config);
  // Ban the DBMS-side sort/join algorithms so the plan keeps its sort, join
  // and transfers in the middleware, each with its own operator span.
  cost::CostFactors& f = mw.cost_model().factors();
  f.sortd = f.joind = f.prodd = 1e9;

  obs::TraceRecorder trace;
  mw.set_trace_recorder(&trace);

  auto prepared = mw.Prepare(kQuery2);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto exec = mw.Execute(prepared.ValueOrDie());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_GT(exec.ValueOrDie().rows.size(), 0u);

  const std::vector<obs::Span> spans = trace.Snapshot();
  std::map<obs::SpanId, obs::Span> by_id;
  for (const obs::Span& s : spans) by_id[s.id] = s;

  auto find_one = [&spans](const std::string& name) -> const obs::Span* {
    for (const obs::Span& s : spans) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const obs::Span* execute = find_one("execute");
  ASSERT_NE(execute, nullptr);
  ASSERT_TRUE(execute->completed());
  EXPECT_NE(find_one("optimize"), nullptr);
  const obs::Span* compile = find_one("compile");
  ASSERT_NE(compile, nullptr);
  EXPECT_EQ(compile->parent, execute->id);

  // Every executed operator is present as a span attributed to its plan
  // node (timing id), begun and ended.
  const exec::TimingSink& timings = exec.ValueOrDie().timings;
  ASSERT_GT(timings.size(), 0u);
  for (size_t i = 0; i < timings.size(); ++i) {
    const obs::Span* op = nullptr;
    for (const obs::Span& s : spans) {
      if (s.category == "operator" && s.name == timings[i].label &&
          s.plan_node == static_cast<int64_t>(i)) {
        op = &s;
        break;
      }
    }
    ASSERT_NE(op, nullptr) << "no span for operator " << i << " ("
                           << timings[i].label << ")";
    EXPECT_TRUE(op->completed()) << timings[i].label;
  }

  // Proper nesting: every completed child interval is contained in its
  // (completed) parent's interval.
  size_t checked = 0;
  for (const obs::Span& s : spans) {
    if (!s.completed() || s.parent == obs::kNoSpan) continue;
    const auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << s.name;
    const obs::Span& p = it->second;
    ASSERT_TRUE(p.completed()) << s.name << " inside " << p.name;
    EXPECT_GE(s.start_us, p.start_us) << s.name << " inside " << p.name;
    EXPECT_LE(s.end_us, p.end_us) << s.name << " inside " << p.name;
    ++checked;
  }
  EXPECT_GT(checked, 0u);

  // Thread attribution: the executor is serial, so every operator span —
  // begun at the operator's first Init — ran on the execute span's thread.
  size_t operator_spans = 0;
  for (const obs::Span& s : spans) {
    if (s.category != "operator") continue;
    EXPECT_EQ(s.thread_id, execute->thread_id) << s.name;
    ++operator_spans;
  }
  EXPECT_GT(operator_spans, 0u);

  // Acceptance: the Query 2 trace exports as valid Chrome trace_event JSON.
  const std::string json = trace.ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("TRANSFER^M"), std::string::npos);
}

TEST(TraceMiddlewareTest, RetryBackoffSpansAppearUnderFault) {
  dbms::Engine db;
  Load(&db, "R", MakeRelation(11, 200, 6, 60));
  Middleware::Config config;
  config.wire.simulate_delay = false;
  config.adapt = false;
  Middleware mw(&db, config);
  auto injector = std::make_shared<dbms::FaultInjector>();
  mw.connection().set_fault_injector(injector);
  obs::TraceRecorder trace;
  mw.set_trace_recorder(&trace);

  dbms::FaultPlan plan;
  plan.kind = dbms::FaultKind::kStatementFail;
  plan.sql_substring = "SELECT";
  plan.times = 2;
  injector->Arm(plan);

  auto r = mw.Query(
      "TEMPORAL SELECT G, T1, T2, COUNT(G) AS CNT FROM R "
      "GROUP BY G OVER TIME ORDER BY G, T1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::map<obs::SpanId, obs::Span> by_id;
  for (const obs::Span& s : trace.Snapshot()) by_id[s.id] = s;
  size_t backoffs = 0;
  for (const auto& [id, s] : by_id) {
    if (s.name != "retry.backoff") continue;
    EXPECT_TRUE(s.completed());
    // Each backoff sleep nests under the retrying transfer's operator span.
    const auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end());
    EXPECT_EQ(it->second.name, "TRANSFER^M");
    ++backoffs;
  }
  EXPECT_EQ(backoffs, 2u);
}

}  // namespace
}  // namespace tango
