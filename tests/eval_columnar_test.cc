// Differential tests for the columnar batch join engine: EvaluateQuery (and
// its context-aware, fanned-out variant) must match the pre-columnar
// tuple-at-a-time EvaluateQueryReference byte-for-byte at every thread
// count, including on inputs that defeat the small-integer column fast path
// (non-integral rationals, symbols, magnitudes near INT64_MAX).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/task_pool.h"
#include "src/engine/context.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

constexpr size_t kThreadCounts[] = {0, 1, 4, 8};

std::string RenderRelation(const Relation& r) {
  std::string out;
  for (const Tuple& t : r) {
    out += "(";
    for (size_t i = 0; i < t.size(); ++i)
      out += StrCat(i ? "," : "", t[i].ToString());
    out += ")";
  }
  return out;
}

// Batch path vs row path, serial and at each pool size.
void ExpectMatchesReference(const Query& q, const Database& db,
                            const std::string& what) {
  Result<Relation> ref = EvaluateQueryReference(q, db);
  ASSERT_TRUE(ref.ok()) << what << ": " << ref.status().ToString();
  const std::string expected = RenderRelation(ref.value());

  for (size_t threads : kThreadCounts) {
    TaskPool pool(threads);
    EngineContext ctx;
    ctx.set_task_pool(&pool);
    // kSyntactic pins the written atom 0 as the one the fan-out slices.
    for (EvalOptions::JoinOrder order : {EvalOptions::JoinOrder::kPlanned,
                                         EvalOptions::JoinOrder::kSyntactic}) {
      EvalOptions options;
      options.join_order = order;
      Result<Relation> got = EvaluateQuery(ctx, q, db, options);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
      EXPECT_EQ(RenderRelation(got.value()), expected)
          << what << " diverged at threads=" << threads
          << " order=" << static_cast<int>(order);
    }
  }
}

Value Num(int64_t n, int64_t d = 1) { return Value(Rational(n, d)); }

TEST(EvalColumnarTest, RandomizedSweepMatchesReference) {
  for (uint64_t seed : {1u, 7u, 19u, 42u, 101u, 2026u}) {
    Rng rng(seed);
    gen::QuerySpec qspec;
    qspec.num_subgoals = 1 + static_cast<int>(seed % 3);
    qspec.num_vars = 4;
    qspec.ac_mode = seed % 2 ? gen::AcMode::kGeneral : gen::AcMode::kLsi;
    qspec.ac_density = 0.8;
    Query q = gen::RandomQuery(rng, qspec);
    gen::DatabaseSpec dspec;
    dspec.tuples_per_relation = 120;
    Database db = gen::RandomDatabase(rng, gen::SchemaOf(q), dspec);
    ExpectMatchesReference(q, db, StrCat("seed=", seed, " q=", q.ToString()));
  }
}

TEST(EvalColumnarTest, RecordsBatchAndFallbackStats) {
  Query q = MustParseQuery("q(X, Y) :- r(X, Z), s(Z, Y), X <= Y");
  Database db;
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(db.Insert("r", {Value(Rational(i)), Value(Rational(i % 8))}).ok());
    ASSERT_TRUE(db.Insert("s", {Value(Rational(i % 8)), Value(Rational(i))}).ok());
  }
  // A non-integral rational forces the s-value column off the int fast path.
  ASSERT_TRUE(db.Insert("s", {Value(Rational(3)), Value(Rational(7, 2))}).ok());

  TaskPool pool(0);
  EngineContext ctx;
  ctx.set_task_pool(&pool);
  Result<Relation> got = EvaluateQuery(ctx, q, db);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(uint64_t{ctx.stats().eval_batches}, 0u);
  EXPECT_GT(uint64_t{ctx.stats().eval_smallint_fallbacks}, 0u);
  ExpectMatchesReference(q, db, "stats workload");
}

TEST(EvalColumnarTest, NonIntegralRationalComparisons) {
  Query q = MustParseQuery("q(X, Y) :- r(X), s(Y), X < Y");
  Database db;
  // Mixed integral and fractional values around the same magnitudes, so the
  // vectorized < filter must fall back to exact arithmetic for the
  // fractional rows while keeping the integral rows on the i64 path.
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert("r", {Value(Rational(i))}).ok());
    ASSERT_TRUE(db.Insert("r", {Value(Rational(2 * i + 1, 2))}).ok());
    ASSERT_TRUE(db.Insert("s", {Value(Rational(i))}).ok());
    ASSERT_TRUE(db.Insert("s", {Value(Rational(2 * i + 1, 3))}).ok());
  }
  ExpectMatchesReference(q, db, "non-integral rationals");
}

TEST(EvalColumnarTest, ExtremeMagnitudesStayExact) {
  // Cross-multiplication comparing i64 against a rational must not overflow:
  // these magnitudes would wrap any naive 64-bit product.
  Query q = MustParseQuery("q(X, Y) :- r(X), s(Y), X < Y");
  const int64_t kBig = INT64_MAX - 1;
  Database db;
  ASSERT_TRUE(db.Insert("r", {Value(Rational(kBig))}).ok());
  ASSERT_TRUE(db.Insert("r", {Value(Rational(-kBig))}).ok());
  ASSERT_TRUE(db.Insert("r", {Value(Rational(kBig, 3))}).ok());
  ASSERT_TRUE(db.Insert("s", {Value(Rational(kBig))}).ok());
  ASSERT_TRUE(db.Insert("s", {Value(Rational(kBig - 1))}).ok());
  ASSERT_TRUE(db.Insert("s", {Value(Rational(-kBig, 7))}).ok());
  ExpectMatchesReference(q, db, "extreme magnitudes");
}

TEST(EvalColumnarTest, SymbolsMixWithNumbers) {
  Query q = MustParseQuery("q(X, Y) :- r(X, Y), s(Y)");
  Database db;
  ASSERT_TRUE(db.Insert("r", {Value(Rational(1)), Value(std::string("a"))}).ok());
  ASSERT_TRUE(db.Insert("r", {Value(Rational(2)), Value(Rational(3))}).ok());
  ASSERT_TRUE(db.Insert("r", {Value(std::string("b")), Value(Rational(3))}).ok());
  ASSERT_TRUE(db.Insert("s", {Value(std::string("a"))}).ok());
  ASSERT_TRUE(db.Insert("s", {Value(Rational(3))}).ok());
  ExpectMatchesReference(q, db, "symbol/number mix");
}

TEST(EvalColumnarTest, QueryYieldsTupleAgreesWithFullEvaluation) {
  Rng rng(77);
  gen::QuerySpec qspec;
  qspec.num_subgoals = 2;
  qspec.num_vars = 4;
  qspec.ac_density = 0.5;
  Query q = gen::RandomQuery(rng, qspec);
  gen::DatabaseSpec dspec;
  dspec.tuples_per_relation = 60;
  Database db = gen::RandomDatabase(rng, gen::SchemaOf(q), dspec);

  Result<Relation> full = EvaluateQueryReference(q, db);
  ASSERT_TRUE(full.ok());
  EngineStats stats;
  size_t checked = 0;
  for (const Tuple& t : full.value()) {
    Result<bool> hit = QueryYieldsTuple(q, db, t, &stats);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.value()) << TupleToString(t);
    if (++checked >= 10) break;
  }
  if (!full.value().empty()) {
    // Perturb a result tuple until it is not a result, then expect a miss.
    Tuple miss = *full.value().begin();
    do {
      miss[0] = Value(Rational(rng.Uniform(5000, 6000)));
    } while (full.value().count(miss));
    Result<bool> hit = QueryYieldsTuple(q, db, miss, &stats);
    ASSERT_TRUE(hit.ok());
    EXPECT_FALSE(hit.value());
  }
}

// ---- Fan-out ---------------------------------------------------------------
//
// With a pool attached, EvaluateQuery cuts atom 0 into contiguous slices
// that share one compiled join and one index set. These inputs hold at
// least 1000 tuples in atom 0, so at every thread count each chunk's slice
// is non-empty and reaches atom 1.

TEST(EvalColumnarTest, FanOutConstantInFirstAtomBecomesSliceCheck) {
  // Atom 0 probes on a constant in the serial join; a chunk scanning its
  // slice must check it instead, and the second constant stays a check.
  Database db;
  for (int64_t i = 0; i < 1200; ++i) {
    ASSERT_TRUE(db.Insert("r", {Num(i % 5), Num(i), Num(i % 40)}).ok());
    ASSERT_TRUE(db.Insert("s", {Num(i % 40), Num(i)}).ok());
  }
  ExpectMatchesReference(
      MustParseQuery("q(X, Z) :- r(3, X, Y), s(Y, Z), X < 900"), db,
      "constant probe in atom 0");
  ExpectMatchesReference(MustParseQuery("q(X, Z) :- r(3, X, 7), s(7, Z)"), db,
                         "constant probe and check in atom 0");
}

TEST(EvalColumnarTest, FanOutRepeatedVariableAndArityMismatchInFirstAtom) {
  Database db;
  for (int64_t i = 0; i < 1200; ++i) {
    ASSERT_TRUE(db.Insert("r", {Num(i % 30), Num(i % 20), Num(i)}).ok());
    ASSERT_TRUE(db.Insert("s", {Num(i), Num(i % 7)}).ok());
  }
  // r(X, X, Y) keeps the tuples whose first two columns agree.
  ExpectMatchesReference(MustParseQuery("q(X, Z) :- r(X, X, Y), s(Y, Z)"), db,
                         "repeated variable in atom 0");
  // A Database keeps one arity per relation, so the mismatch is between
  // atom 0 and every tuple of r. The last query's constant sits past the
  // end of each tuple: a slice scan must test the arity before it.
  ExpectMatchesReference(MustParseQuery("q(X) :- r(X, X), s(X, Y)"), db,
                         "atom 0 narrower than r");
  ExpectMatchesReference(MustParseQuery("q(X) :- r(X, X, Y, 5), s(Y, X)"), db,
                         "atom 0 wider than r, constant past the tuple end");
}

TEST(EvalColumnarTest, FanOutChunksBuildBothIndexKindsOfOneProbeColumn) {
  // r's join column is all small integers for X < 600 and mixes symbols
  // and non-integral rationals above, so the chunks over the low slices
  // probe s through the int64-keyed index while the chunks over the high
  // slices probe it through the Value-keyed one — both built once, while
  // other chunks probe.
  Database db;
  for (int64_t x = 0; x < 1200; ++x) {
    Value y = Num(x % 50);
    if (x >= 600 && x % 3 == 0) y = Value(StrCat("k", x % 5));
    if (x >= 600 && x % 3 == 1) y = Num(2 * (x % 50) + 1, 2);
    ASSERT_TRUE(db.Insert("r", {Num(x), y}).ok());
  }
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(db.Insert("s", {Num(k), Num(k)}).ok());
    ASSERT_TRUE(db.Insert("s", {Num(2 * k + 1, 2), Num(2000 + k)}).ok());
  }
  for (int64_t k = 0; k < 5; ++k)
    ASSERT_TRUE(db.Insert("s", {Value(StrCat("k", k)), Num(1000 + k)}).ok());
  ExpectMatchesReference(MustParseQuery("q(X, Z) :- r(X, Y), s(Y, Z)"), db,
                         "mixed probe column");
  ExpectMatchesReference(
      MustParseQuery("q(X, Z) :- r(X, Y), s(Y, Z), Z < 1003"), db,
      "mixed probe column with a filter");
}

TEST(EvalColumnarTest, FanOutWithExpiredDeadlineIsExhausted) {
  // Every r tuple joins 500 s tuples, so each chunk passes the join's
  // checkpoint many times over; a deadline already in the past must abort
  // every chunk and fail the whole evaluation.
  Database db;
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db.Insert("r", {Num(i), Num(i % 4)}).ok());
    ASSERT_TRUE(db.Insert("s", {Num(i % 4), Num(i)}).ok());
  }
  Query q = MustParseQuery("q(X, Z) :- r(X, Y), s(Y, Z)");
  for (size_t threads : {1, 4, 8}) {
    TaskPool pool(threads);
    Budget budget;
    budget.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    EngineContext ctx(budget);
    ctx.set_task_pool(&pool);
    Result<Relation> got = EvaluateQuery(ctx, q, db);
    ASSERT_FALSE(got.ok()) << "threads=" << threads;
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
        << got.status();
    EXPECT_GT(uint64_t{ctx.stats().budget_exhaustions}, 0u);
    EXPECT_GT(uint64_t{ctx.stats().parallel_sections}, 0u)
        << "threads=" << threads << " did not fan out";
  }
}

// ---- Leading-column ranges -------------------------------------------------
//
// A constant at atom 0's first position, or numeric bounds the comparisons
// put on the variable there, restrict the join to one contiguous run of the
// sorted relation. Every case runs at threads 0/1/4/8 under both join
// orders, so the range feeds the serial scan and the fan-out slices alike.

// r's first column holds -600..599 twice (second columns differ), the
// halves 1/2..59/2, the diagonal (k, k) for k < 50, ±INT64_MAX, and the
// symbols a..e; s fans each second column out to three rows.
Database LeadingRangeDatabase() {
  Database db;
  auto add = [&db](const char* pred, Value a, Value b) {
    ASSERT_TRUE(db.Insert(pred, {std::move(a), std::move(b)}).ok());
  };
  for (int64_t i = 0; i < 2400; ++i) add("r", Num(i % 1200 - 600), Num(i % 37));
  for (int64_t k = 0; k < 60; k += 2) add("r", Num(k + 1, 2), Num(k % 37));
  for (int64_t k = 0; k < 50; ++k) add("r", Num(k), Num(k));
  for (int64_t x : {INT64_MAX, -INT64_MAX}) {
    add("r", Num(x), Num(1));
    add("r", Num(x), Num(2));
  }
  for (const char* sym : {"a", "b", "c", "d", "e"}) {
    add("r", Value(std::string(sym)), Num(3));
    add("r", Value(std::string(sym)), Num(4));
  }
  for (int64_t y = 0; y < 50; ++y)
    for (int64_t z = 0; z < 3; ++z) add("s", Num(y), Num(100 * z + y));
  return db;
}

void ExpectRangeCases(const Database& db,
                      std::initializer_list<const char*> bodies) {
  for (const char* body : bodies)
    ExpectMatchesReference(MustParseQuery(StrCat("q(X, Z) :- ", body)), db,
                           body);
}

TEST(EvalColumnarTest, LeadingRangeStrictAndNonStrictBounds) {
  const Database db = LeadingRangeDatabase();
  ExpectRangeCases(
      db, {"r(X, Y), s(Y, Z), X < 100", "r(X, Y), s(Y, Z), X <= 100",
           "r(X, Y), s(Y, Z), -100 < X", "r(X, Y), s(Y, Z), -100 <= X",
           "r(X, Y), s(Y, Z), X > 500", "r(X, Y), s(Y, Z), X >= 500",
           "r(X, Y), s(Y, Z), -100 < X, X <= 100",
           "r(X, Y), s(Y, Z), -100 <= X, X < 100",
           // Ties between bounds on the same key: the strict one wins,
           // whichever comes first.
           "r(X, Y), s(Y, Z), X < 100, X <= 100",
           "r(X, Y), s(Y, Z), X <= 100, X < 100, X < 300",
           "r(X, Y), s(Y, Z), 5 <= X, 5 < X, 2 < X"});
}

TEST(EvalColumnarTest, LeadingRangeEqualityAndConstants) {
  const Database db = LeadingRangeDatabase();
  ExpectRangeCases(
      db, {"r(X, Y), s(Y, Z), X = 7", "r(X, Y), s(Y, Z), 7 = X",
           "r(X, Y), s(Y, Z), X = 7, X < 5",
           // A point range whose key is absent, and one on a symbol.
           "r(X, Y), s(Y, Z), X = 1000", "r(X, Y), s(Y, Z), X = b"});
  // A constant at position 0 (and one later in the atom) pins the run to
  // one key; the later constant stays a check.
  for (const char* q : {"q(Y, Z) :- r(7, Y), s(Y, Z)",
                        "q(Z) :- r(7, 7), s(7, Z)",
                        "q(Z) :- r(7, 8), s(7, Z)",
                        "q(Y) :- r(-600, Y)",
                        "q(Y) :- r(c, Y)",
                        "q(Y, Z) :- r(7, Y), s(Y, Z), Z < 150"})
    ExpectMatchesReference(MustParseQuery(q), db, q);
}

TEST(EvalColumnarTest, LeadingRangeNonIntegralBounds) {
  const Database db = LeadingRangeDatabase();
  ExpectRangeCases(db, {"r(X, Y), s(Y, Z), X < 5/2",
                        "r(X, Y), s(Y, Z), X <= 5/2",
                        "r(X, Y), s(Y, Z), 5/2 < X, X < 7/2",
                        "r(X, Y), s(Y, Z), 5/2 <= X, X <= 7/2",
                        "r(X, Y), s(Y, Z), X = 5/2"});
}

TEST(EvalColumnarTest, LeadingRangeContradictoryAndPoint) {
  const Database db = LeadingRangeDatabase();
  ExpectRangeCases(db, {"r(X, Y), s(Y, Z), X < 3, 7 < X",
                        "r(X, Y), s(Y, Z), 3 < X, X <= 3",
                        "r(X, Y), s(Y, Z), 3 <= X, X < 3",
                        "r(X, Y), s(Y, Z), X = 3, X = 4",
                        "r(X, Y), s(Y, Z), 3 <= X, X <= 3"});
}

TEST(EvalColumnarTest, LeadingRangeNegativeAndExtremeBounds) {
  const Database db = LeadingRangeDatabase();
  const std::string max = StrCat(INT64_MAX);
  const std::string min = StrCat(-INT64_MAX);
  ExpectRangeCases(db, {"r(X, Y), s(Y, Z), X < -550",
                        "r(X, Y), s(Y, Z), X <= -600",
                        "r(X, Y), s(Y, Z), -3 < X, X < -1"});
  for (const std::string& body :
       {StrCat("X < ", max), StrCat("X <= ", max), StrCat(max, " <= X"),
        StrCat(max, " < X"), StrCat(min, " < X"), StrCat(min, " <= X"),
        StrCat("X <= ", min), StrCat("X < ", min),
        StrCat(min, " < X, X < ", max)}) {
    const std::string q = StrCat("q(X, Z) :- r(X, Y), s(Y, Z), ", body);
    ExpectMatchesReference(MustParseQuery(q), db, q);
  }
}

TEST(EvalColumnarTest, LeadingRangeSymbolsAndRepeatedVariable) {
  const Database db = LeadingRangeDatabase();
  // Symbols sort after every number: a lower bound alone must stop before
  // them, and an unrestricted scan must still reach them.
  ExpectRangeCases(db, {"r(X, Y), s(Y, Z), 500 < X", "r(X, Y), s(Y, Z)",
                        "r(X, Y), s(Y, Z), X < 0"});
  for (const char* q : {"q(X) :- r(X, X), X < 30", "q(X) :- r(X, X), 10 <= X",
                        "q(X, Z) :- r(X, X), s(X, Z), 5 < X, X <= 40"})
    ExpectMatchesReference(MustParseQuery(q), db, q);
}

TEST(EvalColumnarTest, VariableComparisonsGiveNoRange) {
  const Database db = LeadingRangeDatabase();
  for (const char* q : {"q(X, Y) :- r(X, Y), X < Y",
                        "q(X, Y) :- r(X, Y), Y <= X",
                        "q(X, Z) :- r(X, Y), s(Y, Z), X < Z",
                        "q(X, Z) :- r(X, Y), s(Y, Z), Y < 3, Z < 120"})
    ExpectMatchesReference(MustParseQuery(q), db, q);
}

TEST(EvalColumnarTest, LeadingRangeScansOnlyItsRun) {
  // The join polls its checkpoint once per 4096 candidate tuples, so the
  // poll count bounds how much of atom 0 it walked: a range of 1000 keys
  // out of 20000 must never reach the first poll. Key 1000 holds 5000 more
  // tuples and 5000 symbols follow the numbers, so a range that takes in
  // key 1000 or runs on into the symbols would poll.
  Database db;
  for (int64_t i = 0; i < 20000; ++i)
    ASSERT_TRUE(db.Insert("r", {Num(i), Num(i % 7)}).ok());
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db.Insert("r", {Num(1000), Num(7 + i)}).ok());
    ASSERT_TRUE(db.Insert("r", {Value(StrCat("s", i)), Num(5)}).ok());
  }
  const std::vector<const Relation*> rels = {&db.Get("r")};
  auto run = [&](const char* text, size_t* rows) {
    Query q = MustParseQuery(text);
    size_t polls = 0;
    *rows = 0;
    EXPECT_TRUE(JoinBodyBatches(
        q, rels,
        [&](const Batch& b, const std::vector<int>&) {
          *rows += b.rows;
          return true;
        },
        [&] {
          ++polls;
          return true;
        }));
    return polls;
  };
  size_t rows = 0;
  for (const char* q : {"q(X) :- r(X, Y), X < 1000",
                        "q(X) :- r(X, Y), 19000 <= X",
                        "q(X) :- r(X, Y), 9000 < X, X <= 10000",
                        "q(X) :- r(X, Y), X < 1000, X <= 1000",
                        "q(X) :- r(X, Y), X <= 1000, X < 1000"}) {
    EXPECT_EQ(run(q, &rows), 0u) << q;
    EXPECT_EQ(rows, 1000u) << q;
  }
  EXPECT_EQ(run("q(Y) :- r(12345, Y)", &rows), 0u);
  EXPECT_EQ(rows, 1u);
  EXPECT_GE(run("q(X) :- r(X, Y), Y < 3", &rows), 4u);
  EXPECT_EQ(rows, 8572u);
}

TEST(EvalColumnarTest, RangeRestrictedFanOutWithExpiredDeadlineIsExhausted) {
  // The run X < 1000 is half of r and each of its tuples joins 500 s
  // tuples, so every chunk still passes the checkpoint many times over.
  Database db;
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db.Insert("r", {Num(i), Num(i % 4)}).ok());
    ASSERT_TRUE(db.Insert("s", {Num(i % 4), Num(i)}).ok());
  }
  Query q = MustParseQuery("q(X, Z) :- r(X, Y), s(Y, Z), X < 1000");
  for (size_t threads : {1, 4, 8}) {
    TaskPool pool(threads);
    Budget budget;
    budget.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    EngineContext ctx(budget);
    ctx.set_task_pool(&pool);
    EvalOptions options;
    options.join_order = EvalOptions::JoinOrder::kSyntactic;
    Result<Relation> got = EvaluateQuery(ctx, q, db, options);
    ASSERT_FALSE(got.ok()) << "threads=" << threads;
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
        << got.status();
    EXPECT_GT(uint64_t{ctx.stats().budget_exhaustions}, 0u);
    EXPECT_GT(uint64_t{ctx.stats().parallel_sections}, 0u)
        << "threads=" << threads << " did not fan out";
  }
}

}  // namespace
}  // namespace cqac
