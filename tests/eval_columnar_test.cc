// Differential tests for the columnar batch join engine: EvaluateQuery (and
// its context-aware, fanned-out variant) must match the pre-columnar
// tuple-at-a-time EvaluateQueryReference byte-for-byte at every thread
// count, including on inputs that defeat the small-integer column fast path
// (non-integral rationals, symbols, magnitudes near INT64_MAX).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

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

}  // namespace
}  // namespace cqac
