#include "src/constraints/implication.h"

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

// Parses the comparisons of "q() :- r(X,Y,Z,W), <text>".
std::vector<Comparison> Acs(const std::string& text) {
  Query q = MustParseQuery("q() :- r(X, Y, Z, W), " + text);
  return q.comparisons();
}

TEST(ImplicationTest, ConsistencyBasics) {
  EXPECT_TRUE(AcsConsistent(Acs("X < Y, Y < Z")));
  EXPECT_FALSE(AcsConsistent(Acs("X < Y, Y < X")));
  EXPECT_TRUE(AcsConsistent(Acs("X <= Y, Y <= X")));  // X = Y is fine
  EXPECT_FALSE(AcsConsistent(Acs("X < 3, X > 5")));
  EXPECT_TRUE(AcsConsistent({}));
}

TEST(ImplicationTest, ConjunctionBasics) {
  auto r = ImpliesConjunction(Acs("X < 3"), Acs("X < 5"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());

  r = ImpliesConjunction(Acs("X < 5"), Acs("X < 3"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());

  r = ImpliesConjunction(Acs("X <= Y, Y <= 4"), Acs("X <= 4"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());

  r = ImpliesConjunction(Acs("X <= Y, Y < 4"), Acs("X < 4, X < 9"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
}

TEST(ImplicationTest, InconsistentPremiseImpliesAnything) {
  auto r = ImpliesConjunction(Acs("X < 2, X > 3"), Acs("Y < 1"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
}

TEST(ImplicationTest, StrictVersusNonStrict) {
  auto r = ImpliesConjunction(Acs("X <= 3"), Acs("X < 3"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());
  r = ImpliesConjunction(Acs("X < 3"), Acs("X <= 3"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
}

TEST(ImplicationTest, DisjunctionTotalityOfOrder) {
  EngineContext ctx;
  // {} => (X <= Y) v (Y <= X): totality of the dense order — no single
  // disjunct is implied, but the disjunction is valid.
  auto r = ImpliesDisjunction(ctx, {}, {Acs("X <= Y"), Acs("Y <= X")});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  auto single = ImpliesConjunction({}, Acs("X <= Y"));
  ASSERT_TRUE(single.ok());
  EXPECT_FALSE(single.value());
}

TEST(ImplicationTest, DisjunctionCouplingExample51) {
  EngineContext ctx;
  // A > 6 ^ E < 7 => (A > 5 ^ C < 8) v (C > 5 ^ E < 8)  [Example 5.1]
  Query q = MustParseQuery("q() :- r(A, C, E), A > 6, E < 7");
  std::vector<Comparison> premise = q.comparisons();
  Query d1q = MustParseQuery("q() :- r(A, C, E), A > 5, C < 8");
  Query d2q = MustParseQuery("q() :- r(A, C, E), C > 5, E < 8");
  auto r = ImpliesDisjunction(ctx, premise,
                              {d1q.comparisons(), d2q.comparisons()});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  // Neither disjunct alone suffices.
  auto r1 = ImpliesConjunction(premise, d1q.comparisons());
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.value());
  auto r2 = ImpliesConjunction(premise, d2q.comparisons());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value());
}

TEST(ImplicationTest, DisjunctionFailure) {
  EngineContext ctx;
  auto r = ImpliesDisjunction(ctx, Acs("X > 6"), {Acs("X < 5"), Acs("X > 10")});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());
}

TEST(ImplicationTest, EmptyDisjunctionOnlyFromInconsistency) {
  EngineContext ctx;
  auto r = ImpliesDisjunction(ctx, Acs("X < 3"), {});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());
  r = ImpliesDisjunction(ctx, Acs("X < 3, X > 5"), {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
}

TEST(ImplicationTest, Lemma21SingleDisjunctSufficesForLsiRhs) {
  EngineContext ctx;
  // Lemma 2.1: with LSI-only disjuncts, E => D1 v D2 iff E => D1 or E => D2.
  std::vector<std::vector<Comparison>> disjuncts = {Acs("X < 3"),
                                                    Acs("Y <= 2")};
  std::vector<std::vector<Comparison>> premises = {
      Acs("X < 2"), Acs("Y < 1"), Acs("X < 4"), Acs("X <= 2, Y <= 5"),
      Acs("X < 3, Y <= 2")};
  for (const auto& premise : premises) {
    auto whole = ImpliesDisjunction(ctx, premise, disjuncts);
    ASSERT_TRUE(whole.ok());
    bool any_single = false;
    for (const auto& d : disjuncts) {
      auto one = ImpliesConjunction(premise, d);
      ASSERT_TRUE(one.ok());
      any_single = any_single || one.value();
    }
    EXPECT_EQ(whole.value(), any_single);
  }
}

TEST(ImplicationTest, SiLemma51DirectImplication) {
  auto r = SiImpliesSiDisjunction(Acs("X > 6"), Acs("X > 5"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  r = SiImpliesSiDisjunction(Acs("X > 4"), Acs("X > 5"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());
}

TEST(ImplicationTest, SiLemma51Coupling) {
  // (X < 8) v (X > 5) is a tautology, so any premise implies it.
  auto r = SiImpliesSiDisjunction(Acs("Y > 100"), Acs("X < 8, X > 5"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  // (X < 5) v (X > 8) is not.
  r = SiImpliesSiDisjunction(Acs("Y > 100"), Acs("X < 5, X > 8"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());
  // Non-strict boundary: (X <= 5) v (X >= 5) is a tautology.
  r = SiImpliesSiDisjunction(Acs("Y > 100"), Acs("X <= 5, X >= 5"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  // Strict boundary: (X < 5) v (X > 5) is not (X = 5 escapes).
  r = SiImpliesSiDisjunction(Acs("Y > 100"), Acs("X < 5, X > 5"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());
}

TEST(ImplicationTest, SiLemma51RejectsNonSi) {
  EXPECT_FALSE(SiImpliesSiDisjunction(Acs("X <= Y"), Acs("X < 3")).ok());
  EXPECT_FALSE(SiImpliesSiDisjunction(Acs("X < 3"), Acs("X <= Y")).ok());
}

// Property test: on random SI instances, Lemma 5.1's procedure agrees with
// the general total-preorder enumeration (each disjunct a single atom).
TEST(ImplicationTest, SiProcedureAgreesWithGeneralProcedure) {
  EngineContext ctx;
  Rng rng(20260705);
  int checked = 0;
  for (int iter = 0; iter < 300; ++iter) {
    auto draw_si = [&](int var) {
      Rational c(rng.Uniform(0, 8));
      CompOp op = rng.Chance(0.5) ? CompOp::kLt : CompOp::kLe;
      if (rng.Chance(0.5))
        return Comparison(Term::Var(var), op, Term::Const(Value(c)));
      return Comparison(Term::Const(Value(c)), op, Term::Var(var));
    };
    std::vector<Comparison> premise;
    for (int i = 0, n = rng.Uniform(0, 3); i < n; ++i)
      premise.push_back(draw_si(rng.Uniform(0, 2)));
    std::vector<Comparison> atoms;
    for (int i = 0, n = rng.Uniform(1, 3); i < n; ++i)
      atoms.push_back(draw_si(rng.Uniform(0, 2)));

    auto si = SiImpliesSiDisjunction(premise, atoms);
    ASSERT_TRUE(si.ok());
    std::vector<std::vector<Comparison>> disjuncts;
    for (const Comparison& a : atoms) disjuncts.push_back({a});
    auto general = ImpliesDisjunction(ctx, premise, disjuncts);
    ASSERT_TRUE(general.ok());
    EXPECT_EQ(si.value(), general.value())
        << "iteration " << iter;
    ++checked;
  }
  EXPECT_EQ(checked, 300);
}

// Property test: the DPLL-style refutation procedure agrees with the
// brute-force preorder enumeration on random small disjunction instances.
TEST(ImplicationTest, DisjunctionProceduresAgree) {
  EngineContext ctx;
  Rng rng(8);
  for (int iter = 0; iter < 250; ++iter) {
    auto draw = [&]() {
      // Random atom over vars {0,1,2} and constants {0..4}; sometimes
      // var-var.
      Term lhs = Term::Var(static_cast<int>(rng.Uniform(0, 2)));
      Term rhs = rng.Chance(0.5)
                     ? Term::Var(static_cast<int>(rng.Uniform(0, 2)))
                     : Term::Const(Value(Rational(rng.Uniform(0, 4))));
      if (rng.Chance(0.3)) std::swap(lhs, rhs);
      CompOp op = rng.Chance(0.5) ? CompOp::kLt : CompOp::kLe;
      return Comparison(lhs, op, rhs);
    };
    std::vector<Comparison> premise;
    for (int i = 0, n = static_cast<int>(rng.Uniform(0, 3)); i < n; ++i)
      premise.push_back(draw());
    std::vector<std::vector<Comparison>> disjuncts;
    for (int i = 0, n = static_cast<int>(rng.Uniform(1, 3)); i < n; ++i) {
      std::vector<Comparison> d;
      for (int j = 0, m = static_cast<int>(rng.Uniform(1, 2)); j < m; ++j)
        d.push_back(draw());
      disjuncts.push_back(std::move(d));
    }
    auto fast = ImpliesDisjunction(ctx, premise, disjuncts);
    auto slow = ImpliesDisjunctionByPreorders(premise, disjuncts);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    ASSERT_EQ(fast.value(), slow.value()) << "iteration " << iter;
  }
}

TEST(PreorderEnumerationTest, CountsWithoutConstants) {
  // Weak orders of 3 labeled elements: 13 (ordered Bell number).
  std::set<int> vars{0, 1, 2};
  int count = 0;
  ForEachConsistentPreorder(vars, {}, {}, [&](const PreorderView&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 13);
}

TEST(PreorderEnumerationTest, CountsWithConstantsAndPremise) {
  // One variable against one constant: below, equal, above = 3.
  std::set<int> vars{0};
  int count = 0;
  ForEachConsistentPreorder(vars, {Rational(5)}, {}, [&](const PreorderView&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 3);

  // With premise X < 5 only one remains.
  count = 0;
  std::vector<Comparison> premise{
      Comparison(Term::Var(0), CompOp::kLt, Term::Const(Value(Rational(5))))};
  ForEachConsistentPreorder(vars, {Rational(5)}, premise,
                            [&](const PreorderView& v) {
                              ++count;
                              EXPECT_TRUE(v.Satisfies(premise[0]));
                              return true;
                            });
  EXPECT_EQ(count, 1);
}

TEST(PreorderEnumerationTest, AbortStopsEnumeration) {
  std::set<int> vars{0, 1, 2};
  int count = 0;
  bool completed =
      ForEachConsistentPreorder(vars, {}, {}, [&](const PreorderView&) {
        ++count;
        return count < 3;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3);
}

TEST(ImplicationTest, SymbolsUnsupportedInDisjunction) {
  EngineContext ctx;
  std::vector<Comparison> premise{
      Comparison(Term::Var(0), CompOp::kLt,
                 Term::Const(Value(std::string("red"))))};
  EXPECT_FALSE(ImpliesDisjunction(ctx, premise, {}).ok());
}

}  // namespace
}  // namespace cqac
