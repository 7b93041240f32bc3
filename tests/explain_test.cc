#include "src/containment/explain.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "src/base/strings.h"
#include "src/containment/containment.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

TEST(ExplainTest, SingleMappingCase) {
  EngineContext ctx;
  auto e = ExplainContainment(ctx, MustParseQuery("q(X) :- r(X), X < 3"),
                              MustParseQuery("q(X) :- r(X), X < 4"));
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_TRUE(e.value().contained);
  ASSERT_EQ(e.value().mappings.size(), 1u);
  EXPECT_TRUE(e.value().mappings[0].directly_implied);
  EXPECT_NE(e.value().ToString().find("CONTAINED"), std::string::npos);
}

TEST(ExplainTest, CouplingCaseExample51) {
  EngineContext ctx;
  auto e = ExplainContainment(ctx, workloads::Example51Q2(),
                              workloads::Example51Q1());
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_TRUE(e.value().contained);
  EXPECT_EQ(e.value().mappings.size(), 3u);  // three chain mappings
  // No mapping suffices alone — the narrative reports the joint argument.
  for (const MappingEvidence& m : e.value().mappings)
    EXPECT_FALSE(m.directly_implied);
  EXPECT_NE(e.value().narrative.find("no single mapping"),
            std::string::npos)
      << e.value().narrative;
}

TEST(ExplainTest, NoMappingCase) {
  EngineContext ctx;
  auto e = ExplainContainment(ctx, MustParseQuery("q() :- s(X)"),
                              MustParseQuery("q() :- r(X)"));
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e.value().contained);
  EXPECT_NE(e.value().narrative.find("no containment mapping"),
            std::string::npos);
}

TEST(ExplainTest, MappingsExistButAcsFail) {
  EngineContext ctx;
  auto e = ExplainContainment(ctx, MustParseQuery("q(X) :- r(X), X < 5"),
                              MustParseQuery("q(X) :- r(X), X < 3"));
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e.value().contained);
  ASSERT_EQ(e.value().mappings.size(), 1u);
  EXPECT_FALSE(e.value().mappings[0].directly_implied);
  EXPECT_NE(e.value().narrative.find("Theorem 2.1 fails"),
            std::string::npos);
}

TEST(ExplainTest, InconsistentSides) {
  EngineContext ctx;
  auto empty_in = ExplainContainment(
      ctx, MustParseQuery("q(X) :- r(X), X < 1, X > 2"),
      MustParseQuery("q(X) :- s(X)"));
  ASSERT_TRUE(empty_in.ok());
  EXPECT_TRUE(empty_in.value().contained);
  EXPECT_NE(empty_in.value().narrative.find("unsatisfiable"),
            std::string::npos);

  auto into_empty = ExplainContainment(
      ctx, MustParseQuery("q(X) :- s(X)"),
      MustParseQuery("q(X) :- r(X), X < 1, X > 2"));
  ASSERT_TRUE(into_empty.ok());
  EXPECT_FALSE(into_empty.value().contained);
}

TEST(ExplainTest, VerdictAlwaysMatchesIsContained) {
  // Separate contexts, so the explanation's verdict is re-decided rather
  // than read back from the first decision's cache entry.
  EngineContext verdict_ctx;
  EngineContext explain_ctx;
  std::vector<std::pair<std::string, std::string>> cases = {
      {"q(X) :- r(X), X < 3", "q(X) :- r(X), X <= 3"},
      {"q(X) :- r(X), X <= 3", "q(X) :- r(X), X < 3"},
      {"q() :- e(A, B), e(B, A)", "q() :- e(X, Y), X <= Y"},
      {"q(X) :- e(X, X)", "q(X) :- e(X, Y)"},
  };
  for (const auto& [a, b] : cases) {
    auto verdict =
        IsContained(verdict_ctx, MustParseQuery(a), MustParseQuery(b));
    auto explained =
        ExplainContainment(explain_ctx, MustParseQuery(a), MustParseQuery(b));
    ASSERT_TRUE(verdict.ok());
    ASSERT_TRUE(explained.ok());
    EXPECT_EQ(verdict.value(), explained.value().contained) << a;
  }
}

TEST(ExplainTest, RunsUnderTheCallersContext) {
  // A 6-edge walk into a complete digraph on 4 nodes: 4^7 mappings to
  // render, far past the homomorphism search's periodic deadline check.
  std::string clique = "q() :- ";
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b)
      clique += StrCat(a || b ? ", " : "", "r(X", a, ", X", b, ")");
  std::string walk = "q() :- ";
  for (int i = 0; i < 6; ++i)
    walk += StrCat(i ? ", " : "", "r(Y", i, ", Y", i + 1, ")");

  // A deadline already in the past stops the explanation like any other
  // engine call under that context.
  EngineContext expired(Budget::WithTimeout(std::chrono::milliseconds(-1)));
  auto cut = ExplainContainment(expired, MustParseQuery(clique),
                                MustParseQuery(walk));
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kResourceExhausted);

  // The decision is charged to the caller's counters.
  EngineContext ctx;
  ASSERT_EQ(ctx.stats().containment_calls, 0u);
  ASSERT_TRUE(ExplainContainment(ctx, MustParseQuery("q(X) :- r(X), X < 3"),
                                 MustParseQuery("q(X) :- r(X), X < 4"))
                  .ok());
  EXPECT_GT(ctx.stats().containment_calls, 0u);
}

}  // namespace
}  // namespace cqac
