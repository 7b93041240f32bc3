// E10 (Example 5.1 / Lemma 5.1): the direct/coupling SI implication
// procedure versus the general engines.
//
// Lemma 5.1 says SI disjunction implication reduces to scanning for one
// direct implication or one coupling pair — linear-ish work — while the
// general DPLL refutation branches and the preorder enumeration is
// exponential in variables. All three must agree; the bench reports the
// time separation as the number of disjunct atoms grows.
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/base/rng.h"
#include "src/constraints/implication.h"

namespace cqac {
namespace {

struct Instance {
  std::vector<Comparison> premise;
  std::vector<Comparison> atoms;
};

Instance Draw(int atoms, uint64_t seed) {
  Rng rng(seed);
  Instance out;
  auto draw_si = [&rng](int var) {
    Rational c(rng.Uniform(0, 9));
    CompOp op = rng.Chance(0.5) ? CompOp::kLt : CompOp::kLe;
    if (rng.Chance(0.5))
      return Comparison(Term::Var(var), op, Term::Const(Value(c)));
    return Comparison(Term::Const(Value(c)), op, Term::Var(var));
  };
  for (int i = 0; i < 3; ++i)
    out.premise.push_back(draw_si(static_cast<int>(rng.Uniform(0, 3))));
  for (int i = 0; i < atoms; ++i)
    out.atoms.push_back(draw_si(static_cast<int>(rng.Uniform(0, 3))));
  return out;
}

void BM_SiProcedure(benchmark::State& state) {
  Instance in = Draw(static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    auto r = SiImpliesSiDisjunction(in.premise, in.atoms);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SiProcedure)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_DpllRefutation(benchmark::State& state) {
  Instance in = Draw(static_cast<int>(state.range(0)), 17);
  std::vector<std::vector<Comparison>> disjuncts;
  for (const Comparison& a : in.atoms) disjuncts.push_back({a});
  for (auto _ : state) {
    EngineContext ctx;
    auto r = ImpliesDisjunction(ctx, in.premise, disjuncts);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  // Agreement with the SI procedure.
  auto si = SiImpliesSiDisjunction(in.premise, in.atoms);
  EngineContext check;
  auto general = ImpliesDisjunction(check, in.premise, disjuncts);
  if (si.ok() && general.ok() && si.value() != general.value())
    state.SkipWithError("Lemma 5.1 procedure disagrees with DPLL");
}
BENCHMARK(BM_DpllRefutation)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_PreorderEnumeration(benchmark::State& state) {
  Instance in = Draw(static_cast<int>(state.range(0)), 17);
  std::vector<std::vector<Comparison>> disjuncts;
  for (const Comparison& a : in.atoms) disjuncts.push_back({a});
  for (auto _ : state) {
    auto r = ImpliesDisjunctionByPreorders(in.premise, disjuncts);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PreorderEnumeration)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
