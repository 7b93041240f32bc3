#include "src/constraints/implication.h"

#include <algorithm>
#include <cassert>

#include "src/base/strings.h"
#include "src/constraints/inequality_graph.h"

namespace cqac {
namespace {

/// Exact serialization of a conjunction for the decision cache. Sorting the
/// rendered comparisons makes the key insensitive to conjunct order (a
/// conjunction is a set) while staying exact: two conjunctions share a key
/// only when they contain identical comparisons.
std::string ConjunctionKey(const std::vector<Comparison>& cs) {
  std::vector<std::string> parts;
  parts.reserve(cs.size());
  for (const Comparison& c : cs) {
    auto term = [](const Term& t) {
      return t.is_var() ? StrCat("?", t.var()) : t.value().ToString();
    };
    parts.push_back(StrCat(term(c.lhs), CompOpName(c.op), term(c.rhs)));
  }
  std::sort(parts.begin(), parts.end());
  return Join(parts, ",");
}

}  // namespace

bool AcsConsistent(const std::vector<Comparison>& cs) {
  InequalityGraph g;
  for (const Comparison& c : cs) {
    Status st = g.AddComparison(c);
    if (!st.ok()) return false;  // malformed counts as unsatisfiable
  }
  g.Close();
  return g.IsConsistent();
}

Result<bool> ImpliesConjunction(const std::vector<Comparison>& premise,
                                const std::vector<Comparison>& conclusion) {
  InequalityGraph g;
  for (const Comparison& c : premise) CQAC_RETURN_IF_ERROR(g.AddComparison(c));
  // Intern the conclusion's terms so constant-order edges involving them are
  // present in the closure.
  for (const Comparison& c : conclusion) {
    g.NodeFor(c.lhs);
    g.NodeFor(c.rhs);
  }
  g.Close();
  for (const Comparison& c : conclusion)
    if (!g.Implies(c)) return false;
  return true;
}

Result<bool> ImpliesConjunction(EngineContext& ctx,
                                const std::vector<Comparison>& premise,
                                const std::vector<Comparison>& conclusion) {
  ++ctx.stats().implication_calls;
  std::string key;
  if (ctx.caching_enabled()) {
    key = StrCat("I|", ConjunctionKey(premise), "=>",
                 ConjunctionKey(conclusion));
    if (std::optional<bool> hit = ctx.CacheLookup(key)) {
      ++ctx.stats().implication_cache_hits;
      return *hit;
    }
    ++ctx.stats().implication_cache_misses;
  }
  Result<bool> r = ImpliesConjunction(premise, conclusion);
  if (r.ok() && ctx.caching_enabled()) ctx.CacheStore(key, r.value());
  return r;
}

// ---------------------------------------------------------------------------
// Total preorder enumeration
// ---------------------------------------------------------------------------

int PreorderView::RankOf(const Term& t) const {
  for (size_t r = 0; r < groups_->size(); ++r)
    for (const Term& u : (*groups_)[r])
      if (u == t) return static_cast<int>(r);
  return -1;
}

bool PreorderView::Satisfies(const Comparison& c) const {
  int a = RankOf(c.lhs);
  int b = RankOf(c.rhs);
  assert(a >= 0 && b >= 0 && "comparison term missing from preorder");
  switch (c.op) {
    case CompOp::kLt:
      return a < b;
    case CompOp::kLe:
      return a <= b;
    case CompOp::kEq:
      return a == b;
  }
  return false;
}

bool PreorderView::SatisfiesAll(const std::vector<Comparison>& cs) const {
  for (const Comparison& c : cs)
    if (!Satisfies(c)) return false;
  return true;
}

namespace {

// Recursive enumerator: `groups` is the current ordered partition (constants
// pre-seeded in ascending order); variables in `vars[next..]` remain to be
// placed. A variable may join any existing group or open a new group in any
// gap. After each placement we check the premise comparisons whose terms are
// all placed; violated branches are pruned.
class Enumerator {
 public:
  Enumerator(std::vector<int> vars, const std::vector<Comparison>& premise,
             PreorderCallback callback)
      : vars_(std::move(vars)), premise_(premise), callback_(callback) {}

  // Seeds constants; returns the completed/aborted flag of the walk.
  bool Run(const std::vector<Rational>& constants) {
    groups_.clear();
    for (const Rational& c : constants)
      groups_.push_back({Term::Const(Value(c))});
    placed_.assign(vars_.empty() ? 0 : *std::max_element(vars_.begin(),
                                                         vars_.end()) + 1,
                   false);
    return Place(0);
  }

 private:
  bool TermPlaced(const Term& t) const {
    if (t.is_const()) return t.value().is_number();
    return t.var() < static_cast<int>(placed_.size()) && placed_[t.var()];
  }

  // Checks only the premise comparisons that involve the just-placed
  // variable `v` and whose other term is already placed.
  bool PremiseHoldsSoFar(int v) const {
    PreorderView view(&groups_);
    for (const Comparison& c : premise_) {
      bool involves_v = (c.lhs.is_var() && c.lhs.var() == v) ||
                        (c.rhs.is_var() && c.rhs.var() == v);
      if (!involves_v) continue;
      if (!TermPlaced(c.lhs) || !TermPlaced(c.rhs)) continue;
      if (!view.Satisfies(c)) return false;
    }
    return true;
  }

  bool Place(size_t next) {
    if (next == vars_.size()) {
      PreorderView view(&groups_);
      return callback_(view);
    }
    int v = vars_[next];
    Term vt = Term::Var(v);
    placed_[v] = true;
    const size_t n = groups_.size();
    // Option 1: join an existing group.
    for (size_t g = 0; g < n; ++g) {
      groups_[g].push_back(vt);
      if (PremiseHoldsSoFar(v)) {
        if (!Place(next + 1)) {
          groups_[g].pop_back();
          placed_[v] = false;
          return false;
        }
      }
      groups_[g].pop_back();
    }
    // Option 2: open a new group in gap position g (before groups_[g]).
    for (size_t g = 0; g <= n; ++g) {
      groups_.insert(groups_.begin() + g, {vt});
      if (PremiseHoldsSoFar(v)) {
        if (!Place(next + 1)) {
          groups_.erase(groups_.begin() + g);
          placed_[v] = false;
          return false;
        }
      }
      groups_.erase(groups_.begin() + g);
    }
    placed_[v] = false;
    return true;
  }

  std::vector<int> vars_;
  const std::vector<Comparison>& premise_;
  PreorderCallback callback_;
  std::vector<std::vector<Term>> groups_;
  std::vector<bool> placed_;
};

// Collects variables and numeric constants from comparisons into the output
// sets; rejects symbolic constants in ordered comparisons.
Status Collect(const std::vector<Comparison>& cs, std::set<int>* vars,
               std::set<Rational>* constants) {
  for (const Comparison& c : cs) {
    for (const Term* t : {&c.lhs, &c.rhs}) {
      if (t->is_var()) {
        vars->insert(t->var());
      } else if (t->value().is_number()) {
        constants->insert(t->value().number());
      } else {
        return Status::Unsupported(
            "symbolic constants are not supported in implication tests; "
            "preprocess (collapse equalities) first");
      }
    }
  }
  return Status::OK();
}

}  // namespace

bool ForEachConsistentPreorder(const std::set<int>& vars,
                               const std::vector<Rational>& constants,
                               const std::vector<Comparison>& premise,
                               PreorderCallback callback) {
  std::vector<Rational> sorted = constants;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<int> var_list(vars.begin(), vars.end());
  Enumerator e(std::move(var_list), premise, callback);
  return e.Run(sorted);
}

namespace {

/// Negates one order atom. `=` negates into two strict literals, so the
/// caller receives a list (a disjunction) of literals.
std::vector<Comparison> NegateAtom(const Comparison& c) {
  switch (c.op) {
    case CompOp::kLt:  // not(a < b) == b <= a
      return {Comparison(c.rhs, CompOp::kLe, c.lhs)};
    case CompOp::kLe:  // not(a <= b) == b < a
      return {Comparison(c.rhs, CompOp::kLt, c.lhs)};
    case CompOp::kEq:  // not(a = b) == a < b or b < a
      return {Comparison(c.lhs, CompOp::kLt, c.rhs),
              Comparison(c.rhs, CompOp::kLt, c.lhs)};
  }
  return {};
}

/// DPLL-style refutation: is `base ^ clause1 ^ ... ^ clausek` satisfiable,
/// where each clause is a disjunction of order literals? Branches on the
/// first clause, pruning branches whose conjunction is already inconsistent.
/// The budget's deadline is checked periodically; on expiry *status is set
/// and the (meaningless) return value must be ignored.
bool OrderCnfSatisfiable(std::vector<Comparison>* base,
                         const std::vector<std::vector<Comparison>>& clauses,
                         size_t next_clause, const Budget& budget,
                         uint64_t* steps, Status* status) {
  if ((++*steps & 0xFF) == 0) {
    *status = budget.CheckDeadline("disjunction implication");
    if (!status->ok()) return false;
  }
  if (!AcsConsistent(*base)) return false;
  if (next_clause == clauses.size()) return true;
  for (const Comparison& literal : clauses[next_clause]) {
    base->push_back(literal);
    bool sat = OrderCnfSatisfiable(base, clauses, next_clause + 1, budget,
                                   steps, status);
    base->pop_back();
    if (!status->ok()) return false;
    if (sat) return true;
  }
  return false;
}

Result<bool> ImpliesDisjunctionImpl(
    const std::vector<Comparison>& premise,
    const std::vector<std::vector<Comparison>>& disjuncts,
    const Budget& budget) {
  // Validate inputs (no symbolic constants in ordered comparisons) using the
  // same collector the preorder enumerator relies on.
  std::set<int> vars;
  std::set<Rational> const_set;
  CQAC_RETURN_IF_ERROR(Collect(premise, &vars, &const_set));
  for (const auto& d : disjuncts)
    CQAC_RETURN_IF_ERROR(Collect(d, &vars, &const_set));

  // E => D1 v ... v Dn  iff  E ^ not(D1) ^ ... ^ not(Dn) is unsatisfiable.
  // not(Di) is a clause (disjunction) of negated literals; satisfiability of
  // the premise plus one literal per clause is decided by graph consistency.
  std::vector<std::vector<Comparison>> clauses;
  for (const auto& d : disjuncts) {
    std::vector<Comparison> clause;
    for (const Comparison& atom : d)
      for (const Comparison& lit : NegateAtom(atom)) clause.push_back(lit);
    if (clause.empty()) return true;  // an empty conjunction is always true
    clauses.push_back(std::move(clause));
  }
  std::vector<Comparison> base = premise;
  uint64_t steps = 0;
  Status status = Status::OK();
  bool sat = OrderCnfSatisfiable(&base, clauses, 0, budget, &steps, &status);
  CQAC_RETURN_IF_ERROR(status);
  return !sat;
}

}  // namespace

Result<bool> ImpliesDisjunction(
    EngineContext& ctx, const std::vector<Comparison>& premise,
    const std::vector<std::vector<Comparison>>& disjuncts) {
  ++ctx.stats().disjunction_implications;
  Result<bool> r = ImpliesDisjunctionImpl(premise, disjuncts, ctx.budget());
  if (!r.ok() && r.status().code() == StatusCode::kResourceExhausted)
    ++ctx.stats().budget_exhaustions;
  return r;
}

Result<bool> ImpliesDisjunctionByPreorders(
    const std::vector<Comparison>& premise,
    const std::vector<std::vector<Comparison>>& disjuncts) {
  std::set<int> vars;
  std::set<Rational> const_set;
  CQAC_RETURN_IF_ERROR(Collect(premise, &vars, &const_set));
  for (const auto& d : disjuncts)
    CQAC_RETURN_IF_ERROR(Collect(d, &vars, &const_set));
  std::vector<Rational> constants(const_set.begin(), const_set.end());

  // The implication holds iff no premise-consistent preorder falsifies every
  // disjunct.
  bool completed = ForEachConsistentPreorder(
      vars, constants, premise, [&disjuncts](const PreorderView& view) {
        for (const auto& d : disjuncts)
          if (view.SatisfiesAll(d)) return true;  // this preorder is covered
        return false;                             // counterexample: abort
      });
  return completed;
}

Result<bool> SiImpliesSiDisjunction(const std::vector<Comparison>& premise,
                                    const std::vector<Comparison>& atoms) {
  for (const Comparison& c : premise)
    if (!c.IsSemiInterval())
      return Status::InvalidArgument(
          "SiImpliesSiDisjunction premise must be semi-interval");
  for (const Comparison& c : atoms)
    if (!c.IsSemiInterval())
      return Status::InvalidArgument(
          "SiImpliesSiDisjunction atoms must be semi-interval");

  // An inconsistent premise implies everything.
  if (!AcsConsistent(premise)) return true;

  // (a) Direct implication: some premise atom alone implies some RHS atom.
  for (const Comparison& b : premise) {
    for (const Comparison& e : atoms) {
      Result<bool> direct = ImpliesConjunction({b}, {e});
      if (!direct.ok()) return direct.status();
      if (direct.value()) return true;
    }
  }
  // (b) Coupling: some pair of RHS atoms is a tautology, i.e. the
  // conjunction of their negations is inconsistent. not(a < b) == b <= a;
  // not(a <= b) == b < a.
  auto negate = [](const Comparison& c) {
    return Comparison(c.rhs, c.op == CompOp::kLt ? CompOp::kLe : CompOp::kLt,
                      c.lhs);
  };
  for (size_t i = 0; i < atoms.size(); ++i)
    for (size_t j = i + 1; j < atoms.size(); ++j)
      if (!AcsConsistent({negate(atoms[i]), negate(atoms[j])})) return true;
  return false;
}

}  // namespace cqac
