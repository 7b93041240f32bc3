// Implication tests between sets of arithmetic comparisons over dense orders.
//
// Three engines, in increasing generality:
//  * ImpliesConjunction  — graph closure; sound & complete for a conjunction
//    conclusion over a dense total order;
//  * SiImpliesSiDisjunction — Lemma 5.1's direct/coupling characterization;
//    only valid when every comparison is semi-interval;
//  * ImpliesDisjunction  — the general test behind Theorem 2.1
//    (`beta2 => mu1(beta1) v ... v mus(beta1)`), via enumeration of all total
//    preorders of the variables consistent with the premise. Worst-case
//    exponential — this is the Pi-2-p step the paper's NP fragments avoid.
//
// All comparisons passed to one call must refer to a single common variable
// space (the same query's variable ids).
#ifndef CQAC_CONSTRAINTS_IMPLICATION_H_
#define CQAC_CONSTRAINTS_IMPLICATION_H_

#include <set>
#include <vector>

#include "src/base/function_ref.h"
#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/atom.h"

namespace cqac {

/// True iff the conjunction `cs` is satisfiable over a dense order.
bool AcsConsistent(const std::vector<Comparison>& cs);

/// True iff `premise => c1 ^ ... ^ cn` for the conjunction `conclusion`.
/// An inconsistent premise implies everything. Complete for dense orders.
///
/// The one operation with a context-free entry point: this is the
/// polynomial graph-closure algorithm itself, and the context form below is
/// only its memo. Callers that hold no context (Preprocess, lint, fix,
/// explain's evidence rendering, SiImpliesSiDisjunction) call it directly,
/// so they add no cache traffic and leave the implication_* counters alone.
Result<bool> ImpliesConjunction(const std::vector<Comparison>& premise,
                                const std::vector<Comparison>& conclusion);

/// Memoizing form: the decision is cached in `ctx` keyed on the exact
/// serialized comparisons (order-insensitive within each conjunction).
Result<bool> ImpliesConjunction(EngineContext& ctx,
                                const std::vector<Comparison>& premise,
                                const std::vector<Comparison>& conclusion);

/// A total preorder ("ranking") over variables and numeric constants:
/// terms with the same rank are equal, lower rank means strictly smaller.
class PreorderView {
 public:
  PreorderView(const std::vector<std::vector<Term>>* groups) : groups_(groups) {}

  /// Rank of a term; -1 if the term is not part of the preorder.
  int RankOf(const Term& t) const;

  int num_ranks() const { return static_cast<int>(groups_->size()); }

  /// Terms at rank `r` (at least one).
  const std::vector<Term>& GroupAt(int r) const { return (*groups_)[r]; }

  /// Evaluates one comparison under this preorder. Every term of `c` must
  /// have a rank.
  bool Satisfies(const Comparison& c) const;

  /// Evaluates a conjunction.
  bool SatisfiesAll(const std::vector<Comparison>& cs) const;

 private:
  const std::vector<std::vector<Term>>* groups_;
};

/// Callback: return true to continue enumeration, false to abort.
/// Non-owning — the callable must outlive the enumeration call.
using PreorderCallback = FunctionRef<bool(const PreorderView&)>;

/// Enumerates every total preorder of `vars` and `constants` that satisfies
/// `premise`, in a deterministic order. Returns true iff the enumeration ran
/// to completion (the callback never aborted).
bool ForEachConsistentPreorder(const std::set<int>& vars,
                               const std::vector<Rational>& constants,
                               const std::vector<Comparison>& premise,
                               PreorderCallback callback);

/// General disjunction implication (the right-hand side of Theorem 2.1):
/// `premise => D1 v ... v Dn` where each Di is a conjunction. Decided by
/// refutation — `premise ^ not(D1) ^ ... ^ not(Dn)` unsatisfiable — with
/// DPLL-style branching over one negated literal per disjunct and
/// inequality-graph consistency pruning. Worst case exponential in the
/// number of disjuncts (this is the Pi-2-p step), independent of the number
/// of variables. Returns Unsupported if symbolic constants occur. Checks
/// the context's wall-clock deadline inside the DPLL search and returns
/// ResourceExhausted when it fires.
Result<bool> ImpliesDisjunction(
    EngineContext& ctx, const std::vector<Comparison>& premise,
    const std::vector<std::vector<Comparison>>& disjuncts);

/// Reference implementation of ImpliesDisjunction by enumeration of all
/// premise-consistent total preorders (exponential in the number of
/// variables). Used to cross-validate the production procedure in tests.
Result<bool> ImpliesDisjunctionByPreorders(
    const std::vector<Comparison>& premise,
    const std::vector<std::vector<Comparison>>& disjuncts);

/// Lemma 5.1: for semi-interval comparisons only,
/// `b1 ^ ... ^ bk => e1 v ... v en` holds iff some bi directly implies some
/// ej, or some pair (ei, ej) is a tautology ("coupling"), or the premise is
/// inconsistent. Returns InvalidArgument when inputs are not all SI.
Result<bool> SiImpliesSiDisjunction(const std::vector<Comparison>& premise,
                                    const std::vector<Comparison>& atoms);

}  // namespace cqac

#endif  // CQAC_CONSTRAINTS_IMPLICATION_H_
