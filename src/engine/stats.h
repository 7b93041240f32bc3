// EngineStats: the single counter block for every expensive decision the
// engine makes. One instance lives in each EngineContext; all layers
// (homomorphism search, containment, implication, rewriting) increment it,
// so one object answers "what did this workload cost and what did the cache
// save" — surfaced by the shell's `stats` command and the benches.
//
// Every counter is a relaxed atomic so a context shared across TaskPool
// workers never loses an update. Counts are exact; only the *interleaving*
// of increments differs between thread counts (the totals of a fixed
// workload do not, except that cancelled-and-repaired parallel items may
// charge their probe work twice — see docs/engine.md).
#ifndef CQAC_ENGINE_STATS_H_
#define CQAC_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace cqac {

/// A relaxed atomic counter with plain-uint64_t ergonomics (`++`, `+=`,
/// implicit read). Relaxed is enough: counters never order other memory.
class StatCounter {
 public:
  StatCounter() = default;
  StatCounter(const StatCounter&) = delete;
  StatCounter& operator=(const StatCounter&) = delete;

  uint64_t operator++() { return Add(1) + 1; }    // pre-increment
  uint64_t operator++(int) { return Add(1); }     // post-increment
  StatCounter& operator+=(uint64_t d) {
    Add(d);
    return *this;
  }
  operator uint64_t() const { return value_.load(std::memory_order_relaxed); }

  /// Raises the counter to `v` if it is currently lower (high-water marks,
  /// e.g. the serve queue-depth peak). Relaxed CAS loop; monotone like
  /// every other counter, so snapshot deltas never underflow.
  void MaxWith(uint64_t v) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  uint64_t Add(uint64_t d) {
    return value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::atomic<uint64_t> value_{0};
};

// The one list of counters. It generates the members of StatsSnapshot and
// EngineStats and drives Reset, Snapshot, the snapshot arithmetic and the
// JSON rendering (src/engine/stats.cc): a new counter is added here once
// and every accessor picks it up. EngineStats::ToString is hand-written,
// so a new counter also needs a place there. The ToJson key order is the
// order of this list.
#define CQAC_ENGINE_STATS_FIELDS(X)                                         \
  /* Containment layer. */                                                  \
  X(containment_calls)                                                      \
  X(containment_cache_hits)                                                 \
  X(containment_cache_misses)                                               \
  /* Constraint-implication layer. */                                       \
  X(implication_calls)                                                      \
  X(implication_cache_hits)                                                 \
  X(implication_cache_misses)                                               \
  X(disjunction_implications)                                               \
  /* Homomorphism enumeration. */                                           \
  X(hom_enumerations)                                                       \
  X(homomorphisms_found)                                                    \
  /* Canonicalization / interning. */                                       \
  X(intern_requests)                                                        \
  X(queries_interned)       /* distinct canonical forms seen */             \
  X(fingerprint_collisions)                                                 \
  /* Cache maintenance. */                                                  \
  X(cache_evictions)                                                        \
  X(cache_flushes)                                                          \
  /* Budget enforcement. */                                                 \
  X(budget_exhaustions)                                                     \
  /* Columnar join evaluation (src/eval/batch.h). */                        \
  X(eval_batches)             /* non-empty batches emitted */               \
  X(eval_smallint_fallbacks)  /* column promotions off the i64 path */      \
  /* Cost-based planner (src/plan). */                                      \
  X(plan_decisions)      /* cost comparisons made */                        \
  X(plan_join_reorders)  /* evaluations that left syntactic order */        \
  X(plan_unions_pruned)  /* union disjuncts pruned before eval */           \
  X(plan_retunes)        /* adaptive-threshold re-estimations */            \
  /* Rewriting layer. */                                                    \
  X(rewrite_candidates)                                                     \
  X(rewrite_verified_rejects)                                               \
  /* Parallel sections (TaskPool fan-outs that actually ran                 \
     concurrently). */                                                      \
  X(parallel_sections)                                                      \
  X(parallel_tasks)                                                         \
  X(parallel_wall_ns)  /* wall-clock summed over sections */                \
  /* Incremental view maintenance (src/ivm). */                             \
  X(ivm_applies)              /* delta batches applied */                   \
  X(ivm_incremental_applies)  /* ... maintained incrementally */            \
  X(ivm_rebuild_fallbacks)    /* ... that fell back to rebuild */           \
  X(ivm_base_delta_tuples)    /* base tuples inserted + retracted */        \
  X(ivm_view_delta_tuples)    /* view tuples added + removed */             \
  X(ivm_overdeletions)        /* DRed tuples speculatively deleted */       \
  X(ivm_rederivations)        /* DRed tuples rescued by re-derive */        \
  /* Independent audit pass (src/analysis/audit). */                        \
  X(audit_obligations)       /* proof obligations checked */                \
  X(audit_failures)          /* ... that were rejected */                   \
  X(audit_unfold_disjuncts)  /* MCR unfolding disjuncts certified */        \
  X(audit_replayed_tuples)   /* IVM tuples replayed vs the oracle */        \
  X(audit_wall_ns)           /* wall-clock spent auditing */                \
  /* Serve transport (src/serve/server.cc; always zero outside a server;    \
     the shell's `stats` prints them so serve and shell read                \
     identically). */                                                       \
  X(serve_requests)             /* requests this shard executed */          \
  X(serve_overload_rejections)  /* lines bounced off a full queue */        \
  X(serve_queue_peak)           /* request-queue high-water mark */         \
  /* Durable store (src/store; zero without --data-dir). */                 \
  X(store_records_appended)   /* commit records appended to the WAL */      \
  X(store_bytes_logged)       /* framed bytes written to the WAL */         \
  X(store_fsyncs)             /* fsyncs issued by the policy */             \
  X(store_snapshots_written)  /* compact snapshots written */               \
  X(store_recovery_replayed_records)  /* log-tail records replayed */       \
  X(store_recovery_sessions)          /* sessions recovered */

/// A plain, copyable point-in-time copy of every EngineStats counter.
/// Snapshots support subtraction, so a caller that brackets a unit of work
/// with two snapshots gets the exact counter deltas attributable to it —
/// the serve layer uses this to account per-session engine work against
/// the one shared context (src/serve/session.h).
struct StatsSnapshot {
#define CQAC_STATS_SNAPSHOT_FIELD(f) uint64_t f = 0;
  CQAC_ENGINE_STATS_FIELDS(CQAC_STATS_SNAPSHOT_FIELD)
#undef CQAC_STATS_SNAPSHOT_FIELD

  /// Counter-wise difference (`after - before`). Counters only grow, so a
  /// later-minus-earlier snapshot of the same stats block never underflows.
  StatsSnapshot operator-(const StatsSnapshot& o) const;

  /// Counter-wise accumulation (per-session running totals).
  StatsSnapshot& operator+=(const StatsSnapshot& o);

  /// Fraction of containment lookups answered from the cache (0 when none).
  double ContainmentHitRate() const;

  /// Renders the snapshot as one flat JSON object with snake_case keys
  /// matching the field names.
  std::string ToJson() const;
};

struct EngineStats {
#define CQAC_STATS_COUNTER_FIELD(f) StatCounter f;
  CQAC_ENGINE_STATS_FIELDS(CQAC_STATS_COUNTER_FIELD)
#undef CQAC_STATS_COUNTER_FIELD

  void Reset();

  /// Copies every counter into a plain snapshot. Individual loads are
  /// relaxed; under concurrent mutation the snapshot is per-counter exact
  /// but not a cross-counter atomic cut (fine for reporting).
  StatsSnapshot Snapshot() const;

  /// Fraction of containment calls answered from the cache (0 when none).
  double ContainmentHitRate() const;

  /// Multi-line human-readable rendering (the shell's `stats` output).
  std::string ToString() const;
};

}  // namespace cqac

#endif  // CQAC_ENGINE_STATS_H_
