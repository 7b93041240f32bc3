// Compact snapshots: one file serializing a shard's full semantic state —
// every session's view registry (original rule texts), base database,
// materialized views WITH their IVM derivation counts and planner sketches,
// plus the shard context's adaptive calibration state.
//
// File layout (docs/durability.md):
//
//   [8B magic "CQACSNP1"][u32 version][u64 lsn]
//   frame*     each frame is [u32 len][u32 crc32c][payload] (record.h),
//              payload = u8 section kind + body:
//                kAdaptive (1): AdaptiveState blob (engine/adaptive.h)
//                kSession  (2): one session's state
//                kEnd      (3): empty — guards against silent truncation
//
// Why this exact state set: recovery must leave the process byte-equivalent
// to the one that crashed. Base + views + counts make retract semantics
// exact; the planner sketches are insert-monotone (they remember retracted
// tuples), so they are serialized rather than rebuilt from live tuples; the
// adaptive calibration state makes post-recovery plan choices — including
// each replayed apply's incremental-vs-rebuild decision — match the
// decisions the crashed process would have made. The interner and decision
// cache are deliberately NOT snapshotted: they are semantically transparent
// (cold caches re-warm; results are byte-identical either way).
//
// Crash safety: WriteSnapshotFile writes to `path + ".tmp"`, fsyncs, then
// renames — a crash mid-write leaves the previous snapshot untouched.
#ifndef CQAC_STORE_SNAPSHOT_H_
#define CQAC_STORE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/adaptive.h"
#include "src/store/session.h"

namespace cqac {
namespace store {

inline constexpr char kSnapshotMagic[9] = "CQACSNP1";  // 8 bytes on disk
inline constexpr uint32_t kSnapshotVersion = 1;

struct SnapshotData {
  uint64_t lsn = 0;
  bool has_adaptive = false;
  AdaptiveState adaptive;
  /// Name-ordered (snapshots are written from a name-ordered session map).
  std::vector<std::unique_ptr<SessionState>> sessions;
};

/// Writes the snapshot covering log position `lsn` atomically (tmp + fsync
/// + rename).
Status WriteSnapshotFile(const std::string& path, uint64_t lsn,
                         const AdaptiveState& adaptive,
                         const std::vector<SessionSnapshotRef>& sessions);

/// Loads and fully validates a snapshot file. Any framing, CRC, decode, or
/// cross-section consistency failure is an error — a snapshot referenced by
/// a WAL barrier must load or recovery is impossible.
Result<SnapshotData> ReadSnapshotFile(const std::string& path);

}  // namespace store
}  // namespace cqac

#endif  // CQAC_STORE_SNAPSHOT_H_
