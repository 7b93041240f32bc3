// The session command core: one session's state and the only two
// operations that change it. The shell (tools/cqac_shell.cc), the server
// (src/serve/service.cc) and WAL replay (src/store/store.cc) all apply
// `view`, `fact` and `retract` through SessionState::AddView and
// SessionState::ApplyFacts, so a live request and its replay after a crash
// run the same code and cannot drift apart.
//
// Both operations either commit fully or leave the state untouched. A view
// is parsed, checked for a duplicate name and materialized before it is
// registered, so one that fails (for instance on its request deadline)
// leaves no trace for a later rewriting to name.
#ifndef CQAC_STORE_SESSION_H_
#define CQAC_STORE_SESSION_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/parser.h"
#include "src/ir/view.h"
#include "src/ivm/maintain.h"
#include "src/store/record.h"

namespace cqac {
namespace store {

/// Borrowed references to one live session's snapshot-relevant state (so
/// writing a snapshot never copies a session).
struct SessionSnapshotRef {
  const std::string* name = nullptr;
  const std::vector<std::string>* view_texts = nullptr;
  const ivm::MaterializedViewSet* store = nullptr;
};

/// One session's state. Read the members freely; change them only through
/// AddView and ApplyFacts.
struct SessionState {
  std::string name;
  ViewSet views;
  std::vector<ParsedQuery> view_sources;  // parallel to views, with spans
  std::vector<std::string> view_texts;    // original rule texts, for the
                                          // durability snapshots
  /// Base facts plus incrementally maintained materializations of `views`
  /// (src/ivm): fact and retract batches pay O(delta), and certain answers
  /// read the warm view instance.
  ivm::MaterializedViewSet store;

  /// Operation 1: parses `rule`, rejects a duplicate view name, materializes
  /// the view over the current base and only then registers it.
  Status AddView(EngineContext& ctx, const std::string& rule);

  /// Operation 2: parses `facts` and inserts (type kFact) or retracts (type
  /// kRetract) the batch, maintaining every view. When `cert` is non-null a
  /// successful apply fills it (ivm::MaintenanceCertificate).
  Result<ivm::ApplySummary> ApplyFacts(
      EngineContext& ctx, RecordType type, const std::string& facts,
      ivm::MaintenanceCertificate* cert = nullptr);

  SessionSnapshotRef SnapshotRef() const {
    return {&name, &view_texts, &store};
  }
};

}  // namespace store
}  // namespace cqac

#endif  // CQAC_STORE_SESSION_H_
