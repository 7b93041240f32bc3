#include "src/store/session.h"

#include <utility>

#include "src/base/strings.h"

namespace cqac {
namespace store {

Status SessionState::AddView(EngineContext& ctx, const std::string& rule) {
  CQAC_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQueryWithInfo(rule));
  // ViewSet::Add checks the name and validates the rule; doing it on a copy
  // keeps the registry untouched until the materialization succeeded.
  ViewSet next = views;
  CQAC_RETURN_IF_ERROR(next.Add(parsed.query));
  CQAC_RETURN_IF_ERROR(store.AddView(ctx, parsed.query));
  views = std::move(next);
  view_sources.push_back(std::move(parsed));
  view_texts.push_back(rule);
  return Status::OK();
}

Result<ivm::ApplySummary> SessionState::ApplyFacts(
    EngineContext& ctx, RecordType type, const std::string& facts,
    ivm::MaintenanceCertificate* cert) {
  CQAC_ASSIGN_OR_RETURN(Database batch, Database::FromFacts(facts));
  switch (type) {
    case RecordType::kFact:
      return store.ApplyInsert(ctx, batch, {}, cert);
    case RecordType::kRetract:
      return store.ApplyRetract(ctx, batch, {}, cert);
    default:
      return Status::Internal(StrCat("record type ", static_cast<int>(type),
                                     " does not carry facts"));
  }
}

}  // namespace store
}  // namespace cqac
