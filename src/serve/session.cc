#include "src/serve/session.h"

#include "src/base/strings.h"

namespace cqac {
namespace serve {

Result<Session*> SessionManager::GetOrCreate(const std::string& name,
                                             bool* created) {
  if (created != nullptr) *created = false;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(name);
  if (it != sessions_.end()) return it->second.get();
  if (sessions_.size() >= max_sessions_)
    return Status::ResourceExhausted(
        StrCat("session limit reached (", max_sessions_,
               "); reset unused sessions"));
  auto session = std::make_unique<Session>(name);
  Session* raw = session.get();
  sessions_.emplace(name, std::move(session));
  if (created != nullptr) *created = true;
  return raw;
}

Status SessionManager::Adopt(std::unique_ptr<Session> session) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string& name = session->state.name;
  if (sessions_.count(name) > 0)
    return Status::Internal(
        StrCat("recovered session '", name, "' already exists"));
  if (sessions_.size() >= max_sessions_)
    return Status::ResourceExhausted(
        StrCat("session limit reached (", max_sessions_,
               ") while adopting recovered sessions"));
  sessions_.emplace(name, std::move(session));
  return Status::OK();
}

std::vector<Session*> SessionManager::Sessions() const {
  std::vector<Session*> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) out.push_back(session.get());
  return out;
}

Session* SessionManager::Find(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second.get();
}

bool SessionManager::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return sessions_.erase(name) > 0;
}

std::vector<SessionIndexEntry> SessionManager::Index() const {
  std::vector<SessionIndexEntry> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) {
    SessionIndexEntry e;
    e.name = name;
    e.requests = session->stats.requests.load(std::memory_order_relaxed);
    e.errors = session->stats.errors.load(std::memory_order_relaxed);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace serve
}  // namespace cqac
