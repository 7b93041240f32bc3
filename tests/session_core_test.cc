// The session command core (src/store/session.h): its two operations
// commit fully or not at all, and a live service and the service recovered
// from its data dir answer byte-identically even when the request stream
// holds requests that fail — unparseable rules, duplicate view names, views
// that run out of time, batches of the wrong arity.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/engine/context.h"
#include "src/ir/json.h"
#include "src/serve/service.h"
#include "src/store/session.h"
#include "src/store/store.h"

namespace cqac {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = (std::filesystem::temp_directory_path() /
             "cqac_session_core_XXXXXX")
                .string();
    EXPECT_NE(::mkdtemp(path_.data()), nullptr);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// A chain big(i, i+1) long enough that materializing a two-hop view over it
// polls the deadline, so an already expired deadline aborts it.
std::string BigChain() {
  std::string facts;
  for (int i = 0; i < 20000; ++i)
    facts += StrCat("big(", i, ", ", i + 1, "). ");
  return facts;
}

// ---- SessionState ----------------------------------------------------------

TEST(SessionStateTest, FailedAddViewLeavesTheStateUntouched) {
  EngineContext ctx;
  store::SessionState s;
  ASSERT_TRUE(s.ApplyFacts(ctx, store::RecordType::kFact, BigChain()).ok());
  ASSERT_TRUE(s.AddView(ctx, "v(X) :- big(X, Y), X < 3.").ok());

  EXPECT_FALSE(s.AddView(ctx, "w(X :- big(X, Y).").ok());
  Status duplicate = s.AddView(ctx, "v(X) :- big(Y, X).");
  EXPECT_EQ(duplicate.message(), "duplicate view name 'v'");
  ctx.RequestCancel();
  Status cancelled = s.AddView(ctx, "w(X, Z) :- big(X, Y), big(Y, Z).");
  EXPECT_EQ(cancelled.code(), StatusCode::kResourceExhausted) << cancelled;
  ctx.ClearCancel();

  EXPECT_EQ(s.views.size(), 1u);
  EXPECT_EQ(s.view_sources.size(), 1u);
  EXPECT_EQ(s.view_texts,
            std::vector<std::string>{"v(X) :- big(X, Y), X < 3."});
  EXPECT_EQ(s.store.view_queries().size(), 1u);
  EXPECT_EQ(s.store.views().relations().size(), 1u);

  // The failed name is free again.
  EXPECT_TRUE(s.AddView(ctx, "w(X, Z) :- big(X, Y), big(Y, Z).").ok());
  EXPECT_EQ(s.store.views().Get("w").size(), 19999u);
}

TEST(SessionStateTest, ApplyFactsInsertsAndRetracts) {
  EngineContext ctx;
  store::SessionState s;
  ASSERT_TRUE(s.AddView(ctx, "v(X) :- r(X, Y).").ok());
  auto added = s.ApplyFacts(ctx, store::RecordType::kFact, "r(1, 2). r(3, 4).");
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_EQ(added.value().inserted, 2u);
  auto removed = s.ApplyFacts(ctx, store::RecordType::kRetract, "r(1, 2).");
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(removed.value().retracted, 1u);
  EXPECT_EQ(s.store.views().Get("v").size(), 1u);

  EXPECT_FALSE(s.ApplyFacts(ctx, store::RecordType::kFact, "r(1, 2, 3).").ok());
  EXPECT_FALSE(s.ApplyFacts(ctx, store::RecordType::kFact, "r(1,").ok());
  EXPECT_FALSE(s.ApplyFacts(ctx, store::RecordType::kView, "r(1, 2).").ok());
  EXPECT_EQ(s.store.base().TotalTuples(), 1u);
}

// ---- Live vs recovered service ----------------------------------------------

const char* const kSessions[] = {"a", "b", "c"};

const char* const kViews[] = {
    "v1(X, Y) :- r(X, Y), X < 5.",
    "v2(X) :- r(X, Y), s(Y).",
    "v3(X, Z) :- r(X, Y), r(Y, Z).",
    "v4(X) :- s(X), X >= 3.",
};

const char* const kQueries[] = {
    "q(X, Y) :- r(X, Y), X < 4.",
    "q(X, Z) :- r(X, Y), r(Y, Z).",
    "q(X) :- s(X), X >= 4.",
    "q(X) :- r(X, Y), s(Y).",
};

std::string Request(const std::string& op, const std::string& session,
                    const std::string& field, const std::string& value,
                    const std::string& extra = "") {
  return StrCat("{\"op\":\"", op, "\",\"session\":\"", session, "\"", extra,
                ",\"", field, "\":", JsonQuote(value), "}");
}

std::string RandomFacts(Rng& rng) {
  std::string facts;
  for (int64_t n = rng.Uniform(1, 3); n > 0; --n) {
    if (rng.Uniform(0, 2) == 0)
      facts += StrCat("s(", rng.Uniform(0, 7), "). ");
    else
      facts += StrCat("r(", rng.Uniform(0, 7), ", ", rng.Uniform(0, 7), "). ");
  }
  return facts;
}

// A seeded stream of view / fact / retract / reset requests. Every fourth
// request is one of the kinds that must leave no trace: an unparseable
// rule, a duplicate view name, a view that runs out of time, and a batch of
// the wrong arity. A retract of an absent tuple rides along (it succeeds
// and removes nothing).
std::vector<std::string> MakeStream(uint64_t seed, size_t length) {
  Rng rng(seed);
  std::map<std::string, bool> has_chain;
  std::vector<std::string> out;
  for (size_t i = 0; i < length; ++i) {
    const std::string session = kSessions[rng.Uniform(0, 2)];
    if (i % 4 == 3) {
      switch ((i / 4) % 5) {
        case 0:
          out.push_back(Request("view", session, "rule", "bad(X :- r(X)."));
          break;
        case 1:
          out.push_back(Request("view", session, "rule", kViews[0]));
          out.push_back(Request("view", session, "rule", kViews[0]));
          break;
        case 2:
          if (!has_chain[session]) {
            out.push_back(Request("fact", session, "facts", BigChain()));
            has_chain[session] = true;
          }
          out.push_back(Request("view", session, "rule",
                                "vbig(X, Z) :- big(X, Y), big(Y, Z).",
                                ",\"timeout_ms\":0"));
          break;
        case 3:
          out.push_back(Request("fact", session, "facts", "r(1, 2). r(3, 4)."));
          out.push_back(Request("fact", session, "facts", "r(1, 2, 3)."));
          break;
        case 4:
          out.push_back(Request("retract", session, "facts", "r(99, 99)."));
          break;
      }
      continue;
    }
    switch (rng.Uniform(0, 9)) {
      case 0:
      case 1:
        out.push_back(Request("view", session, "rule",
                              kViews[rng.Uniform(0, 3)]));
        break;
      case 2:
      case 3:
      case 4:
      case 5:
        out.push_back(Request("fact", session, "facts", RandomFacts(rng)));
        break;
      case 6:
      case 7:
        out.push_back(Request("retract", session, "facts", RandomFacts(rng)));
        break;
      case 8:
        out.push_back(StrCat("{\"op\":\"reset\",\"session\":\"", session,
                             "\"}"));
        has_chain[session] = false;
        break;
      default:
        out.push_back(Request("fact", session, "facts", RandomFacts(rng),
                              ",\"certify\":true"));
        break;
    }
  }
  return out;
}

// The `"views":N,"facts":M` part of a session-scope stats response, or the
// whole response when it is an error.
std::string ViewsAndFacts(const std::string& stats) {
  size_t begin = stats.find("\"views\":");
  size_t end = stats.find(",\"requests\":", begin);
  if (begin == std::string::npos || end == std::string::npos) return stats;
  return stats.substr(begin, end - begin);
}

// Per session: its stats shape and every probe query's eval and answers
// responses.
std::map<std::string, std::string> Probe(serve::Service& service) {
  std::map<std::string, std::string> out;
  bool shutdown = false;
  for (const char* session : kSessions) {
    // The queries run first: they create a session a reset dropped, and
    // that creation is logged like any other.
    std::string& probe = out[session];
    for (const char* q : kQueries) {
      probe += service.Execute(Request("eval", session, "query", q), &shutdown);
      probe +=
          service.Execute(Request("answers", session, "query", q), &shutdown);
    }
    probe += ViewsAndFacts(service.Execute(
        StrCat("{\"op\":\"stats\",\"scope\":\"session\",\"session\":\"",
               session, "\"}"),
        &shutdown));
  }
  return out;
}

void CheckLiveMatchesRecovery(uint64_t seed, uint64_t snapshot_every) {
  SCOPED_TRACE(StrCat("seed ", seed, ", snapshot_every ", snapshot_every));
  TempDir dir;
  ASSERT_TRUE(store::InitDataDir(dir.path(), 1).ok());
  store::StoreOptions options;
  options.snapshot_every = snapshot_every;

  EngineContext live_ctx;
  serve::Service live(live_ctx, serve::ServiceOptions{});
  auto opened = store::ShardStore::Open(dir.path(), 0, 1, options, &live_ctx);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<store::ShardStore> shard_store = std::move(opened).value();
  live.set_store(shard_store.get());

  std::map<std::string, size_t> errors;
  bool shutdown = false;
  for (const std::string& line : MakeStream(seed, 120)) {
    std::string response = live.Execute(line, &shutdown);
    for (const char* code : {"invalid_argument", "resource_exhausted"})
      if (response.find(StrCat("\"code\":\"", code, "\"")) != std::string::npos)
        ++errors[code];
  }
  // The stream did exercise the failing kinds.
  EXPECT_GE(errors["invalid_argument"], 3u);
  EXPECT_GE(errors["resource_exhausted"], 1u);
  if (snapshot_every > 0) {
    EXPECT_GT(live_ctx.stats().store_snapshots_written, 0u);
  }

  std::map<std::string, std::string> live_probe = Probe(live);
  shard_store.reset();

  EngineContext recovered_ctx;
  auto recovered = store::RecoverShard(recovered_ctx,
                                       store::ShardDirPath(dir.path(), 0));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  serve::Service service(recovered_ctx, serve::ServiceOptions{});
  for (auto& s : recovered.value().sessions)
    ASSERT_TRUE(service.sessions()
                    .Adopt(std::make_unique<serve::Session>(std::move(*s)))
                    .ok());
  std::map<std::string, std::string> recovered_probe = Probe(service);
  for (const char* session : kSessions)
    EXPECT_EQ(recovered_probe[session], live_probe[session])
        << "session " << session;
}

TEST(LiveRecoveryEquivalenceTest, FailingRequestsLeaveNoTraceWithoutSnapshots) {
  for (uint64_t seed : {1, 2, 3}) CheckLiveMatchesRecovery(seed, 0);
}

TEST(LiveRecoveryEquivalenceTest, FailingRequestsLeaveNoTraceWithSnapshots) {
  for (uint64_t seed : {1, 2, 3}) CheckLiveMatchesRecovery(seed, 7);
}

}  // namespace
}  // namespace cqac
