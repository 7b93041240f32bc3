#include "servebench/workload.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/json.h"
#include "src/ir/parser.h"
#include "src/serve/server.h"
#include "src/serve/service.h"

namespace servebench {
namespace {

using cqac::JsonQuote;
using cqac::Rng;
using cqac::StrCat;

// ---- request lines -----------------------------------------------------------

std::string Line(const std::string& op, const std::string& session,
                 const std::string& id, const std::string& fields) {
  return StrCat("{\"op\":\"", op, "\",\"session\":", JsonQuote(session),
                ",\"id\":", id, fields, "}");
}

std::string Field(const char* key, const std::string& text) {
  return StrCat(",\"", key, "\":", JsonQuote(text));
}

/// A session name that ShardForSession places on `shard`, so every
/// workload spreads its sessions evenly over the server's shards.
std::string SessionName(const std::string& prefix, size_t index,
                        size_t shards) {
  for (size_t salt = 0;; ++salt) {
    std::string name = StrCat(prefix, index, "-", salt);
    if (cqac::serve::ShardForSession(name, shards) == index % shards)
      return name;
  }
}

double UnitDraw(Rng& rng) {
  return static_cast<double>(rng.Uniform(0, (1 << 30) - 1)) / (1 << 30);
}

/// Picks an index in [0, weights.size()) with probability proportional to
/// its weight.
size_t Weighted(Rng& rng, const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  double x = UnitDraw(rng) * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return weights.size() - 1;
}

/// Deals indexes in fixed proportions: each round holds index i
/// `counts[i]` times in a seeded shuffle. Every stream thus issues the same
/// mix, and only the order varies with the seed.
class Deck {
 public:
  explicit Deck(const std::vector<size_t>& counts) {
    for (size_t i = 0; i < counts.size(); ++i)
      cards_.insert(cards_.end(), counts[i], i);
    pos_ = cards_.size();
  }
  size_t Deal(Rng& rng) {
    if (pos_ == cards_.size()) {
      for (size_t i = cards_.size(); i > 1; --i)
        std::swap(cards_[i - 1], cards_[rng.Uniform(0, i - 1)]);
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  std::vector<size_t> cards_;
  size_t pos_ = 0;
};

std::vector<double> ZipfWeights(size_t n, double s) {
  std::vector<double> w;
  for (size_t k = 0; k < n; ++k) w.push_back(1.0 / std::pow(k + 1.0, s));
  return w;
}

// ---- the fact ledger -----------------------------------------------------------

/// The live tuples of one binary relation, with O(1) random pick: the
/// driver's own record of what every session's base holds.
class LiveSet {
 public:
  bool Contains(int64_t a, int64_t b) const { return index_.count(Key(a, b)); }
  void Add(int64_t a, int64_t b) {
    if (!index_.emplace(Key(a, b), list_.size()).second) return;
    list_.push_back({a, b});
  }
  void Remove(int64_t a, int64_t b) {
    auto it = index_.find(Key(a, b));
    if (it == index_.end()) return;
    size_t pos = it->second;
    index_.erase(it);
    if (pos + 1 != list_.size()) {
      list_[pos] = list_.back();
      index_[Key(list_[pos].first, list_[pos].second)] = pos;
    }
    list_.pop_back();
  }
  size_t size() const { return list_.size(); }
  const std::pair<int64_t, int64_t>& at(size_t i) const { return list_[i]; }
  const std::vector<std::pair<int64_t, int64_t>>& all() const { return list_; }

 private:
  static uint64_t Key(int64_t a, int64_t b) {
    return (static_cast<uint64_t>(a) << 32) ^ static_cast<uint64_t>(b);
  }
  std::vector<std::pair<int64_t, int64_t>> list_;
  std::unordered_map<uint64_t, size_t> index_;
};

std::string FactText(const std::vector<std::pair<std::string,
                                                 std::pair<int64_t, int64_t>>>&
                         facts) {
  std::string out;
  for (const auto& [pred, t] : facts)
    out += StrCat(out.empty() ? "" : " ", pred, "(", t.first, ",", t.second,
                  ").");
  return out;
}

std::string RelationJson(const cqac::Relation& r) {
  std::string out = "[";
  bool first_tuple = true;
  for (const cqac::Tuple& t : r) {
    out += first_tuple ? "[" : ",[";
    first_tuple = false;
    for (size_t i = 0; i < t.size(); ++i)
      out += StrCat(i ? "," : "", JsonQuote(t[i].ToString()));
    out += "]";
  }
  out += "]";
  return out;
}

/// A data session: a set of views over r(A,B) and s(B,C), the ledger of
/// its base, and the fixed read queries issued against it.
struct DataSession {
  std::string name;
  std::vector<std::string> views;
  LiveSet r, s;
  std::vector<std::string> answer_queries;
  std::vector<std::string> eval_queries;

  cqac::Database LedgerDatabase() const {
    std::string text;
    for (const auto& [a, b] : r.all()) text += StrCat("r(", a, ",", b, "). ");
    for (const auto& [a, b] : s.all()) text += StrCat("s(", a, ",", b, "). ");
    return cqac::Database::FromFacts(text).value();
  }

  /// `eval` of each query against the server, with the reference answer
  /// computed from the ledger.
  std::vector<Check> ChecksFor(const std::vector<std::string>& queries,
                               uint64_t* id) const {
    cqac::Database db = LedgerDatabase();
    std::vector<Check> out;
    for (const std::string& q : queries) {
      cqac::Query parsed = cqac::ParseQuery(q).value();
      Check c;
      c.line = Line("eval", name, StrCat("\"check-", (*id)++, "\""),
                    Field("query", q));
      c.expected_tuples =
          RelationJson(cqac::EvaluateQueryReference(parsed, db).value());
      out.push_back(std::move(c));
    }
    return out;
  }
};

/// Loads `rows` random tuples with columns in [0, a_max) x [0, b_max).
void FillRandom(Rng& rng, LiveSet* set, size_t rows, int64_t a_max,
                int64_t b_max) {
  while (set->size() < rows)
    set->Add(rng.Uniform(0, a_max - 1), rng.Uniform(0, b_max - 1));
}

/// Setup lines for a data session: the base in batches, then the views,
/// which materialize over the loaded base.
void AppendDataSetup(const DataSession& s, size_t batch,
                     const std::function<std::string()>& next_id,
                     std::vector<std::string>* out) {
  std::vector<std::pair<std::string, std::pair<int64_t, int64_t>>> facts;
  auto flush = [&] {
    if (facts.empty()) return;
    out->push_back(
        Line("fact", s.name, next_id(), Field("facts", FactText(facts))));
    facts.clear();
  };
  for (const auto& t : s.r.all()) {
    facts.push_back({"r", t});
    if (facts.size() == batch) flush();
  }
  for (const auto& t : s.s.all()) {
    facts.push_back({"s", t});
    if (facts.size() == batch) flush();
  }
  flush();
  for (const std::string& v : s.views)
    out->push_back(Line("view", s.name, next_id(), Field("rule", v)));
}

// ---- fact-stream -------------------------------------------------------------

// r(X, Y) and s(Y, Z) with X, Z in [0, 1000) and join keys Y in [0, 4000):
// about one join partner per tuple, so v1 is about as large as the base.
constexpr int64_t kFactDomain = 1000;
constexpr int64_t kFactJoinDomain = 4000;
constexpr size_t kFactRowsPerRelation = 4000;

class FactStream : public ConnectionStream {
 public:
  FactStream(uint64_t seed, size_t conn, size_t sessions_per_conn,
             size_t shards)
      : rng_(seed), shards_(shards) {
    for (size_t i = 0; i < sessions_per_conn; ++i) {
      DataSession s;
      s.name = SessionName("fs", conn * sessions_per_conn + i, shards);
      int64_t lo = rng_.Uniform(200, 300), hi = rng_.Uniform(700, 800);
      s.views = {
          "v1(X, Z) :- r(X, Y), s(Y, Z)",
          "v2(X, Y) :- r(X, Y), r(Y, X)",
          StrCat("v3(X, Y) :- r(X, Y), X < ", lo),
          StrCat("v4(Y, Z) :- s(Y, Z), Z > ", hi),
      };
      for (int k : {5, 10, 20})
        s.answer_queries.push_back(
            StrCat("q(X, Z) :- r(X, Y), s(Y, Z), X < ", k));
      s.eval_queries = {"q(X, Y) :- r(X, Y), X < 40",
                        "q(Y, Z) :- s(Y, Z), Y < 160",
                        "q(X, Z) :- r(X, Y), s(Y, Z), X < 40"};
      FillRandom(rng_, &s.r, kFactRowsPerRelation, kFactDomain,
                 kFactJoinDomain);
      FillRandom(rng_, &s.s, kFactRowsPerRelation, kFactJoinDomain,
                 kFactDomain);
      sessions_.push_back(std::move(s));
    }
    for (const DataSession& s : sessions_)
      AppendDataSetup(s, 500, [this] { return NextId(); }, &setup_);
  }

  Op Next() override {
    DataSession& s = sessions_[session_deck_.Deal(rng_)];
    const size_t kind = kind_deck_.Deal(rng_);
    Op op;
    if (kind == 0) {
      op.op = "answers";
      op.line = Line("answers", s.name, NextId(),
                     Field("query", s.answer_queries[query_deck_.Deal(rng_)]));
      return op;
    }
    return Write(s, kind == 1 || kind == 3,
                 kind <= 2 ? 1 : rng_.Uniform(2, 32));
  }

  std::optional<Op> NextWriteOnShard(size_t shard) override {
    for (DataSession& s : sessions_)
      if (cqac::serve::ShardForSession(s.name, shards_) == shard)
        return Write(s, (insert_next_ = !insert_next_), 1);
    return std::nullopt;
  }

  /// Inserts `n` fresh tuples or retracts `n` live ones, updating the
  /// ledger.
  Op Write(DataSession& s, bool insert, size_t n) {
    Op op;
    op.cls = OpClass::kWrite;
    std::vector<std::pair<std::string, std::pair<int64_t, int64_t>>> facts;
    for (size_t i = 0; i < n; ++i) {
      const bool on_r = rng_.Chance(0.5);
      LiveSet& set = on_r ? s.r : s.s;
      std::pair<int64_t, int64_t> t;
      if (insert) {
        do {
          t = on_r ? std::make_pair(rng_.Uniform(0, kFactDomain - 1),
                                    rng_.Uniform(0, kFactJoinDomain - 1))
                   : std::make_pair(rng_.Uniform(0, kFactJoinDomain - 1),
                                    rng_.Uniform(0, kFactDomain - 1));
        } while (set.Contains(t.first, t.second));
        set.Add(t.first, t.second);
      } else {
        t = set.at(rng_.Uniform(0, set.size() - 1));
        set.Remove(t.first, t.second);
      }
      facts.push_back({on_r ? "r" : "s", t});
    }
    op.op = insert ? "fact" : "retract";
    const std::string text = FactText(facts);
    op.payload_bytes = text.size();
    op.line = Line(op.op, s.name, NextId(), Field("facts", text));
    return op;
  }

  std::vector<Check> FinalChecks() override {
    std::vector<Check> out;
    for (const DataSession& s : sessions_) {
      std::vector<Check> c = s.ChecksFor(s.eval_queries, &check_id_);
      out.insert(out.end(), c.begin(), c.end());
    }
    return out;
  }

  std::vector<Check> DurabilityChecks() override {
    std::vector<Check> out;
    for (const DataSession& s : sessions_) {
      std::vector<Check> c =
          s.ChecksFor({"q(X, Y) :- r(X, Y)", "q(Y, Z) :- s(Y, Z)"},
                      &check_id_);
      out.insert(out.end(), c.begin(), c.end());
    }
    return out;
  }

 private:
  Rng rng_;
  size_t shards_;
  bool insert_next_ = false;
  std::vector<DataSession> sessions_;
  Deck session_deck_{{1, 1}};
  // answers 5%; single fact 38%, single retract 37%; batches of 2-32
  // tuples 10% each way. Inserts and retracts balance, so the base stays
  // near its loaded size however long the run.
  Deck kind_deck_{{5, 38, 37, 10, 10}};
  Deck query_deck_{{1, 1, 1}};
  uint64_t check_id_ = 0;
};

// ---- answer-scan -------------------------------------------------------------

// r(X, Y) and s(Y, Z) with X, Z in [0, 3000) and join keys Y in [0, 6000).
constexpr int64_t kScanX = 3000;
constexpr int64_t kScanY = 6000;
constexpr size_t kScanRowsPerRelation = 6000;

class AnswerScanStream : public ConnectionStream {
 public:
  AnswerScanStream(uint64_t seed, size_t conn) : rng_(seed) {
    DataSession s;
    s.name = SessionName("as", conn, 1);
    s.views = {"v1(X, Z) :- r(X, Y), s(Y, Z)",
               "v3(X, Y) :- r(X, Y), X < 900",
               "v4(Y, Z) :- s(Y, Z), Z > 2100"};
    FillRandom(rng_, &s.r, kScanRowsPerRelation, kScanX, kScanY);
    FillRandom(rng_, &s.s, kScanRowsPerRelation, kScanY, kScanX);
    // Fixed pools; output sizes run from tens to thousands of rows.
    for (int k : {10, 100, 600})
      s.answer_queries.push_back(
          StrCat("q(X, Z) :- r(X, Y), s(Y, Z), X < ", k));
    s.eval_queries = {"q(X, Z) :- r(X, Y), s(Y, Z), X < 15",
                      "q(X, Z) :- r(X, Y), s(Y, Z), X < 150",
                      "q(X, Y) :- r(X, Y), X > 2975",
                      "q(Y, Z) :- s(Y, Z), Z < 50"};
    session_ = std::move(s);
    AppendDataSetup(session_, 1000, [this] { return NextId(); }, &setup_);
  }

  Op Next() override {
    Op op;
    if (op_deck_.Deal(rng_) == 0) {
      op.op = "answers";
      const auto& pool = session_.answer_queries;
      op.line = Line("answers", session_.name, NextId(),
                     Field("query", pool[answer_deck_.Deal(rng_)]));
    } else {
      op.op = "eval";
      const auto& pool = session_.eval_queries;
      op.line = Line("eval", session_.name, NextId(),
                     Field("query", pool[eval_deck_.Deal(rng_)]));
    }
    return op;
  }

  std::vector<Check> FinalChecks() override {
    return session_.ChecksFor(session_.eval_queries, &check_id_);
  }

 private:
  Rng rng_;
  DataSession session_;
  Deck op_deck_{{1, 1}};           // answers, eval
  Deck answer_deck_{{4, 2, 1}};    // most to fewest output rows
  Deck eval_deck_{{4, 1, 3, 3}};
  uint64_t check_id_ = 0;
};

// ---- rewrite-mix -------------------------------------------------------------

/// A rewriting session: a view set and a pool of queries over it.
struct RewriteSession {
  std::string name;
  std::vector<std::string> views;
  // The vetted queries pool[0, queries), then either the paper's
  // rewritings (contain candidates only) or constant-shifted variants.
  std::vector<std::string> pool;
  size_t queries = 0;
  std::vector<size_t> certifiable;  // queries whose audit is affordable
  std::vector<size_t> popularity;   // rewrite/classify draws, Zipf order
  std::vector<std::pair<size_t, size_t>> contain_pairs;  // pool indexes
  std::string lint_program;
  std::vector<std::string> defects;  // found while vetting its corpus
};

/// What the vetter makes of one candidate request.
enum class Verdict {
  kKeep,
  // Too costly for the mix (an obligation skipped for budget, a request
  // over the work, eval-batch or response-size cap, resource_exhausted),
  // or an input the engine declares outside what it handles (unsupported,
  // inconsistent comparisons).
  kDrop,
  // An audit failure or any other error response: a defect, which the
  // vetter records and the run reports as a failure.
  kDefect,
};

/// Runs candidate requests through an in-process service to keep only
/// those that succeed within a fixed amount of engine work. The filter
/// reads only deterministic engine counters, never the clock, so the kept
/// pool is a pure function of the seed. Candidates are dropped only for
/// cost or a declared unsupported input; every other failure is recorded
/// in defects().
class Vetter {
 public:
  Vetter() : service_(ctx_, cqac::serve::ServiceOptions{}) {}

  bool LoadViews(const std::string& session,
                 const std::vector<std::string>& views) {
    for (const std::string& v : views)
      if (Judge(Line("view", session, "0", Field("rule", v))) != Verdict::kKeep)
        return false;
    return true;
  }

  bool Ok(const std::string& line, std::string* response = nullptr) {
    return Judge(line, response) == Verdict::kKeep;
  }

  Verdict Judge(const std::string& line, std::string* response = nullptr) {
    cqac::StatsSnapshot before = ctx_.stats().Snapshot();
    bool shutdown = false;
    std::string scratch;
    std::string& r = response != nullptr ? *response : scratch;
    r = service_.Execute(line, &shutdown);
    cqac::StatsSnapshot d = ctx_.stats().Snapshot() - before;
    const uint64_t work = d.hom_enumerations + d.implication_calls +
                          d.rewrite_candidates + d.containment_calls;
    if (r.rfind("{\"ok\":true", 0) != 0) {
      for (const char* code :
           {"unsupported", "inconsistent", "resource_exhausted"})
        if (r.find(StrCat("\"error\":{\"code\":\"", code, "\"")) !=
            std::string::npos)
          return Verdict::kDrop;
      return Defect(line, r);
    }
    const size_t audit = r.find("\"audit\":");
    if (audit != std::string::npos) {
      const size_t at = r.find("],\"failures\":", audit);
      if (at == std::string::npos) return Defect(line, r);
      char* rest = nullptr;
      const uint64_t failures = std::strtoull(r.c_str() + at + 13, &rest, 10);
      const uint64_t skipped =
          std::strncmp(rest, ",\"skipped\":", 11) == 0
              ? std::strtoull(rest + 11, nullptr, 10)
              : 1;
      if (failures > 0) return Defect(line, r);
      if (skipped > 0) return Verdict::kDrop;
    }
    // The audit's reference checks evaluate canonical databases; their
    // batch count tracks the audit's cost.
    return work <= kWorkCap && d.eval_batches <= kEvalBatchCap &&
                   r.size() <= kResponseCap
               ? Verdict::kKeep
               : Verdict::kDrop;
  }

  std::vector<std::string>& defects() { return defects_; }

 private:
  Verdict Defect(const std::string& line, const std::string& response) {
    defects_.push_back(StrCat("corpus vetting: ", line.substr(0, 300),
                              " -> ", response.substr(0, 300)));
    return Verdict::kDefect;
  }

  static constexpr uint64_t kWorkCap = 4000;
  static constexpr size_t kResponseCap = 4096;
  static constexpr uint64_t kEvalBatchCap = 400;
  cqac::EngineContext ctx_;
  cqac::serve::Service service_;
  std::vector<std::string> defects_;
};

cqac::gen::AcMode kModes[] = {
    cqac::gen::AcMode::kNone, cqac::gen::AcMode::kLsi,
    cqac::gen::AcMode::kRsi,  cqac::gen::AcMode::kSi,
    cqac::gen::AcMode::kCqacSi, cqac::gen::AcMode::kGeneral};

/// Variables plus distinct comparison constants of `text`: the audit's
/// reference containment check enumerates orderings of these, so its cost
/// grows with this count as a Fubini number.
size_t OrderedValues(const std::string& text) {
  cqac::Query q = cqac::ParseQuery(text).value();
  std::set<std::string> constants;
  for (const cqac::Comparison& c : q.comparisons())
    for (const cqac::Term* t : {&c.lhs, &c.rhs})
      if (t->is_const()) constants.insert(t->value().ToString());
  return static_cast<size_t>(q.num_vars()) + constants.size();
}

/// `text` with every integer constant raised by `k`. The comparisons among
/// the query's own constants keep their order, so the variant has the same
/// class; against the views' constants it may rewrite differently, and its
/// canonical form is new to the decision cache.
std::string ShiftConstants(const std::string& text, int64_t k) {
  std::string out;
  for (size_t i = 0; i < text.size();) {
    const bool starts_number =
        std::isdigit(static_cast<unsigned char>(text[i])) &&
        (i == 0 || !(std::isalnum(static_cast<unsigned char>(text[i - 1])) ||
                     text[i - 1] == '_'));
    if (!starts_number) {
      out += text[i++];
      continue;
    }
    size_t j = i;
    while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j])))
      ++j;
    out += std::to_string(std::stoll(text.substr(i, j - i)) + k);
    i = j;
  }
  return out;
}

std::vector<std::string> ViewTexts(const cqac::ViewSet& views) {
  std::vector<std::string> out;
  for (size_t i = 0; i < views.size(); ++i) out.push_back(views[i].ToString());
  return out;
}

constexpr size_t kRewriteSessions = 32;
constexpr uint64_t kRewriteCorpusSeed = 20020603;
constexpr size_t kPoolSize = 6;
constexpr size_t kCertifyOrderedValues = 4;
constexpr int64_t kShifts = 300;

/// The four paper sessions (Example 1.1, Example 1.2, Section 4.4's full
/// example, the car dealer), each with its rewriting as a contain
/// candidate where the paper gives one.
RewriteSession PaperSession(size_t which) {
  namespace w = cqac::workloads;
  RewriteSession s;
  cqac::ViewSet views;
  std::vector<std::string> extra;
  switch (which) {
    case 0:
      views = w::Example11Views();
      s.pool = {w::Example11Query().ToString()};
      extra = {w::Example11Rewriting().ToString()};
      break;
    case 1:
      views = w::Example12Views();
      s.pool = {w::Example12Query().ToString()};
      extra = {w::Example12Pk(1).ToString(), w::Example12Pk(2).ToString()};
      break;
    case 2:
      views = w::Sec44FullViews();
      s.pool = {w::Sec44FullQuery().ToString()};
      break;
    default:
      views = w::CarDealerViews();
      s.pool = {w::CarDealerQuery().ToString()};
      break;
  }
  s.views = ViewTexts(views);
  s.queries = 1;
  // The paper's rewritings follow the query as contain candidates.
  s.contain_pairs.push_back({0, 0});
  for (size_t i = 0; i < extra.size(); ++i)
    s.contain_pairs.push_back({0, 1 + i});
  s.pool.insert(s.pool.end(), extra.begin(), extra.end());
  return s;
}

/// Rewriting session `index`: redraws until its views load and enough of
/// its pool passes the vetter. Each session has its own vetter and draws,
/// so sessions can be built concurrently and stay a function of the seed.
RewriteSession BuildRewriteSession(uint64_t seed, size_t index,
                                   size_t shards) {
  Vetter vetter;
  for (size_t attempt = 0;; ++attempt) {
    Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (index * 1000 + attempt + 1)));
    RewriteSession s;
    if (index < 4) {
      s = PaperSession(index);
    } else {
      cqac::gen::QuerySpec qs;
      qs.ac_mode = kModes[index % 6];
      qs.num_subgoals = static_cast<int>(rng.Uniform(2, 3));
      cqac::gen::ViewSpec vs;
      vs.num_views = static_cast<int>(rng.Uniform(3, 4));
      vs.ac_mode = qs.ac_mode == cqac::gen::AcMode::kNone
                       ? cqac::gen::AcMode::kNone
                       : cqac::gen::AcMode::kSi;
      cqac::Query base = cqac::gen::RandomQuery(rng, qs);
      s.views = ViewTexts(cqac::gen::RandomViewsForQuery(rng, base, vs));
      s.pool.push_back(base.ToString());
      for (size_t i = 1; i < kPoolSize * 3 && s.pool.size() < kPoolSize; ++i)
        s.pool.push_back(cqac::gen::RandomQuery(rng, qs).ToString());
      s.queries = s.pool.size();
      for (size_t a = 0; a < s.pool.size(); ++a)
        for (size_t b = 0; b < s.pool.size(); ++b)
          s.contain_pairs.push_back({a, b});
    }
    const std::string vet_session = StrCat("vet", attempt);
    if (!vetter.LoadViews(vet_session, s.views)) continue;
    // Keep the queries that rewrite and classify cleanly, and the contain
    // pairs among kept entries that decide cleanly. Certified rewrites use
    // only small non-Datalog queries whose audit certifies every
    // obligation: an SI-MCR unfolding or a reference check over many
    // ordered values costs tens of milliseconds to seconds and would swamp
    // the mix.
    std::vector<size_t> remap(s.pool.size(), SIZE_MAX);
    std::vector<std::string> kept;
    std::vector<size_t> certifiable;
    for (size_t i = 0; i < s.pool.size(); ++i) {
      const std::string& q = s.pool[i];
      std::string plain;
      if (i < s.queries &&
          !(vetter.Ok(Line("rewrite", vet_session, "0", Field("query", q)),
                      &plain) &&
            vetter.Ok(Line("classify", vet_session, "0", Field("query", q)))))
        continue;
      if (i < s.queries && OrderedValues(q) <= kCertifyOrderedValues &&
          plain.find("\"kind\":\"datalog\"") == std::string::npos &&
          vetter.Ok(Line("rewrite", vet_session, "0",
                         Field("query", q) + ",\"certify\":true")))
        certifiable.push_back(kept.size());
      remap[i] = kept.size();
      kept.push_back(q);
    }
    const size_t kept_queries = std::count_if(
        remap.begin(), remap.begin() + s.queries,
        [](size_t r) { return r != SIZE_MAX; });
    std::vector<std::pair<size_t, size_t>> pairs;
    for (const auto& [a, b] : s.contain_pairs) {
      if (remap[a] == SIZE_MAX || remap[b] == SIZE_MAX) continue;
      if (vetter.Ok(Line("contain", vet_session, "0",
                         Field("query", s.pool[a]) +
                             Field("candidate", s.pool[b]))))
        pairs.push_back({remap[a], remap[b]});
    }
    if (kept_queries < (index < 4 ? 1u : 2u) || pairs.empty()) continue;
    s.pool = std::move(kept);
    s.queries = kept_queries;
    s.contain_pairs = std::move(pairs);
    s.certifiable = std::move(certifiable);
    // Constant-shifted variants of every kept query, so repeat queries
    // share work with earlier ones without all being cache hits.
    for (size_t j = 0; j < s.queries; ++j) s.popularity.push_back(j);
    for (int64_t k = 1; index >= 4 && k < kShifts; ++k)
      for (size_t j = 0; j < s.queries; ++j) {
        const std::string q = ShiftConstants(s.pool[j], k);
        if (!vetter.Ok(Line("rewrite", vet_session, "0", Field("query", q))) ||
            !vetter.Ok(Line("classify", vet_session, "0", Field("query", q))))
          continue;
        s.popularity.push_back(s.pool.size());
        s.pool.push_back(q);
      }
    s.lint_program.clear();
    for (const std::string& v : s.views) s.lint_program += v + "\n";
    s.lint_program += s.pool[0] + "\n";
    s.name = SessionName("rw", index, shards);
    s.defects = std::move(vetter.defects());
    return s;
  }
}

std::vector<RewriteSession> MakeRewriteSessions(uint64_t seed, size_t shards) {
  std::vector<RewriteSession> out(kRewriteSessions);
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1)) < out.size();)
      out[i] = BuildRewriteSession(seed, i, shards);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  return out;
}

class RewriteMixStream : public ConnectionStream {
 public:
  RewriteMixStream(uint64_t seed, std::vector<RewriteSession> sessions)
      : rng_(seed),
        sessions_(std::move(sessions)),
        session_deck_(std::vector<size_t>(sessions_.size(), 1)) {
    for (const RewriteSession& s : sessions_)
      zipf_.push_back(ZipfWeights(s.popularity.size(), 0.5));
    for (const RewriteSession& s : sessions_)
      for (const std::string& v : s.views)
        setup_.push_back(Line("view", s.name, NextId(), Field("rule", v)));
  }

  Op Next() override {
    const RewriteSession& s = sessions_[session_deck_.Deal(rng_)];
    const std::string& q =
        s.pool[s.popularity[Weighted(rng_, zipf_[&s - sessions_.data()])]];
    Op op;
    switch (op_deck_.Deal(rng_)) {
      case 0:
        op.op = "rewrite";
        op.line = Line("rewrite", s.name, NextId(), Field("query", q));
        break;
      case 1: {
        const auto& [a, b] =
            s.contain_pairs[rng_.Uniform(0, s.contain_pairs.size() - 1)];
        op.op = "contain";
        op.line = Line("contain", s.name, NextId(),
                       Field("query", s.pool[a]) +
                           Field("candidate", s.pool[b]));
        break;
      }
      case 2:
        op.op = "classify";
        op.line = Line("classify", s.name, NextId(), Field("query", q));
        break;
      case 3:
        op.op = "lint";
        op.line =
            Line("lint", s.name, NextId(), Field("program", s.lint_program));
        break;
      default: {
        op.op = "rewrite";
        if (s.certifiable.empty()) {
          op.line = Line("rewrite", s.name, NextId(), Field("query", q));
          break;
        }
        const std::string& c = s.pool[s.certifiable[Weighted(
            rng_, ZipfWeights(s.certifiable.size(), 1.1))]];
        op.certify = true;
        op.line = Line("rewrite", s.name, NextId(),
                       Field("query", c) + ",\"certify\":true");
        break;
      }
    }
    return op;
  }

 private:
  Rng rng_;
  std::vector<RewriteSession> sessions_;
  std::vector<std::vector<double>> zipf_;  // per session, over popularity
  Deck session_deck_;
  // rewrite 62%, contain 16%, classify 12%, lint 6%, certified rewrite 4%.
  Deck op_deck_{{62, 16, 12, 6, 4}};
};

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "rewrite-mix") {
    spec.shards = 2;
    spec.connections = 4;
    spec.pipeline_depth = 16;
    spec.latency_rate = 3000;
  } else if (name == "fact-stream") {
    spec.shards = 2;
    spec.durable = true;
    spec.connections = 4;
    spec.pipeline_depth = 16;
    // 95% of requests write one WAL record each, split evenly over the two
    // shards. At 20 measured seconds a latency window lasts 2.33 s, and at
    // this rate it carries 2048 records per shard: every two windows hold
    // exactly one snapshot per shard, whatever its phase.
    spec.capacity_share = 0.3;
    spec.latency_rate = 1847;
    // 6000 warm-up requests put under 4096 records on either shard, so
    // no snapshot's buffers are in the memory reading.
    spec.warmup_requests = 1500;
  } else {
    spec.shards = 1;
    spec.threads = 2;
    spec.connections = 3;
    spec.pipeline_depth = 8;
    spec.latency_rate = 210;
    spec.capacity_share = 0.25;
    spec.warmup_requests = 150;
  }
  return spec;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"rewrite-mix", "fact-stream",
                                                 "answer-scan"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), name) == names.end())
    return nullptr;
  auto w = std::make_unique<Workload>();
  w->spec = SpecFor(name);
  // Each connection draws from its own generator, so its stream does not
  // depend on how far the other connections got.
  auto conn_seed = [seed](size_t c) {
    return seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull * (c + 1);
  };
  if (name == "rewrite-mix") {
    // The session corpus is fixed; the seed deals its sessions to the
    // connections and draws all traffic. Runs with different seeds thus
    // pose the same rewriting problems in different orders.
    std::vector<RewriteSession> all =
        MakeRewriteSessions(kRewriteCorpusSeed, w->spec.shards);
    for (RewriteSession& s : all)
      w->defects.insert(w->defects.end(), s.defects.begin(), s.defects.end());
    Rng deal(conn_seed(99));
    for (size_t i = all.size(); i > 1; --i)
      std::swap(all[i - 1], all[deal.Uniform(0, i - 1)]);
    const size_t per = all.size() / w->spec.connections;
    for (size_t c = 0; c < w->spec.connections; ++c) {
      std::vector<RewriteSession> mine(all.begin() + c * per,
                                       all.begin() + (c + 1) * per);
      w->streams.push_back(
          std::make_unique<RewriteMixStream>(conn_seed(c), std::move(mine)));
    }
  } else if (name == "fact-stream") {
    for (size_t c = 0; c < w->spec.connections; ++c)
      w->streams.push_back(
          std::make_unique<FactStream>(conn_seed(c), c, 2, w->spec.shards));
  } else {
    for (size_t c = 0; c < w->spec.connections; ++c)
      w->streams.push_back(
          std::make_unique<AnswerScanStream>(conn_seed(c), c));
  }
  return w;
}

}  // namespace servebench
