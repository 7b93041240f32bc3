#include "servebench/replay.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "src/analysis/audit/audit.h"
#include "src/analysis/classify.h"
#include "src/analysis/lint.h"
#include "src/containment/containment.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/eval/evaluate.h"
#include "src/ir/expansion.h"
#include "src/ir/parser.h"
#include "src/ivm/maintain.h"
#include "src/rewriting/answer.h"
#include "src/serve/json_value.h"
#include "src/serve/protocol.h"
#include "src/serve/service.h"
#include "src/store/store.h"

namespace servebench {
namespace {

using cqac::Result;
using cqac::serve::Request;

constexpr size_t kPrefixOps = 4000;  // run ops per connection, traced extras

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Runs `fn` and adds its wall time (µs) to `samples`.
template <typename Fn>
auto Timed(std::vector<double>* samples, Fn&& fn) {
  const auto t0 = Clock::now();
  auto result = fn();
  samples->push_back(MicrosSince(t0));
  return result;
}

uint64_t CountField(const std::string& response) {
  const size_t at = response.find("\"count\":");
  return at == std::string::npos ? 0 : std::strtoull(response.c_str() + at + 8,
                                                     nullptr, 10);
}

/// Per-layer timing samples of the probe pass, in µs.
struct LayerSamples {
  std::vector<double> ir_parse, classify, lint, audit_all, plan,
      is_contained, evaluate, ivm_apply, add_view, store_append;
  double snapshot_us = 0;
};

/// A session as the probe pass mirrors it: the views and the maintained
/// base, built through the same public calls the service makes.
struct Mirror {
  cqac::ViewSet views;
  std::vector<std::string> view_texts;
  cqac::ivm::MaterializedViewSet store;
};

Result<Request> ParseLine(const std::string& line) {
  cqac::Result<cqac::serve::JsonValue> json = cqac::serve::ParseJson(line);
  if (!json.ok()) return json.status();
  return cqac::serve::ParseRequestEnvelope(std::move(json).value());
}

/// The probe pass: replays the setup and run lines once more and, for each
/// request, calls the public entry point of every layer it reaches on a
/// separate context, timing each call. Never compared, never on the wire.
LayerSamples ProbeLayers(const std::vector<WireLog>& logs, bool durable,
                         const std::string& scratch_dir) {
  LayerSamples out;
  cqac::EngineContext ctx;
  std::map<std::string, Mirror> mirrors;
  std::unique_ptr<cqac::store::ShardStore> store;
  if (durable) {
    std::filesystem::remove_all(scratch_dir);
    cqac::store::StoreOptions opts;
    opts.fsync = cqac::store::FsyncPolicy::kAlways;
    opts.snapshot_every = 0;  // the pass writes one snapshot at the end
    if (cqac::store::InitDataDir(scratch_dir, 1).ok()) {
      auto opened = cqac::store::ShardStore::Open(scratch_dir, 0, 1, opts,
                                                  nullptr);
      if (opened.ok()) store = std::move(opened).value();
    }
  }

  auto probe = [&](const std::string& line, bool timed) {
    Result<Request> parsed = ParseLine(line);
    if (!parsed.ok()) return;
    const Request& req = parsed.value();
    Mirror& m = mirrors[req.session];
    auto text = [&](const char* key) {
      auto v = req.GetString(key);
      return v.ok() ? v.value() : std::string();
    };
    std::vector<double> discard;
    std::vector<double>* ir = timed ? &out.ir_parse : &discard;
    if (req.op == "view") {
      auto q = cqac::ParseQuery(text("rule"));
      if (!q.ok() || !m.views.Add(q.value()).ok()) return;
      const bool loaded = m.store.base().TotalTuples() > 0;
      const auto t0 = Clock::now();
      (void)m.store.AddView(ctx, q.value());
      // AddView over an empty base materializes nothing; only a load
      // over existing facts is ivm work.
      if (loaded) out.add_view.push_back(MicrosSince(t0));
      m.view_texts.push_back(text("rule"));
      if (store) (void)store->Append(cqac::store::RecordType::kView,
                                     req.session, text("rule"));
    } else if (req.op == "fact" || req.op == "retract") {
      const std::string facts = text("facts");
      auto db = Timed(ir, [&] { return cqac::Database::FromFacts(facts); });
      if (!db.ok()) return;
      const bool insert = req.op == "fact";
      std::vector<double>* apply = timed ? &out.ivm_apply : &discard;
      (void)Timed(apply, [&] {
        return insert ? m.store.ApplyInsert(ctx, db.value())
                      : m.store.ApplyRetract(ctx, db.value());
      });
      if (store) {
        std::vector<double>* append = timed ? &out.store_append : &discard;
        (void)Timed(append, [&] {
          return store->Append(insert ? cqac::store::RecordType::kFact
                                      : cqac::store::RecordType::kRetract,
                               req.session, facts);
        });
      }
    } else if (!timed) {
      return;
    } else if (req.op == "rewrite" || req.op == "classify") {
      auto q = Timed(ir, [&] { return cqac::ParseQuery(text("query")); });
      if (!q.ok()) return;
      (void)Timed(&out.classify,
                  [&] { return cqac::ClassifyQuery(q.value()); });
      if (req.op == "classify") return;
      (void)Timed(&out.plan, [&] {
        return cqac::PlanForQuery(ctx, q.value(), m.views);
      });
      const cqac::serve::JsonValue* certify = req.body.Find("certify");
      if (certify != nullptr && certify->is_bool() && certify->bool_value()) {
        cqac::audit::AuditInputs inputs;
        inputs.query = q.value();
        inputs.views = m.views;
        cqac::audit::AuditOptions opts;
        opts.audit_ivm = false;
        opts.audit_eval = false;
        cqac::audit::AuditReport report;
        (void)Timed(&out.audit_all, [&] {
          return cqac::audit::AuditAll(ctx, inputs, opts, &report);
        });
      }
    } else if (req.op == "contain") {
      auto q = Timed(ir, [&] { return cqac::ParseQuery(text("query")); });
      auto c = Timed(ir, [&] { return cqac::ParseQuery(text("candidate")); });
      if (!q.ok() || !c.ok()) return;
      cqac::Query candidate = c.value();
      bool uses_views = !candidate.body().empty();
      for (const cqac::Atom& a : candidate.body())
        if (m.views.Find(a.predicate) == nullptr) uses_views = false;
      if (uses_views) {
        auto expanded = cqac::ExpandRewriting(candidate, m.views);
        if (!expanded.ok()) return;
        candidate = expanded.value();
      }
      (void)Timed(&out.is_contained, [&] {
        return cqac::IsContained(ctx, candidate, q.value());
      });
    } else if (req.op == "lint") {
      const std::string program = text("program");
      (void)Timed(&out.lint, [&] { return cqac::LintFileText(program); });
    } else if (req.op == "eval" || req.op == "answers") {
      auto q = Timed(ir, [&] { return cqac::ParseQuery(text("query")); });
      if (!q.ok() || req.op != "eval") return;
      (void)Timed(&out.evaluate, [&] {
        return cqac::EvaluateQuery(ctx, q.value(), m.store.base());
      });
    }
  };

  for (const WireLog& log : logs)
    for (const std::string& line : log.setup_lines) probe(line, false);
  for (const WireLog& log : logs)
    for (const Op& op : log.run_ops) probe(op.line, true);

  if (store) {
    std::vector<cqac::store::SessionSnapshotRef> refs;
    for (auto& [name, m] : mirrors)
      refs.push_back({&name, &m.view_texts, &m.store});
    const auto t0 = Clock::now();
    (void)store->WriteSnapshot(ctx.adaptive(), refs);
    out.snapshot_us = MicrosSince(t0);
    store.reset();
    std::filesystem::remove_all(scratch_dir);
  }
  return out;
}

double MedianOr0(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Median(v);
}

/// What one replay pass measured (timings only when its clocks were on).
struct PassResult {
  double run_s = 0;  // wall time of the run requests (setup excluded)
  std::map<std::string, std::vector<double>> execute_us;  // by op
  std::vector<double> parse_us;
  std::vector<double> conn0_execute_us;
};

/// Replays one connection's setup and run lines through `service`,
/// comparing each response digest into `report` (when set).
void ReplayConnection(const WireLog& log, size_t conn,
                      cqac::serve::Service& service, bool clocks,
                      PassResult* pass, ReplayReport* report) {
  bool shutdown = false;
  auto compare = [&](const std::string& response, uint64_t want,
                     size_t index, const std::string& line) {
    if (report == nullptr) return;
    ++report->compared;
    // The service's line carries the protocol's '\n'; the wire log does not.
    if (HashBytes(response.data(), response.size() - 1) == want) return;
    ++report->mismatches;
    if (report->notes.size() < 5)
      report->notes.push_back("connection " + std::to_string(conn) +
                              " request " + std::to_string(index) +
                              " differs from serial replay: " +
                              line.substr(0, 160));
  };
  for (size_t i = 0; i < log.setup_lines.size(); ++i)
    compare(service.Execute(log.setup_lines[i], &shutdown),
            log.setup_hashes[i], i, log.setup_lines[i]);
  const auto run_start = Clock::now();
  for (size_t i = 0; i < log.run_ops.size(); ++i) {
    const Op& op = log.run_ops[i];
    std::string response;
    if (clocks) {
      const auto t0 = Clock::now();
      Result<Request> req = ParseLine(op.line);
      pass->parse_us.push_back(MicrosSince(t0));
      const auto t1 = Clock::now();
      response = req.ok() ? service.ExecuteParsed(req.value(), &shutdown)
                          : service.Execute(op.line, &shutdown);
      const double us = MicrosSince(t1);
      pass->execute_us[op.op].push_back(us);
      if (conn == 0) pass->conn0_execute_us.push_back(us);
    } else {
      response = service.Execute(op.line, &shutdown);
    }
    if (report != nullptr && (op.op == "eval" || op.op == "answers")) {
      report->rows_out += CountField(response);
      ++report->read_responses;
    }
    compare(response, log.run_hashes[i], i, op.line);
  }
  pass->run_s += SecondsBetween(run_start, Clock::now());
}

/// One serial pass over every stream through a single fresh service (one
/// shard), optionally with per-request clocks. It compares nothing.
PassResult SerialPass(const std::vector<WireLog>& logs, bool clocks) {
  PassResult pass;
  cqac::EngineContext ctx;
  cqac::serve::Service service(ctx, cqac::serve::ServiceOptions{});
  for (size_t c = 0; c < logs.size(); ++c)
    ReplayConnection(logs[c], c, service, clocks, &pass, nullptr);
  return pass;
}

/// The oracle: each connection's sessions replay serially through their
/// own single-shard service, connections side by side. Sessions never
/// share state, so each response must match the wire's byte for byte.
void ParallelOracle(const std::vector<WireLog>& logs, ReplayReport* report) {
  std::vector<ReplayReport> parts(logs.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < logs.size(); ++c)
    threads.emplace_back([&, c] {
      cqac::EngineContext ctx;
      cqac::serve::Service service(ctx, cqac::serve::ServiceOptions{});
      PassResult unused;
      ReplayConnection(logs[c], c, service, false, &unused, &parts[c]);
    });
  for (std::thread& t : threads) t.join();
  for (const ReplayReport& p : parts) {
    report->compared += p.compared;
    report->mismatches += p.mismatches;
    report->rows_out += p.rows_out;
    report->read_responses += p.read_responses;
    for (const std::string& n : p.notes)
      if (report->notes.size() < 5) report->notes.push_back(n);
  }
}

}  // namespace

ReplayReport Replay(const std::vector<WireLog>& logs, bool trace,
                    bool durable, const std::string& scratch_dir) {
  ReplayReport report;
  ParallelOracle(logs, &report);
  if (!trace) return report;
  // The timings come from a serial pass through one service, so that no
  // two requests share the machine; it checks nothing.
  PassResult timed = SerialPass(logs, true);
  // The tracing price and the layer probes use a prefix of every stream:
  // enough samples, at a fraction of a full pass's time. The prefix
  // replays with and without per-request clocks.
  std::vector<WireLog> prefix = logs;
  for (WireLog& log : prefix)
    if (log.run_ops.size() > kPrefixOps) {
      log.run_ops.resize(kPrefixOps);
      log.run_hashes.resize(kPrefixOps);
    }
  const double clocked_s = SerialPass(prefix, true).run_s;
  const double unclocked_s = SerialPass(prefix, false).run_s;
  LayerSamples layers = ProbeLayers(prefix, durable, scratch_dir);

  report.conn0_execute_us = timed.conn0_execute_us;
  auto add = [&report](const std::string& name, double value,
                       const char* unit) {
    report.metrics.push_back({name, value, unit});
  };
  for (const char* op : {"rewrite", "contain", "classify", "lint", "fact",
                         "retract", "answers", "eval"}) {
    auto it = timed.execute_us.find(op);
    add(std::string("service.execute_us.") + op,
        it == timed.execute_us.end() ? 0.0 : Median(it->second), "us");
  }
  add("protocol.parse_us", MedianOr0(timed.parse_us), "us");
  add("ir.parse_us", MedianOr0(layers.ir_parse), "us");
  add("analysis.classify_us", MedianOr0(layers.classify), "us");
  add("analysis.lint_us", MedianOr0(layers.lint), "us");
  add("audit.all_us", MedianOr0(layers.audit_all), "us");
  add("rewriting.plan_us", MedianOr0(layers.plan), "us");
  add("containment.is_contained_us", MedianOr0(layers.is_contained), "us");
  add("eval.evaluate_us", MedianOr0(layers.evaluate), "us");
  add("ivm.apply_us", MedianOr0(layers.ivm_apply), "us");
  add("ivm.add_view_ms", MedianOr0(layers.add_view) / 1000.0, "ms");
  add("store.append_us", MedianOr0(layers.store_append), "us");
  add("store.snapshot_ms", layers.snapshot_us / 1000.0, "ms");
  add("trace.overhead_ratio", unclocked_s > 0 ? clocked_s / unclocked_s : 0.0,
      "ratio");
  return report;
}

}  // namespace servebench
