// Self-tests of the benchmark itself: stream determinism, the oracle's
// sensitivity, the percentile rule, and wall-clock throughput.
#include "servebench/selftest.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "servebench/common.h"
#include "servebench/replay.h"
#include "servebench/workload.h"
#include "src/engine/context.h"
#include "src/serve/service.h"

namespace servebench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Setup lines plus the first `n` run lines of every stream, as one digest.
uint64_t StreamDigest(const std::string& workload, uint64_t seed, size_t n) {
  std::unique_ptr<Workload> w = MakeWorkload(workload, seed);
  std::string all;
  for (auto& s : w->streams) {
    for (const std::string& line : s->setup()) all += line + "\n";
    for (size_t i = 0; i < n; ++i) all += s->Next().line + "\n";
  }
  return HashBytes(all);
}

void TestStreamsAreSeeded() {
  for (const std::string& name : WorkloadNames()) {
    const uint64_t a = StreamDigest(name, 7, 500);
    Expect(a == StreamDigest(name, 7, 500),
           name + ": one seed gives a byte-identical request stream");
    Expect(a != StreamDigest(name, 8, 500),
           name + ": another seed gives another stream");
  }
}

void TestCorpusHasNoDefect() {
  std::unique_ptr<Workload> w = MakeWorkload("rewrite-mix", 1);
  for (const std::string& d : w->defects) std::printf("  %s\n", d.c_str());
  Expect(w->defects.empty(),
         "rewrite-mix: vetting the corpus met no audit failure or "
         "unexpected error");
}

/// Builds wire logs from an in-process run of `workload`, with one byte of
/// run response `corrupt_index` on connection 1 flipped (none when it is
/// SIZE_MAX), as if the transport had damaged it.
std::vector<WireLog> LogsOf(const std::string& workload, size_t n,
                            size_t corrupt_index) {
  std::unique_ptr<Workload> w = MakeWorkload(workload, 3);
  cqac::EngineContext ctx;
  cqac::serve::Service service(ctx, cqac::serve::ServiceOptions{});
  bool shutdown = false;
  auto digest = [&](const std::string& line) {
    std::string r = service.Execute(line, &shutdown);
    return HashBytes(r.data(), r.size() - 1);
  };
  std::vector<WireLog> logs;
  for (auto& s : w->streams) {
    WireLog log;
    log.setup_lines = s->setup();
    for (const std::string& line : log.setup_lines)
      log.setup_hashes.push_back(digest(line));
    logs.push_back(std::move(log));
  }
  for (size_t c = 0; c < logs.size(); ++c)
    for (size_t i = 0; i < n; ++i) {
      Op op = w->streams[c]->Next();
      std::string r = service.Execute(op.line, &shutdown);
      r.pop_back();  // the protocol's '\n'
      if (c == 1 && i == corrupt_index) r[r.size() / 2] ^= 0x20;
      logs[c].run_hashes.push_back(HashBytes(r));
      logs[c].run_ops.push_back(std::move(op));
    }
  return logs;
}

void TestCorruptedResponseIsCounted() {
  ReplayReport clean = Replay(LogsOf("rewrite-mix", 40, SIZE_MAX), false,
                              false, "");
  Expect(clean.mismatches == 0 && clean.compared > 0,
         "an honest response stream replays with no mismatch");
  ReplayReport bad = Replay(LogsOf("rewrite-mix", 40, 17), false, false, "");
  Expect(bad.mismatches == 1, "a corrupted response counts as one failure");
}

void TestPercentileRefusesThinTails() {
  std::vector<double> hundred(100), thousand(1000);
  for (size_t i = 0; i < hundred.size(); ++i) hundred[i] = i;
  for (size_t i = 0; i < thousand.size(); ++i) thousand[i] = i;
  Expect(!Percentile(hundred, 99).has_value(),
         "p99 of 100 samples is refused (1 sample beyond it)");
  Expect(Percentile(thousand, 99).value_or(-1) == 989,
         "p99 of 1000 samples is the 990th value");
  Expect(Percentile(hundred, 50).value_or(-1) == 49,
         "p50 of 100 samples is the 50th value");
  Expect(!Percentile(std::vector<double>(15, 1.0), 50).has_value(),
         "p50 of 15 samples is refused");
}

void TestThroughputUsesWallTime() {
  // A client that completes 100 requests while sleeping 200 ms (no CPU)
  // made 500 requests per wall second; a CPU-time denominator would report
  // orders of magnitude more.
  const auto t0 = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double rps = ThroughputRps(100, t0, Clock::now());
  Expect(rps > 400 && rps <= 500, "throughput is computed over wall time");
}

}  // namespace

int RunSelfTests() {
  TestStreamsAreSeeded();
  TestCorpusHasNoDefect();
  TestCorruptedResponseIsCounted();
  TestPercentileRefusesThinTails();
  TestThroughputUsesWallTime();
  std::printf("%s (%d failed)\n", failures ? "FAILED" : "ALL PASSED",
              failures);
  return failures ? 1 : 0;
}

}  // namespace servebench
