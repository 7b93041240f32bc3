// servebench: the wire-level benchmark of cqac_serve.
//
// One process starts the real server binary as a child, loads a seeded
// workload over loopback, and measures two phases on at most four
// connections (one thread each): a closed-loop capacity phase and an
// open-loop latency phase at the workload's fixed rate. Every response is
// checked: error responses, certified rewrites whose audit does not pass,
// any response that differs from a serial single-shard replay, final
// `eval` results that differ from the reference evaluator over the
// driver's own fact ledger, and (durable workload) acked writes missing
// after a SIGKILL restart. The last stdout line is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//
//   servebench_driver --server PATH --workdir DIR --workload NAME
//                     --seed N --seconds S --trace 0|1
//   servebench_driver --self-test
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <time.h>

#include "servebench/common.h"
#include "servebench/replay.h"
#include "servebench/selftest.h"
#include "servebench/wire.h"
#include "servebench/workload.h"
#include "src/serve/json_value.h"

namespace servebench {
namespace {

constexpr size_t kSetupRepeats = 3;  // before the run; one more per window
constexpr size_t kIdleSamples = 200;
constexpr size_t kRounds = 6;  // capacity/latency window pairs per run
constexpr uint64_t kSnapshotEvery = 4096;  // --snapshot-every, the default
constexpr uint64_t kRecoveryTail = 2048;   // WAL records per shard at crash
// Open-loop requests outstanding per connection: four connections stay
// below one shard's 256-deep request queue.
constexpr size_t kMaxOutstanding = 48;
// About the reference work's CPU time on the machine the seed was measured
// on. Times are divided, and throughput multiplied, by (the run's
// reference time / this), so they read as on a machine of that speed.
constexpr double kReferenceSeconds = 0.007;
constexpr size_t kReferenceThreads = 4;
constexpr size_t kReferenceRepeats = 10;
const auto kSpawnTimeout = std::chrono::seconds(120);
const auto kRoundTripTimeout = std::chrono::seconds(60);

struct Args {
  std::string server, workdir, workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Counters of one `stats` response: the global engine block plus the
/// per-shard transport fields.
struct StatsSample {
  double requests = 0;
  std::map<std::string, double> engine;
  std::vector<double> enqueued, queue_peak, appended;  // per shard
  double rejected = 0;

  double Get(const std::string& key) const {
    auto it = engine.find(key);
    return it == engine.end() ? 0.0 : it->second;
  }
};

StatsSample ParseStats(const std::string& response) {
  StatsSample s;
  auto json = cqac::serve::ParseJson(response);
  if (!json.ok()) return s;
  const cqac::serve::JsonValue& root = json.value();
  const auto* engine = root.Find("engine");
  const auto* shards = root.Find("shard_stats");
  const auto* requests = root.Find("requests");
  if (engine == nullptr || shards == nullptr || requests == nullptr)
    return s;
  s.requests = requests->number_value();
  for (const auto& [k, v] : engine->object_items())
    s.engine[k] = v.number_value();
  for (const auto& shard : shards->array_items()) {
    auto num = [&shard](const char* key) {
      const auto* v = shard.Find(key);
      return v == nullptr ? 0.0 : v->number_value();
    };
    s.enqueued.push_back(num("enqueued"));
    s.queue_peak.push_back(num("queue_depth_peak"));
    const auto* engine_i = shard.Find("engine");
    const auto* records =
        engine_i == nullptr ? nullptr : engine_i->Find("store_records_appended");
    s.appended.push_back(records == nullptr ? 0.0 : records->number_value());
    s.rejected += num("rejected_overloaded");
  }
  return s;
}

/// CPU seconds the calling thread has used so far.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// A fixed piece of compute (string formatting, an ordered map, a sort),
/// timed in the calling thread's CPU time. It never touches the server.
/// Like the server's CPU time, it leaves out time the machine's other
/// tenants take away, and it grows when the machine runs instructions
/// slower.
double ReferenceSeconds() {
  const double t0 = ThreadCpuSeconds();
  std::map<std::string, uint64_t> m;
  std::vector<uint64_t> v;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[std::to_string(x % 4096)] += x;
    v.push_back(x);
  }
  std::sort(v.begin(), v.end());
  uint64_t sum = v[v.size() / 2];
  for (const auto& [k, c] : m) sum += c + k.size();
  // An atomic add the compiler cannot drop keeps the work from being elided.
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(sum, std::memory_order_relaxed);
  return ThreadCpuSeconds() - t0;
}

/// The machine's speed now: the median CPU time of the reference work, run
/// kReferenceRepeats times on each of kReferenceThreads threads at once
/// (the calling one among them). Taken only while every connection thread
/// waits and the server idles, so no more than four threads run.
double ReferenceSample() {
  std::vector<std::vector<double>> per(kReferenceThreads);
  auto run = [&per](size_t t) {
    for (size_t i = 0; i < kReferenceRepeats; ++i)
      per[t].push_back(ReferenceSeconds());
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < kReferenceThreads; ++t) threads.emplace_back(run, t);
  run(0);
  for (auto& t : threads) t.join();
  std::vector<double> all;
  for (const auto& v : per) all.insert(all.end(), v.begin(), v.end());
  return Median(all);
}

/// A request in flight on one connection.
struct Pending {
  size_t index = 0;  // into WireLog::run_ops
  Clock::time_point due;
  OpClass cls = OpClass::kRead;
  bool certify = false;
  bool latency = false;  // sent by the open-loop phase
};

/// Everything one connection's thread records.
struct ConnState {
  ConnectionStream* stream = nullptr;
  std::unique_ptr<Connection> conn;
  WireLog log;
  std::vector<double> latency_ms, read_ms, write_ms, lag_ms;
  std::vector<double> idle_rtt_us;  // serial stream ops at idle (trace)
  uint64_t capacity_ok = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t certified = 0;
  uint64_t write_payload_bytes = 0;
  uint64_t timed_bytes_sent = 0, timed_bytes_received = 0;
  std::vector<std::string> notes;

  void Fail(const std::string& note) {
    ++failed;
    if (notes.size() < 5) notes.push_back(note);
  }

  /// Sends the next stream op; returns its Pending record.
  Pending SendNext(Clock::time_point due, bool latency, std::string* batch) {
    return Send(stream->Next(), due, latency, batch);
  }

  /// Appends `op` to `batch` and the log; returns its Pending record.
  Pending Send(Op op, Clock::time_point due, bool latency,
               std::string* batch) {
    Pending p{log.run_ops.size(), due, op.cls, op.certify, latency};
    batch->append(op.line);
    batch->push_back('\n');
    if (op.cls == OpClass::kWrite) write_payload_bytes += op.payload_bytes;
    log.run_ops.push_back(std::move(op));
    log.run_hashes.push_back(0);
    ++attempted;
    return p;
  }

  /// Records one response; true when it is a success.
  bool OnResponse(const Pending& p, const std::string& line,
                  Clock::time_point received) {
    log.run_hashes[p.index] = HashBytes(line);
    bool good = line.rfind("{\"ok\":true", 0) == 0;
    if (!good) {
      Fail("error response: " + line.substr(0, 200));
    } else if (p.certify) {
      ++certified;
      if (line.find("\"audit\":") == std::string::npos ||
          line.find("\"failures\":0,") == std::string::npos) {
        Fail("certified rewrite did not pass its audit: " +
             line.substr(0, 200));
        good = false;
      }
    }
    if (p.latency) {
      const double ms =
          std::chrono::duration<double, std::milli>(received - p.due).count();
      latency_ms.push_back(ms);
      (p.cls == OpClass::kRead ? read_ms : write_ms).push_back(ms);
    }
    return good;
  }
};

/// Loads every setup line of `state`'s stream, `depth` in flight.
bool LoadSetup(ConnState& st, size_t depth) {
  const auto& lines = st.stream->setup();
  st.log.setup_lines = lines;
  st.log.setup_hashes.assign(lines.size(), 0);
  st.attempted += lines.size();
  size_t next = 0, done = 0;
  std::vector<std::string> got;
  while (done < lines.size()) {
    std::string batch;
    while (next < lines.size() && next - done < depth)
      batch += lines[next++] + "\n";
    if (!batch.empty() && !st.conn->SendAll(batch)) return false;
    got.clear();
    if (!st.conn->Receive(&got, 1000000000)) return false;
    for (const std::string& r : got) {
      st.log.setup_hashes[done] = HashBytes(r);
      if (r.rfind("{\"ok\":true", 0) != 0)
        st.Fail("setup request failed: " + r.substr(0, 200));
      ++done;
    }
  }
  return true;
}

/// The closed loop: keeps `depth` requests in flight until `end`, then
/// drains. Only successes completed before `end` count toward throughput.
bool CapacityPhase(ConnState& st, size_t depth, Clock::time_point end) {
  std::deque<Pending> inflight;
  std::vector<std::string> got;
  while (true) {
    const auto now = Clock::now();
    if (now < end) {
      std::string batch;
      while (inflight.size() < depth)
        inflight.push_back(st.SendNext(now, false, &batch));
      if (!st.conn->SendAll(batch)) break;
    } else if (inflight.empty()) {
      return true;
    }
    got.clear();
    const int64_t wait =
        now < end ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                        end - now).count()
                  : 1000000000;
    if (!st.conn->Receive(&got, wait)) break;
    const auto received = Clock::now();
    for (const std::string& line : got) {
      if (inflight.empty()) break;
      if (st.OnResponse(inflight.front(), line, received) && received < end)
        ++st.capacity_ok;
      inflight.pop_front();
    }
  }
  for (size_t i = 0; i < inflight.size(); ++i) st.Fail("connection lost");
  return false;
}

/// The open loop: sends at fixed intervals from `start` to `end` whatever
/// the responses do, timing each response from when its request was due.
bool LatencyPhase(ConnState& st, double interval_s, Clock::time_point start,
                  Clock::time_point end) {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(interval_s));
  auto due = start;
  std::deque<Pending> inflight;
  std::vector<std::string> got;
  const auto deadline = end + std::chrono::seconds(60);
  while (true) {
    auto now = Clock::now();
    std::string batch;
    // A real client bounds what it has outstanding. Past the bound the
    // sender falls behind schedule, which the due-time latencies and
    // driver.lag_p99_ms both show, instead of overflowing the server's
    // bounded queue into "overloaded" rejections.
    while (due <= now && due < end && inflight.size() < kMaxOutstanding) {
      inflight.push_back(st.SendNext(due, true, &batch));
      st.lag_ms.push_back(
          std::chrono::duration<double, std::milli>(now - due).count());
      due += interval;
    }
    if (!batch.empty() && !st.conn->SendAll(batch)) break;
    if (due >= end && inflight.empty()) return true;
    if (now > deadline) break;
    got.clear();
    now = Clock::now();
    const int64_t wait =
        due < end && inflight.size() < kMaxOutstanding
            ? std::max<int64_t>(
                  0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                         due - now).count())
            : 1000000000;
    if (!st.conn->Receive(&got, wait)) break;
    const auto received = Clock::now();
    for (const std::string& line : got) {
      if (inflight.empty()) break;
      st.OnResponse(inflight.front(), line, received);
      inflight.pop_front();
    }
  }
  for (size_t i = 0; i < inflight.size(); ++i) st.Fail("connection lost");
  return false;
}

/// Sends `ops` pipelined (`depth` in flight) and records each response.
bool SendPipelined(ConnState& st, std::vector<Op> ops, size_t depth) {
  std::deque<Pending> inflight;
  std::vector<std::string> got;
  size_t next = 0;
  while (next < ops.size() || !inflight.empty()) {
    std::string batch;
    while (next < ops.size() && inflight.size() < depth)
      inflight.push_back(
          st.Send(std::move(ops[next++]), Clock::now(), false, &batch));
    if (!batch.empty() && !st.conn->SendAll(batch)) return false;
    got.clear();
    if (!st.conn->Receive(&got, 1000000000)) return false;
    for (const std::string& line : got) {
      if (inflight.empty()) return false;
      st.OnResponse(inflight.front(), line, Clock::now());
      inflight.pop_front();
    }
  }
  return true;
}

/// Sends `count` stream requests on every connection at once, `depth` in
/// flight on each, untimed. False when a connection was lost.
bool WarmUp(std::vector<ConnState>& conns, size_t count, size_t depth) {
  std::vector<char> ok(conns.size(), 0);
  auto run = [&](size_t c) {
    std::vector<Op> ops;
    for (size_t i = 0; i < count; ++i) ops.push_back(conns[c].stream->Next());
    ok[c] = SendPipelined(conns[c], std::move(ops), depth);
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < conns.size(); ++c) threads.emplace_back(run, c);
  run(0);
  for (auto& t : threads) t.join();
  return std::all_of(ok.begin(), ok.end(), [](char v) { return v != 0; });
}

/// Sends each check and compares its "tuples" field with the reference.
void RunChecks(ConnState& st, Connection& conn,
               const std::vector<Check>& checks, const char* what) {
  for (const Check& c : checks) {
    ++st.attempted;
    std::string r;
    if (!conn.RoundTrip(c.line, &r, kRoundTripTimeout)) {
      st.Fail(std::string(what) + ": connection lost");
      return;
    }
    const std::string key = ",\"tuples\":";
    const size_t at = r.find(key);
    if (r.rfind("{\"ok\":true", 0) != 0 || at == std::string::npos ||
        r.compare(at + key.size(), c.expected_tuples.size(),
                  c.expected_tuples) != 0 ||
        r[at + key.size() + c.expected_tuples.size()] != ',')
      st.Fail(std::string(what) + " mismatch for " + c.line.substr(0, 160));
  }
}

/// One set-up: spawns the server, connects each of `conns` and loads every
/// setup line of its stream, `depth` in flight. Set-up pipelines no deeper
/// than the capacity phase, so the queue peak the server keeps from its
/// start is one the timed phases reach too. Returns the server, with the
/// seconds from spawn to loaded in `*seconds`, or null with `*error`.
std::unique_ptr<ServerProcess> SetUp(const std::string& binary,
                                     const std::vector<std::string>& args,
                                     const std::string& log_path, size_t depth,
                                     std::vector<ConnState>& conns,
                                     double* seconds, std::string* error) {
  const auto t0 = Clock::now();
  std::unique_ptr<ServerProcess> server =
      ServerProcess::Spawn(binary, args, log_path, kSpawnTimeout, error);
  if (!server) return nullptr;
  for (ConnState& st : conns) {
    st.conn = Connection::Open(server->port());
    if (!st.conn) {
      *error = "connect failed";
      return nullptr;
    }
  }
  std::vector<char> loaded(conns.size(), 0);
  std::vector<std::thread> threads;
  for (size_t c = 1; c < conns.size(); ++c)
    threads.emplace_back(
        [&, c] { loaded[c] = LoadSetup(conns[c], depth); });
  loaded[0] = LoadSetup(conns[0], depth);
  for (auto& t : threads) t.join();
  *seconds = SecondsBetween(t0, Clock::now());
  for (char l : loaded)
    if (!l) {
      *error = "set-up lost its connection";
      return nullptr;
    }
  return server;
}

StatsSample TakeStats(Connection& c, const std::string& tag) {
  std::string r;
  if (!c.RoundTrip("{\"op\":\"stats\",\"id\":\"" + tag + "\"}", &r,
                   kRoundTripTimeout))
    return {};
  return ParseStats(r);
}

/// Writes on connection `st` until each shard's WAL holds exactly
/// kRecoveryTail records after its latest snapshot. Every request appends
/// at most one record, so a shard snapshots exactly when its record count
/// reaches a multiple of kSnapshotEvery.
void FillWalTail(ConnState& st, size_t depth) {
  StatsSample now = TakeStats(*st.conn, "stats-tail");
  for (size_t shard = 0; shard < now.appended.size(); ++shard) {
    const uint64_t tail =
        static_cast<uint64_t>(now.appended[shard]) % kSnapshotEvery;
    std::vector<Op> writes;
    for (uint64_t i = 0;
         i < (kSnapshotEvery - tail) % kSnapshotEvery + kRecoveryTail; ++i)
      writes.push_back(*st.stream->NextWriteOnShard(shard));
    if (!SendPipelined(st, std::move(writes), depth))
      st.Fail("connection lost while filling the WAL tail");
  }
}

struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> extra;  // printed for people, not in the JSON line
  uint64_t attempted = 0, failed = 0;
  bool valid = true;          // false: the run could not be measured
  std::vector<std::string> notes;
};

void Note(Outcome* o, const std::string& s) {
  if (o->notes.size() < 20) o->notes.push_back(s);
}

/// Folds the counts and notes of throwaway connections into `out`.
void Absorb(const std::vector<ConnState>& conns, Outcome* out) {
  for (const ConnState& st : conns) {
    out->attempted += st.attempted;
    out->failed += st.failed;
    for (const std::string& note : st.notes) Note(out, note);
  }
}

std::vector<std::string> ServerArgs(const WorkloadSpec& spec,
                                    const std::string& data_dir) {
  std::vector<std::string> a = {"--shards", std::to_string(spec.shards),
                                "--threads", std::to_string(spec.threads)};
  if (spec.durable) {
    // The server's default policy: a write is acked once it is in the WAL,
    // and each shard fsyncs it inline at most once per 50 ms. Under
    // "always" the run would time the host's disk, which on a shared
    // machine varied threefold between runs; the probe pass prices an
    // fsync per record instead.
    a.insert(a.end(), {"--data-dir", data_dir, "--fsync", "interval",
                       "--snapshot-every",
                       std::to_string(kSnapshotEvery)});
  }
  return a;
}

/// Builds the durable workload's recovery image in `dir`: a throwaway
/// server loads the set-up of a twin of the workload (same seed, same
/// streams), is written to until each shard holds one snapshot and exactly
/// kRecoveryTail WAL records after it, and is SIGKILLed. Recovery is then
/// timed on fresh copies of the image, so every run recovers the same
/// state. False, with a note, when the image could not be made.
bool MakeRecoveryImage(const Args& args, const std::string& dir,
                       Outcome* out) {
  std::unique_ptr<Workload> twin = MakeWorkload(args.workload, args.seed);
  const WorkloadSpec& spec = twin->spec;
  std::vector<ConnState> conns(spec.connections);
  for (size_t c = 0; c < conns.size(); ++c)
    conns[c].stream = twin->streams[c].get();
  std::string error;
  double seconds = 0;
  std::unique_ptr<ServerProcess> server =
      SetUp(args.server, ServerArgs(spec, dir), dir + ".log",
            spec.pipeline_depth, conns, &seconds, &error);
  if (server) {
    FillWalTail(conns[0], spec.pipeline_depth);
    server->Kill();
  } else {
    Note(out, "recovery image: " + error);
  }
  Absorb(conns, out);
  return server != nullptr;
}

Outcome Run(const Args& args) {
  Outcome out;
  auto stage_start = Clock::now();
  auto stage = [&stage_start](const char* name) {
    const auto now = Clock::now();
    std::fprintf(stderr, "servebench: %-14s %.2f s\n", name,
                 SecondsBetween(stage_start, now));
    stage_start = now;
  };
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  stage("generate");
  // A defect met while vetting the corpus fails the run like a mismatch.
  out.attempted += w->defects.size();
  out.failed += w->defects.size();
  for (const std::string& d : w->defects) Note(&out, d);
  const WorkloadSpec& spec = w->spec;
  const std::string base = args.workdir + "/" + spec.name;
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  const std::string data_dir = base + "/data";
  const std::string log_path = base + "/server.log";
  const std::vector<std::string> server_args = ServerArgs(spec, data_dir);
  const size_t n = spec.connections;
  std::vector<ConnState> conns(n);
  for (size_t c = 0; c < n; ++c) conns[c].stream = w->streams[c].get();

  // ---- recovery: spawn -> listening, on a copy of the recovery image -----
  // Sampled a few times before the timed phases and once at every window
  // boundary, like set-up. In memory there is nothing to recover, and this
  // is the bare restart.
  const std::string image_dir = base + "/image";
  const std::string recover_dir = base + "/recover";
  if (spec.durable && !MakeRecoveryImage(args, image_dir, &out)) {
    out.valid = false;
    return out;
  }
  std::vector<double> recovery_s;
  StatsSample recovered;  // the server's counters after one recovery
  auto recovery_sample = [&]() -> bool {
    std::error_code ec;
    std::filesystem::remove_all(recover_dir, ec);
    if (spec.durable)
      std::filesystem::copy(image_dir, recover_dir,
                            std::filesystem::copy_options::recursive, ec);
    if (ec) {
      Note(&out, "recovery: " + ec.message());
      out.valid = false;
      return false;
    }
    std::string error;
    const auto t0 = Clock::now();
    std::unique_ptr<ServerProcess> srv =
        ServerProcess::Spawn(args.server, ServerArgs(spec, recover_dir),
                             base + "/recover.log", kSpawnTimeout, &error);
    if (!srv) {
      Note(&out, "recovery: " + error);
      out.valid = false;
      return false;
    }
    recovery_s.push_back(SecondsBetween(t0, Clock::now()));
    if (recovery_s.size() == 1) {
      std::unique_ptr<Connection> c = Connection::Open(srv->port());
      if (c) recovered = TakeStats(*c, "recovery");
    }
    srv->Kill();
    std::filesystem::remove_all(recover_dir, ec);
    return true;
  };
  for (size_t rep = 0; rep < kSetupRepeats; ++rep)
    if (!recovery_sample()) return out;
  stage("recovery");

  // ---- set-up: spawn -> listening -> views and facts loaded --------------
  // Repeated a few times here, the last server being the one measured; more
  // set-up samples are taken at every window boundary below.
  std::unique_ptr<ServerProcess> server;
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    if (server) server->Kill();
    std::filesystem::remove_all(data_dir);
    std::string error;
    double s = 0;
    server = SetUp(args.server, server_args, log_path, spec.pipeline_depth,
                   conns, &s, &error);
    if (!server) {
      Note(&out, "set-up: " + error);
      out.valid = false;
      return out;
    }
    setup_s.push_back(s);
  }
  stage("set-up");

  // ---- warm-up: a fixed count of requests, then the memory reading -------
  // Lazy state fills before timing, and the server's memory is read after
  // the same work on every run, however fast the machine was.
  if (!WarmUp(conns, spec.warmup_requests, spec.pipeline_depth)) {
    Note(&out, "warm-up lost a connection");
    out.valid = false;
    return out;
  }
  const double peak_rss_mb = server->PeakRssMb();
  stage("warm-up");

  // ---- idle probes (traced run only): ping floor and serial stream ops ----
  Connection& control = *conns[0].conn;
  std::vector<double> ping_us;
  if (args.trace) {
    std::string r;
    for (size_t i = 0; i < kIdleSamples; ++i) {
      const auto t0 = Clock::now();
      if (!control.RoundTrip("{\"op\":\"ping\"}", &r, kRoundTripTimeout))
        break;
      ping_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
    ConnState& st = conns[0];
    for (size_t i = 0; i < kIdleSamples; ++i) {
      std::string batch;
      Pending p = st.SendNext(Clock::now(), false, &batch);
      const auto t0 = Clock::now();
      batch.pop_back();
      if (!control.RoundTrip(batch, &r, kRoundTripTimeout)) break;
      st.idle_rtt_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      st.OnResponse(p, r, Clock::now());
    }
  }

  // ---- timed phases: kRounds x (capacity window, latency window) ----------
  // Alternating short windows spread both measurements over the whole run,
  // so a slow spell of the machine lands in a few windows, not in all of
  // one phase; each metric then takes the median over windows.
  StatsSample s0 = TakeStats(control, "stats-before");
  const double cpu_before = server->CpuSeconds();
  for (ConnState& st : conns) {
    st.timed_bytes_sent = st.conn->bytes_sent();
    st.timed_bytes_received = st.conn->bytes_received();
  }
  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const double cap_w = args.seconds * spec.capacity_share / kRounds;
  const double lat_w = args.seconds * (1 - spec.capacity_share) / kRounds;
  struct Window {
    Clock::time_point start, end;
  };
  std::vector<Window> windows;  // capacity, latency, capacity, ...
  std::vector<double> window_rps;
  std::vector<std::vector<double>> window_all, window_reads, window_writes;
  std::vector<StatsSample> boundaries = {s0};
  const auto timed_start = Clock::now();
  windows.push_back({timed_start, timed_start + seconds(cap_w)});
  // A set-up of a throwaway server while the measured one idles, so that
  // set-up time is sampled across the whole run instead of in one burst at
  // its start. Its responses must equal the measured server's.
  const std::string side_dir = base + "/side";
  const std::vector<std::string> side_args =
      ServerArgs(spec, side_dir + "/data");
  auto side_set_up = [&] {
    std::filesystem::create_directories(side_dir);
    std::vector<ConnState> side(n);
    for (size_t c = 0; c < n; ++c) side[c].stream = conns[c].stream;
    std::string error;
    double s = 0;
    std::unique_ptr<ServerProcess> srv =
        SetUp(args.server, side_args, side_dir + "/server.log",
              spec.pipeline_depth, side, &s, &error);
    if (srv) {
      setup_s.push_back(s);
      srv->Kill();
      std::filesystem::remove_all(side_dir);
    } else {
      Note(&out, "side set-up: " + error);
      out.valid = false;
    }
    for (size_t c = 0; c < n; ++c) {
      ConnState& st = conns[c];
      st.attempted += side[c].attempted;
      st.failed += side[c].failed;
      for (const std::string& note : side[c].notes)
        if (st.notes.size() < 5) st.notes.push_back(note);
      if (srv && side[c].log.setup_hashes != st.log.setup_hashes)
        st.Fail("connection " + std::to_string(c) +
                ": set-up responses differ between two servers");
    }
  };
  // The machine's speed, sampled while the server idles: here and at every
  // window boundary.
  std::vector<double> reference_s = {ReferenceSample()};
  std::vector<double> boundary_cpu = {cpu_before};
  // Runs on one thread while every connection waits at the barrier: takes
  // the phase-boundary stats, the server's CPU time, a reference sample, a
  // side set-up sample and a recovery sample, closes the window, opens the
  // next.
  auto on_window_done = [&]() noexcept {
    boundaries.push_back(TakeStats(control, "stats-boundary"));
    boundary_cpu.push_back(server->CpuSeconds());
    reference_s.push_back(ReferenceSample());
    side_set_up();
    recovery_sample();
    const bool was_capacity = windows.size() % 2 == 1;
    const Window& w = windows.back();
    if (was_capacity) {
      uint64_t ok = 0;
      for (ConnState& st : conns) ok += std::exchange(st.capacity_ok, 0);
      window_rps.push_back(ThroughputRps(ok, w.start, w.end));
    } else {
      window_all.emplace_back();
      window_reads.emplace_back();
      window_writes.emplace_back();
      for (ConnState& st : conns) {
        for (auto [from, to] : {std::pair{&st.latency_ms, &window_all},
                                std::pair{&st.read_ms, &window_reads},
                                std::pair{&st.write_ms, &window_writes}}) {
          to->back().insert(to->back().end(), from->begin(), from->end());
          from->clear();
        }
      }
    }
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    windows.push_back(
        {start, start + seconds(was_capacity ? lat_w : cap_w)});
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(n), on_window_done);
  const double interval_s = static_cast<double>(n) / spec.latency_rate;
  std::vector<char> phases_ok(n, 1);
  auto drive = [&](size_t c) {
    ConnState& st = conns[c];
    for (size_t r = 0; r < kRounds; ++r) {
      if (!CapacityPhase(st, spec.pipeline_depth, windows.back().end))
        phases_ok[c] = 0;
      sync.arrive_and_wait();
      const Window w = windows.back();
      const auto offset = seconds(interval_s * c / n);
      if (!LatencyPhase(st, interval_s, w.start + offset, w.end))
        phases_ok[c] = 0;
      sync.arrive_and_wait();
    }
  };
  {
    std::vector<std::thread> threads;
    for (size_t c = 1; c < n; ++c) threads.emplace_back(drive, c);
    drive(0);
    for (auto& t : threads) t.join();
  }
  // One stderr line per window: executed requests per second, server CPU
  // per request, and the reference time taken right after it.
  for (size_t i = 1; i < boundaries.size(); ++i) {
    const double executed = boundaries[i].requests - boundaries[i - 1].requests;
    std::fprintf(
        stderr, "servebench: window %zu %s rps %.1f cpu_us %.1f ref_ms %.3f\n",
        i, i % 2 ? "cap" : "lat",
        executed / SecondsBetween(windows[i - 1].start, windows[i - 1].end),
        (boundary_cpu[i] - boundary_cpu[i - 1]) * 1e6 / executed,
        reference_s[i] * 1e3);
  }
  const StatsSample& s2 = boundaries.back();
  double timed_wall_s = 0;  // the windows, without the pauses between them
  for (size_t i = 0; i + 1 < windows.size(); ++i)
    timed_wall_s += SecondsBetween(windows[i].start, windows[i].end);
  const double cpu_after = server->CpuSeconds();
  for (ConnState& st : conns) {
    st.timed_bytes_sent = st.conn->bytes_sent() - st.timed_bytes_sent;
    st.timed_bytes_received =
        st.conn->bytes_received() - st.timed_bytes_received;
  }
  for (char ok : phases_ok)
    if (!ok) Note(&out, "a connection was lost during the timed phases");
  stage("timed phases");

  // ---- correctness probes, memory, crash-restart --------------------------
  for (ConnState& st : conns)
    RunChecks(st, *st.conn, st.stream->FinalChecks(), "eval");
  const double peak_rss_end_mb = server->PeakRssMb();
  for (ConnState& st : conns) st.conn.reset();

  if (spec.durable) {
    // Every acked write must be visible after a SIGKILL and restart.
    server->Kill();
    std::string error;
    server = ServerProcess::Spawn(args.server, server_args, log_path,
                                  kSpawnTimeout, &error);
    if (!server) {
      Note(&out, "restart: " + error);
      out.valid = false;
      return out;
    }
    std::unique_ptr<Connection> check = Connection::Open(server->port());
    if (!check) {
      conns[0].Fail("reconnect after restart failed");
    } else {
      for (ConnState& st : conns)
        RunChecks(st, *check, st.stream->DurabilityChecks(), "durability");
    }
  }
  if (!server->Terminate(std::chrono::seconds(30)))
    Note(&out, "server did not drain cleanly on SIGTERM");
  server.reset();

  stage("checks");

  // ---- the oracle: serial single-shard replay ----------------------------
  std::vector<WireLog> logs;
  for (ConnState& st : conns) logs.push_back(st.log);
  ReplayReport replay =
      Replay(logs, args.trace, spec.durable, base + "/probe-store");
  std::filesystem::remove_all(base);
  stage("replay");

  Absorb(conns, &out);
  out.failed += replay.mismatches;
  for (const std::string& note : replay.notes) Note(&out, note);

  // ---- end-to-end metrics --------------------------------------------------
  std::vector<double> all, reads, writes, lag;
  for (size_t r = 0; r < window_all.size(); ++r) {
    all.insert(all.end(), window_all[r].begin(), window_all[r].end());
    reads.insert(reads.end(), window_reads[r].begin(), window_reads[r].end());
    writes.insert(writes.end(), window_writes[r].begin(),
                  window_writes[r].end());
  }
  for (const ConnState& st : conns)
    lag.insert(lag.end(), st.lag_ms.begin(), st.lag_ms.end());
  // A percentile is the median over latency windows of each window's
  // percentile, so one window caught in a slow spell of the machine does not
  // set it. Where a window holds fewer than ten samples beyond the
  // percentile, it is taken over the pooled windows instead.
  auto window_pct = [](const std::vector<std::vector<double>>& windows,
                       const std::vector<double>& pooled,
                       double p) -> std::optional<double> {
    std::vector<double> per_window;
    for (const auto& w : windows) {
      std::optional<double> v = Percentile(w, p);
      if (!v) return Percentile(pooled, p);
      per_window.push_back(*v);
    }
    if (per_window.empty()) return std::nullopt;
    return Median(per_window);
  };
  auto e2e = [&out](const std::string& name, double v, const char* unit) {
    out.end_to_end.push_back({name, v, unit});
  };
  auto extra = [&out](const std::string& name, std::optional<double> v,
                      const char* unit) {
    if (v) out.extra.push_back({name, *v, unit});
  };
  if (peak_rss_mb <= 0 || peak_rss_end_mb <= 0) {
    Note(&out, "could not read the server's peak RSS");
    out.valid = false;
  }
  // The shared machine's speed drifts by half over tens of minutes, and the
  // server's times drift with it. Every time is therefore scaled to a
  // machine on which the reference work takes kReferenceSeconds of CPU.
  const double host = Median(reference_s) / kReferenceSeconds;
  // Server CPU per request over the timed phases.
  const double timed_requests = s2.requests - s0.requests;
  if (cpu_before < 0 || cpu_after <= cpu_before || timed_requests <= 0) {
    Note(&out, "could not read the server's CPU time");
    out.valid = false;
  }
  const double cpu_us_per_req =
      (cpu_after - cpu_before) * 1e6 / std::max(timed_requests, 1.0);
  e2e("setup_s", Median(setup_s) / host, "s");
  e2e("server_cpu_us_per_req", cpu_us_per_req / host, "us");
  e2e("peak_rss_mb", peak_rss_mb, "MiB");
  e2e("recovery_s", Median(recovery_s) / host, "s");
  // Throughput and latencies: printed on every run, but not gated. Even
  // scaled, they spread beyond any usable bound between runs of the same
  // code on a small shared machine (see README.md).
  const double error_rate =
      out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0;
  const std::vector<std::pair<std::string, std::optional<double>>> latencies = {
      {"latency_p50_ms", window_pct(window_all, all, 50)},
      {"latency_p90_ms", window_pct(window_all, all, 90)},
      {"latency_p99_ms", window_pct(window_all, all, 99)},
      {"read_p50_ms", window_pct(window_reads, reads, 50)},
      {"read_p90_ms", window_pct(window_reads, reads, 90)},
      {"read_p99_ms", window_pct(window_reads, reads, 99)},
      {"write_p50_ms", window_pct(window_writes, writes, 50)},
      {"write_p90_ms", window_pct(window_writes, writes, 90)},
      {"write_p99_ms", window_pct(window_writes, writes, 99)},
  };
  extra("throughput_rps", Median(window_rps) * host, "1/s");
  extra("host.reference_ms", Median(reference_s) * 1e3, "ms");
  extra("unscaled.setup_s", Median(setup_s), "s");
  extra("unscaled.throughput_rps", Median(window_rps), "1/s");
  extra("unscaled.server_cpu_us_per_req", cpu_us_per_req, "us");
  extra("unscaled.recovery_s", Median(recovery_s), "s");
  extra("peak_rss_end_mb", peak_rss_end_mb, "MiB");
  for (const auto& [name, v] : latencies) extra(name, v, "ms");
  extra("error_rate", error_rate, "ratio");
  extra("latency_samples", static_cast<double>(all.size()), "count");
  extra("read_samples", static_cast<double>(reads.size()), "count");
  extra("write_samples", static_cast<double>(writes.size()), "count");
  extra("latency_rate_rps", spec.latency_rate, "1/s");
  extra("driver.lag_p99_ms", Percentile(lag, 99), "ms");

  // ---- the per-layer ledger (traced run) ---------------------------------
  if (args.trace) {
    auto layer = [&out](const std::string& name, double v, const char* unit) {
      out.per_layer.push_back({name, v, unit});
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    // Counter deltas over both timed phases (idle probes excluded).
    auto d = [&](const char* key) { return s2.Get(key) - s0.Get(key); };
    const double requests = s2.requests - s0.requests;
    uint64_t req_bytes = 0, resp_bytes = 0, payload = 0, certified = 0;
    for (const ConnState& st : conns) {
      req_bytes += st.timed_bytes_sent;
      resp_bytes += st.timed_bytes_received;
      payload += st.write_payload_bytes;
      certified += st.certified;
    }
    std::vector<double> enq;
    for (size_t i = 0; i < s2.enqueued.size() && i < s0.enqueued.size(); ++i)
      enq.push_back(s2.enqueued[i] - s0.enqueued[i]);
    double enq_max = 0, enq_sum = 0, peak = 0;
    for (double e : enq) {
      enq_max = std::max(enq_max, e);
      enq_sum += e;
    }
    for (double p : s2.queue_peak) peak = std::max(peak, p);

    // serve
    layer("serve.ping_rtt_us", ping_us.empty() ? 0 : Median(ping_us), "us");
    const auto& idle = conns[0].idle_rtt_us;
    std::vector<double> idle_exec(
        replay.conn0_execute_us.begin(),
        replay.conn0_execute_us.begin() +
            std::min(idle.size(), replay.conn0_execute_us.size()));
    layer("serve.transport_us",
          idle.empty() || idle_exec.empty()
              ? 0
              : Median(idle) - Median(idle_exec),
          "us");
    layer("serve.queue_peak", peak, "count");
    layer("serve.shard_skew",
          enq.empty() ? 0 : ratio(enq_max, enq_sum / enq.size()), "ratio");
    layer("serve.overload_rejections", s2.rejected - s0.rejected, "count");
    layer("serve.requests", requests, "count");
    layer("serve.request_bytes_per_req", ratio(req_bytes, requests), "B");
    layer("serve.response_bytes_per_req", ratio(resp_bytes, requests), "B");
    // service, protocol, ir, analysis, rewriting, containment, eval, ivm,
    // store timings from the traced replay
    for (const Metric& m : replay.metrics) out.per_layer.push_back(m);
    // audit
    layer("audit.certified_requests", certified, "count");
    layer("audit.obligations", d("audit_obligations"), "count");
    layer("audit.obligations_per_req",
          ratio(d("audit_obligations"), certified), "count");
    // rewriting / containment
    layer("rewriting.candidates", d("rewrite_candidates"), "count");
    layer("rewriting.verified_rejects", d("rewrite_verified_rejects"),
          "count");
    layer("rewriting.candidates_per_req",
          ratio(d("rewrite_candidates"), requests), "count");
    layer("rewriting.reject_ratio",
          ratio(d("rewrite_verified_rejects"), d("rewrite_candidates")),
          "ratio");
    layer("containment.calls", d("containment_calls"), "count");
    layer("containment.calls_per_req",
          ratio(d("containment_calls"), requests), "count");
    layer("containment.hom_enumerations", d("hom_enumerations"), "count");
    layer("containment.hom_enumerations_per_call",
          ratio(d("hom_enumerations"), d("containment_calls")), "count");
    // engine cache
    layer("engine.containment_hits", d("containment_cache_hits"), "count");
    layer("engine.containment_misses", d("containment_cache_misses"),
          "count");
    layer("engine.containment_hit_rate",
          ratio(d("containment_cache_hits"),
                d("containment_cache_hits") + d("containment_cache_misses")),
          "ratio");
    // The same rate per phase, from the deltas across each window:
    // boundaries alternate capacity end, latency end.
    for (size_t phase = 0; phase < 2; ++phase) {
      double hits = 0, misses = 0;
      for (size_t i = phase + 1; i < boundaries.size(); i += 2) {
        hits += boundaries[i].Get("containment_cache_hits") -
                boundaries[i - 1].Get("containment_cache_hits");
        misses += boundaries[i].Get("containment_cache_misses") -
                  boundaries[i - 1].Get("containment_cache_misses");
      }
      layer(phase == 0 ? "engine.containment_hit_rate.capacity"
                       : "engine.containment_hit_rate.latency",
            ratio(hits, hits + misses), "ratio");
    }
    layer("engine.implication_hits", d("implication_cache_hits"), "count");
    layer("engine.implication_misses", d("implication_cache_misses"),
          "count");
    layer("engine.implication_hit_rate",
          ratio(d("implication_cache_hits"),
                d("implication_cache_hits") + d("implication_cache_misses")),
          "ratio");
    layer("engine.cache_evictions", d("cache_evictions"), "count");
    layer("engine.budget_exhaustions", d("budget_exhaustions"), "count");
    // plan
    layer("plan.decisions", d("plan_decisions"), "count");
    layer("plan.decisions_per_req", ratio(d("plan_decisions"), requests),
          "count");
    layer("plan.join_reorders", d("plan_join_reorders"), "count");
    layer("plan.unions_pruned", d("plan_unions_pruned"), "count");
    layer("plan.retunes", d("plan_retunes"), "count");
    // eval
    layer("eval.read_requests", replay.read_responses, "count");
    layer("eval.rows_out_per_req",
          ratio(replay.rows_out, replay.read_responses), "count");
    layer("eval.batches", d("eval_batches"), "count");
    layer("eval.batches_per_req",
          ratio(d("eval_batches"), replay.read_responses), "count");
    layer("eval.smallint_fallbacks", d("eval_smallint_fallbacks"), "count");
    layer("eval.smallint_fallback_ratio",
          ratio(d("eval_smallint_fallbacks"), d("eval_batches")), "ratio");
    // base (TaskPool)
    layer("parallel.sections", d("parallel_sections"), "count");
    layer("parallel.tasks_per_section",
          ratio(d("parallel_tasks"), d("parallel_sections")), "count");
    layer("parallel.wall_share",
          ratio(d("parallel_wall_ns") / 1e9,
                timed_wall_s * spec.shards),
          "ratio");
    // ivm
    layer("ivm.applies", d("ivm_applies"), "count");
    layer("ivm.incremental_applies", d("ivm_incremental_applies"), "count");
    layer("ivm.incremental_ratio",
          ratio(d("ivm_incremental_applies"), d("ivm_applies")), "ratio");
    layer("ivm.base_delta_tuples", d("ivm_base_delta_tuples"), "count");
    layer("ivm.view_delta_tuples", d("ivm_view_delta_tuples"), "count");
    layer("ivm.view_delta_per_base_delta",
          ratio(d("ivm_view_delta_tuples"), d("ivm_base_delta_tuples")),
          "ratio");
    layer("ivm.rebuild_fallbacks", d("ivm_rebuild_fallbacks"), "count");
    // store
    layer("store.records_appended", d("store_records_appended"), "count");
    layer("store.fsyncs", d("store_fsyncs"), "count");
    layer("store.fsyncs_per_record",
          ratio(d("store_fsyncs"), d("store_records_appended")), "ratio");
    layer("store.bytes_logged", d("store_bytes_logged"), "B");
    layer("store.user_bytes", static_cast<double>(payload), "B");
    layer("store.bytes_per_user_byte",
          ratio(d("store_bytes_logged"), payload), "ratio");
    layer("store.snapshots_written", d("store_snapshots_written"), "count");
    layer("store.recovery_replayed_records",
          recovered.Get("store_recovery_replayed_records"), "count");
    // the wire run's latencies (0 where a workload has no such request),
    // and the validity of the run
    layer("wire.throughput_rps", Median(window_rps) * host, "1/s");
    for (const auto& [name, v] : latencies)
      layer("wire." + name, v.value_or(0), "ms");
    layer("wire.latency_samples", static_cast<double>(all.size()), "count");
    layer("wire.read_samples", static_cast<double>(reads.size()), "count");
    layer("wire.write_samples", static_cast<double>(writes.size()), "count");
    layer("wire.error_rate", error_rate, "ratio");
    layer("driver.lag_p99_ms", Percentile(lag, 99).value_or(0), "ms");
    layer("host.reference_ms", Median(reference_s) * 1e3, "ms");
  }
  return out;
}

void PrintJson(const Outcome& o, bool trace) {
  const auto& metrics = trace ? o.per_layer : o.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              o.failed == 0 ? "true" : "false", o.attempted, o.failed);
  for (size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: servebench_driver --server PATH --workdir DIR "
               "--workload NAME --seed N --seconds S --trace 0|1\n"
               "       servebench_driver --self-test\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--self-test") return RunSelfTests();
    if (i + 1 >= argc) return Usage();
    std::string v = argv[++i];
    if (a == "--server") {
      args.server = v;
    } else if (a == "--workdir") {
      args.workdir = v;
    } else if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else {
      return Usage();
    }
  }
  if (!have_workload || args.server.empty() || args.workdir.empty() ||
      args.seconds <= 0)
    return Usage();
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Outcome o = Run(args);
  std::printf("servebench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);
  PrintTable("end-to-end:", o.end_to_end);
  PrintTable("also measured:", o.extra);
  if (args.trace) PrintTable("per-layer:", o.per_layer);
  for (const std::string& n : o.notes)
    std::fprintf(stderr, "servebench: %s\n", n.c_str());
  if (!o.valid) {
    std::fprintf(stderr, "servebench: run invalid, no result\n");
    return 3;
  }
  PrintJson(o, args.trace);
  return o.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
