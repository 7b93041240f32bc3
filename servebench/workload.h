// Seeded request streams for the three servebench workloads.
//
// A workload is a fixed server configuration plus one request stream per
// client connection. Every session is bound to one connection, so a
// session's requests reach the server in stream order. Streams are a pure
// function of (workload, seed): the server only ever sees the generated
// request lines, and the driver's serial replay regenerates the identical
// stream to check every response.
#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace servebench {

enum class OpClass { kRead, kWrite };

/// One request of a stream.
struct Op {
  std::string line;  // the request line, without the trailing newline
  std::string op;    // its "op" field
  OpClass cls = OpClass::kRead;
  bool certify = false;  // carries "certify": true (audit must pass)
  size_t payload_bytes = 0;  // user bytes of a write: its fact text
};

/// A post-run correctness probe: an `eval` request whose "tuples" field
/// must equal `expected_tuples`, computed by EvaluateQueryReference over the
/// driver's own fact ledger.
struct Check {
  std::string line;
  std::string expected_tuples;
};

/// The server configuration and load shape of a workload.
struct WorkloadSpec {
  std::string name;
  size_t shards = 1;
  size_t threads = 0;
  bool durable = false;  // --data-dir with --fsync interval
  size_t connections = 4;
  size_t pipeline_depth = 8;  // requests in flight per connection, capacity
  double latency_rate = 1000;  // open-loop requests/s over all connections
  double capacity_share = 0.35;  // of the measured seconds; rest is latency
  // Requests per connection sent closed-loop after set-up and before the
  // timed phases. A fixed count, so the memory the server holds after it
  // does not depend on how fast the machine ran.
  size_t warmup_requests = 2500;
};

/// The request stream of one connection. Next() may be called without
/// bound; two streams built from the same seed yield identical lines.
class ConnectionStream {
 public:
  virtual ~ConnectionStream() = default;
  /// Views and base facts, loaded before any timed phase.
  const std::vector<std::string>& setup() const { return setup_; }
  /// The next request of the timed phases.
  virtual Op Next() = 0;
  /// Correctness probes over this connection's sessions, valid for the
  /// state after every request returned by Next() so far.
  virtual std::vector<Check> FinalChecks() { return {}; }
  /// Probes that read back every live base tuple (the durability check
  /// after a crash-restart); empty for workloads without a data dir.
  virtual std::vector<Check> DurabilityChecks() { return {}; }
  /// A single-tuple write to this connection's session on `shard`, or
  /// nullopt when there is none. Lets the driver fill each shard's WAL to
  /// a fixed length before it measures recovery.
  virtual std::optional<Op> NextWriteOnShard(size_t /*shard*/) {
    return std::nullopt;
  }

 protected:
  std::string NextId() { return std::to_string(next_id_++); }
  std::vector<std::string> setup_;

 private:
  uint64_t next_id_ = 0;
};

struct Workload {
  WorkloadSpec spec;
  std::vector<std::unique_ptr<ConnectionStream>> streams;
  /// Responses met while building the streams that signal a defect: an
  /// audit that failed, or an error the engine does not declare for such
  /// input. Each one fails the run; none is dropped silently.
  std::vector<std::string> defects;
};

/// The names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds `name`'s streams from `seed`; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
