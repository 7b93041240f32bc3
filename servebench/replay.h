// The in-process side of servebench: a serial single-shard replay of the
// exact request streams a wire run sent. It is both the correctness oracle
// (every response must be byte-identical to the wire's, the determinism
// contract of docs/architecture.md, clause 3) and, with tracing on, the
// source of the per-layer timings.
#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "servebench/common.h"
#include "servebench/workload.h"

namespace servebench {

/// What the wire run saw on one connection: a digest of every response,
/// and the request lines in the order they were sent.
struct WireLog {
  std::vector<std::string> setup_lines;
  std::vector<uint64_t> setup_hashes;
  std::vector<Op> run_ops;
  std::vector<uint64_t> run_hashes;
};

struct ReplayReport {
  uint64_t compared = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> notes;  // the first few mismatches, for the log
  /// Per-request service execute time (µs) of the run ops of connection
  /// 0, in stream order (traced replay only); feeds serve.transport_us.
  std::vector<double> conn0_execute_us;
  /// Sum of "count" over eval/answers responses and how many there were.
  uint64_t rows_out = 0;
  uint64_t read_responses = 0;
  std::vector<Metric> metrics;  // per-layer metrics (traced replay only)
};

/// Replays each connection of `logs` serially through its own in-process
/// single-shard Service and compares every response digest. With `trace`,
/// also replays every stream through one Service to time
/// Service::ExecuteParsed per op, repeats a prefix with the clocks off to
/// price them, and runs a probe pass that times each layer's public entry
/// points. `durable`
/// probes store appends under --fsync always in `scratch_dir`.
ReplayReport Replay(const std::vector<WireLog>& logs, bool trace,
                    bool durable, const std::string& scratch_dir);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
