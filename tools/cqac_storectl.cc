// cqac_storectl — offline inspector for a cqac_serve --data-dir.
//
// Usage:
//   cqac_storectl inspect <dir>   list snapshots + log records per shard
//   cqac_storectl verify  <dir>   fully recover every shard in-process;
//                                 exit 1 if any shard fails to recover
//   cqac_storectl compact <dir>   recover, write a fresh snapshot, and
//                                 compact each shard's log to a barrier
//
// <dir> is either a data dir (holds MANIFEST + shard-<i>/ subdirs) or one
// shard dir (holds a `wal` file directly). Never run compact against a
// live server: the store is single-writer by design.
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/engine/context.h"
#include "src/store/log.h"
#include "src/store/snapshot.h"
#include "src/store/store.h"

namespace cqac {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cqac_storectl <inspect|verify|compact> <dir>\n"
               "  <dir> is a --data-dir (with MANIFEST) or one shard dir\n");
  return 3;
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

struct ShardRef {
  uint32_t index = 0;
  std::string dir;
};

/// Resolves <dir> to the shard directories it covers. A MANIFEST makes it a
/// data dir; a `wal` file makes it a single shard dir.
Result<std::vector<ShardRef>> ResolveShards(const std::string& dir) {
  std::vector<ShardRef> out;
  if (Exists(dir + "/MANIFEST")) {
    Result<uint32_t> shards = store::ManifestShards(dir);
    CQAC_RETURN_IF_ERROR(shards.status());
    for (uint32_t i = 0; i < shards.value(); ++i)
      out.push_back({i, store::ShardDirPath(dir, i)});
    return out;
  }
  if (Exists(dir + "/wal")) {
    Result<store::LogContents> log = store::ReadLog(dir + "/wal");
    CQAC_RETURN_IF_ERROR(log.status());
    out.push_back({log.value().shard_index, dir});
    return out;
  }
  return Status::NotFound(
      "neither a MANIFEST nor a wal file in " + dir +
      " (expected a --data-dir or one shard directory)");
}

int Inspect(const std::vector<ShardRef>& shards) {
  int rc = 0;
  for (const ShardRef& shard : shards) {
    std::printf("shard %u (%s)\n", shard.index, shard.dir.c_str());
    Result<std::vector<std::pair<uint64_t, std::string>>> snaps =
        store::ListSnapshots(shard.dir);
    if (!snaps.ok()) {
      std::printf("  snapshots: ERROR %s\n",
                  snaps.status().ToString().c_str());
      rc = 1;
    } else {
      for (const auto& [lsn, path] : snaps.value())
        std::printf("  snapshot lsn=%llu  %s\n",
                    static_cast<unsigned long long>(lsn), path.c_str());
      if (snaps.value().empty()) std::printf("  snapshots: none\n");
    }
    std::string wal = shard.dir + "/wal";
    if (!Exists(wal)) {
      std::printf("  wal: none\n");
      continue;
    }
    Result<store::LogContents> log = store::ReadLog(wal);
    if (!log.ok()) {
      std::printf("  wal: ERROR %s\n", log.status().ToString().c_str());
      rc = 1;
      continue;
    }
    uint64_t last_lsn = 0;
    size_t by_type[7] = {0};
    for (const store::LogRecord& r : log.value().records) {
      last_lsn = r.lsn;
      by_type[static_cast<size_t>(r.type)] += 1;
    }
    std::printf("  wal: %zu records, last lsn=%llu%s\n",
                log.value().records.size(),
                static_cast<unsigned long long>(last_lsn),
                log.value().truncated_tail ? ", TORN TAIL (truncated)" : "");
    for (size_t t = 1; t <= 6; ++t)
      if (by_type[t] > 0)
        std::printf("    %-16s %zu\n",
                    store::RecordTypeName(static_cast<store::RecordType>(t)),
                    by_type[t]);
  }
  return rc;
}

int Verify(const std::vector<ShardRef>& shards) {
  int rc = 0;
  for (const ShardRef& shard : shards) {
    EngineContext ctx;
    Result<store::RecoveredShard> r = store::RecoverShard(ctx, shard.dir);
    if (!r.ok()) {
      std::printf("shard %u: FAIL %s\n", shard.index,
                  r.status().ToString().c_str());
      rc = 1;
      continue;
    }
    std::printf(
        "shard %u: ok — %zu sessions, snapshot lsn=%llu, %llu tail records "
        "replayed%s\n",
        shard.index, r.value().sessions.size(),
        static_cast<unsigned long long>(r.value().snapshot_lsn),
        static_cast<unsigned long long>(r.value().replayed_records),
        r.value().wal_tail_truncated ? ", torn tail truncated" : "");
  }
  return rc;
}

int Compact(const std::string& dir, const std::vector<ShardRef>& shards,
            bool is_data_dir) {
  int rc = 0;
  for (const ShardRef& shard : shards) {
    EngineContext ctx;
    Result<store::RecoveredShard> r = store::RecoverShard(ctx, shard.dir);
    if (!r.ok()) {
      std::printf("shard %u: FAIL %s\n", shard.index,
                  r.status().ToString().c_str());
      rc = 1;
      continue;
    }
    // Open against the directory that CONTAINS the shard dir so
    // ShardStore's "<data_dir>/shard-<i>" layout resolves to shard.dir.
    std::string parent =
        is_data_dir ? dir : shard.dir.substr(0, shard.dir.rfind('/'));
    store::StoreOptions options;
    options.fsync = store::FsyncPolicy::kAlways;
    // Shard count: the MANIFEST is authoritative in data-dir mode (a shard
    // dir may hold no WAL yet); single-shard-dir mode reads the WAL header.
    uint32_t shard_count = 1;
    if (is_data_dir) {
      Result<uint32_t> manifest = store::ManifestShards(dir);
      if (!manifest.ok()) {
        std::printf("shard %u: FAIL %s\n", shard.index,
                    manifest.status().ToString().c_str());
        rc = 1;
        continue;
      }
      shard_count = manifest.value();
    } else {
      Result<store::LogContents> log = store::ReadLog(shard.dir + "/wal");
      if (log.ok()) shard_count = log.value().shard_count;
    }
    Result<std::unique_ptr<store::ShardStore>> st = store::ShardStore::Open(
        parent, shard.index, shard_count, options, &ctx);
    if (!st.ok()) {
      std::printf("shard %u: FAIL %s\n", shard.index,
                  st.status().ToString().c_str());
      rc = 1;
      continue;
    }
    std::vector<store::SessionSnapshotRef> refs;
    refs.reserve(r.value().sessions.size());
    for (const auto& s : r.value().sessions) refs.push_back(s->SnapshotRef());
    Status wrote = st.value()->WriteSnapshot(ctx.adaptive(), refs);
    if (!wrote.ok()) {
      std::printf("shard %u: FAIL %s\n", shard.index,
                  wrote.ToString().c_str());
      rc = 1;
      continue;
    }
    if (st.value()->last_lsn() == 0) {
      std::printf("shard %u: empty — nothing to compact\n", shard.index);
      continue;
    }
    std::printf("shard %u: compacted — snapshot lsn=%llu, %zu sessions\n",
                shard.index,
                static_cast<unsigned long long>(st.value()->last_lsn()),
                refs.size());
  }
  return rc;
}

int Run(int argc, char** argv) {
  if (argc != 3) return Usage();
  std::string cmd = argv[1];
  std::string dir = argv[2];
  if (cmd != "inspect" && cmd != "verify" && cmd != "compact") return Usage();

  Result<std::vector<ShardRef>> shards = ResolveShards(dir);
  if (!shards.ok()) {
    std::fprintf(stderr, "cqac_storectl: %s\n",
                 shards.status().ToString().c_str());
    return 2;
  }
  if (cmd == "inspect") return Inspect(shards.value());
  if (cmd == "verify") return Verify(shards.value());
  return Compact(dir, shards.value(), Exists(dir + "/MANIFEST"));
}

}  // namespace
}  // namespace cqac

int main(int argc, char** argv) { return cqac::Run(argc, argv); }
