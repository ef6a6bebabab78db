// The real query and update stack, wired the way a deployment would be:
// one shared OprfServer behind one QueryPipeline and one EpochPublisher,
// and per worker thread its own Transport, BlocklistServiceNode and
// ResilientClient (Transport and the node have no internal locking), with
// the client's transparency auditor persisted to a StateStore over MemFs.
// One more client, the mirror, sends no queries: it follows the
// transparency log after provider updates. A verified sync holds its
// client's lock throughout, so the mirror is a wallet of its own rather
// than one of the querying ones.
//
// run_level() drives one open-loop rate level through that stack: every
// worker walks its statically assigned arrival list, waits for each
// arrival's due time, and times the query from due time to verdict.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/query_pipeline.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "oprf/server.h"
#include "schedule.h"
#include "store/fs.h"
#include "store/state_store.h"
#include "tlog/publisher.h"
#include "trace.h"
#include "wrappers.h"

namespace wallbench {

inline constexpr unsigned kLambda = 12;

struct StackOptions {
  unsigned workers = 4;
  unsigned setup_threads = 4;
  bool traced = false;
  std::uint64_t seed = 1;
};

/// One worker thread's private slice of the stack. The pass-through
/// channel and fs wrappers are always present (their counters feed the
/// untraced metrics too); spans are recorded only in traced runs.
struct Worker {
  Worker(unsigned index, std::uint64_t seed);

  cbl::ChaChaRng transport_rng;
  cbl::ChaChaRng client_rng;
  cbl::net::Transport transport;
  TracingChannel channel{transport};  // spans only while tracing
  std::unique_ptr<cbl::net::BlocklistServiceNode> node;
  cbl::store::MemFs memfs;
  CountingFs fs{memfs};
  std::unique_ptr<cbl::store::StateStore> store;
  std::unique_ptr<cbl::net::ResilientClient> client;
  SpanLog log;
  std::uint64_t shed = 0;  // node-level sheds seen by the stage hook
};

/// Versions of the blocklist a query may legitimately observe: every
/// update that completed before it started, and any that had started
/// by the time it ended.
struct VersionClock {
  std::atomic<std::uint32_t> started{0};
  std::atomic<std::uint32_t> completed{0};
};

class QueryStack {
 public:
  /// Builds and connects everything: server set-up over the corpus's
  /// listed addresses, nodes, clients with their prefix lists, and each
  /// client's first verified transparency sync.
  QueryStack(const Corpus& corpus, const StackOptions& options);
  ~QueryStack();
  QueryStack(const QueryStack&) = delete;
  QueryStack& operator=(const QueryStack&) = delete;

  cbl::oprf::OprfServer& server() { return server_; }
  std::vector<std::unique_ptr<Worker>>& workers() { return workers_; }
  Worker& mirror() { return *mirror_; }
  const StackOptions& options() const { return options_; }

  /// Publishes the server's current epoch. The publisher has no internal
  /// locking, and nodes call it when serving checkpoints, so every
  /// publish and every client sync goes through this mutex.
  void publish();
  /// Runs the mirror client's sync() (a verified delta fold) under the
  /// publish mutex; returns its auditor's mirror epoch afterwards.
  std::uint64_t sync_mirror() { return sync(*mirror_); }

  static constexpr const char* kEndpoint = "provider";

 private:
  /// Builds worker `index`'s transport, node and connected client.
  std::unique_ptr<Worker> connect(unsigned index);
  std::uint64_t sync(Worker& worker);

  StackOptions options_;
  cbl::ChaChaRng server_rng_;
  cbl::ChaChaRng publisher_rng_;
  cbl::oprf::OprfServer server_;
  cbl::net::QueryPipeline pipeline_;
  std::unique_ptr<cbl::tlog::EpochPublisher> publisher_;
  std::mutex publish_mutex_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Worker> mirror_;
};

/// Decides whether a verdict was right for a query that observed
/// blocklist versions [lo, hi].
struct VerdictCheck {
  const Corpus* corpus = nullptr;
  const Truth* truth = nullptr;        // null: the set-up list never changes
  const VersionClock* versions = nullptr;

  bool correct(std::uint32_t address, bool listed, std::uint32_t lo,
               std::uint32_t hi) const;
};

struct QueryRecord {
  double latency_ms = 0.0;  // due time -> verdict
  double late_ms = 0.0;     // due time -> send
  double due_ms = 0.0;      // due time, from the level's start
  std::uint32_t backlog = 0;  // this worker's due-but-unsent queries
  unsigned attempts = 0;
  bool fresh = false;
  bool wrong = false;
  bool unknown = false;  // no verdict at all (kUnavailable)
  bool listed = false;   // the verdict
  bool held = false;     // waited for the update that adds its address
  std::uint32_t address = 0;
};

struct LevelRun {
  double rate_qps = 0.0;
  std::vector<QueryRecord> records;  // every query of the level
  std::uint64_t wire_bytes = 0;      // request + response, all workers
  double wall_s = 0.0;
};

/// Runs `body(i)` for i in [0, count) on one thread each and joins
/// them; an exception on any thread is carried out and rethrown after
/// the join.
void run_threads(std::size_t count,
                 const std::function<void(std::size_t)>& body);

/// Runs one open-loop level on the stack's workers; returns when every
/// worker has sent and finished its last query. `side`, when set, runs
/// on one more thread alongside the workers and gets the level's start
/// time (due times are offsets from it); it is joined with them.
LevelRun run_level(QueryStack& stack, const LevelPlan& plan,
                   const VerdictCheck& check,
                   const std::function<void(std::int64_t)>& side = {});

/// Runs one closed-loop segment on the first `active` workers: each
/// sends its next query as soon as the last one returns, until
/// `duration_ns` has passed. Worker w draws its addresses from the
/// seeded stream "closed<segment>/<w>". A record's latency is its
/// service time (send to verdict) and its due time is its send time;
/// wall_s runs to the last verdict. No spans are recorded.
LevelRun run_closed(QueryStack& stack, const VerdictCheck& check,
                    unsigned active, std::int64_t duration_ns,
                    std::uint64_t seed, std::size_t segment);

}  // namespace wallbench
