// Group-commit query coalescing: concurrent callers blocked in serve()
// on the same shard are drained by one leader into a single
// OprfServer::evaluate_batch call, so N in-flight queries pay one
// batched encode (one field inversion) instead of N. The first caller
// to find a shard leaderless becomes the leader; everyone arriving
// while a batch is in flight queues up and is served by the next drain.
// An idle service degrades gracefully to batch size 1 — coalescing adds
// latency only when there is contention to amortize.
//
// Backpressure is shed-before-enqueue: a query arriving at a full shard
// queue is refused with kRateLimited (plus a retry hint) without ever
// occupying a batch slot or touching crypto. This is the service's one
// overload path: BlocklistServiceNode admits every frame and leaves
// shedding to the pipeline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/thread_safety.h"
#include "exec/worker_pool.h"
#include "net/service_node.h"
#include "oprf/server.h"

namespace cbl::net {

struct PipelineOptions {
  /// Independent coalescing queues; requests are spread by a hash of the
  /// (public) masked query. More shards = less leader contention but
  /// smaller batches.
  unsigned shards = 1;
  /// Max queries drained into one evaluate_batch call.
  std::size_t max_batch = 64;
  /// Per-shard bound on queries waiting for a leader; arrivals beyond it
  /// are shed with kRateLimited before enqueue.
  std::size_t max_queue = 256;
  /// Retry-after hint attached to pipeline sheds, in ms. 0 = none.
  std::uint32_t shed_retry_after_ms = 5;
  /// Optional pool for intra-batch parallelism: a large batch is split
  /// into per-worker sub-batches (deterministic slicing, see
  /// exec::parallel_for_chunks). Null = the leader thread does all the
  /// crypto itself.
  exec::WorkerPool* pool = nullptr;
};

/// Thread-safe batched serving front for an OprfServer. serve() may be
/// called concurrently from any number of threads; the underlying
/// server's own locking (shared data lock, limiter/rng mutexes) makes
/// the batched evaluations safe against concurrent rebuilds.
class QueryPipeline {
 public:
  QueryPipeline(oprf::OprfServer& server, PipelineOptions options);
  QueryPipeline(const QueryPipeline&) = delete;
  QueryPipeline& operator=(const QueryPipeline&) = delete;

  struct ServeResult {
    Status status = Status::kBadRequest;
    /// Serialized QueryResponse when status == kOk; empty otherwise.
    Bytes body;
    /// Backoff hint for pipeline-level sheds; 0 when the caller should
    /// fall back to its own hint (e.g. NodeLimits::retry_after_hint_ms).
    std::uint32_t retry_after_ms = 0;
  };

  /// Parses one query body, rides a crypto batch with whatever else is
  /// in flight on the same shard, and returns this query's result.
  /// Blocks the caller until its batch completes.
  ServeResult serve(ByteView query_body);

  const PipelineOptions& options() const { return options_; }

 private:
  /// One caller's slot in a shard queue. Lives on the caller's stack;
  /// every field (including `done` and `result`, written by the batch
  /// leader) is accessed only under the owning Shard's mutex — that
  /// convention can't be expressed as an annotation because the
  /// capability is not a member of Pending.
  struct Pending {
    const oprf::QueryRequest* request = nullptr;
    ServeResult result;
    bool done = false;
  };
  struct Shard {
    cbl::Mutex mutex;  // lock: queue, leadership, and every queued Pending
    std::condition_variable cv;
    std::deque<Pending*> queue CBL_GUARDED_BY(mutex);
    bool leader_active CBL_GUARDED_BY(mutex) = false;
  };

  std::size_t shard_of(const oprf::QueryRequest& request) const;
  /// Runs one evaluate_batch over `batch` and fills every result.
  /// Called without any shard lock held.
  void run_batch(std::vector<Pending*>& batch);

  oprf::OprfServer& server_;
  PipelineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  obs::Counter* enqueued_total_;
  obs::Counter* shed_total_;
  obs::Counter* batches_total_;
  obs::Counter* crypto_ns_total_;
  obs::Histogram* batch_size_;
  obs::Gauge* queue_depth_;
};

}  // namespace cbl::net
