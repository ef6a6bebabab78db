// The blocklist service provider S of Fig. 2: preprocesses the raw
// blocklist under a secret mask R into 2^lambda prefix buckets, answers
// blinded queries, and optionally publishes the prefix list so clients
// can resolve most negatives locally. Includes the authorized-key rate
// limiter the paper recommends against service-exhaustion attacks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/errors.h"
#include "common/thread_safety.h"
#include "common/rng.h"
#include "ec/ristretto.h"
#include "ec/scalar.h"
#include "obs/metrics.h"
#include "oprf/oracle.h"
#include "nizk/sigma.h"
#include "oprf/protocol.h"

namespace cbl::oprf {

/// Optional metadata source: maps a raw entry to plaintext metadata that
/// the server stores encrypted under a key only derivable by a client who
/// actually holds the listed entry (private-keyword-search-style
/// extension, Section IV-B "Support for metadata query").
using MetadataProvider = std::function<Bytes(const std::string& entry)>;

// Thread safety: handle() and the read accessors may run concurrently
// from many threads (the "considerable amount of users simultaneously"
// goal). Maintenance operations (setup / rotate_key / add_entries /
// remove_entries / set_metadata_provider) queue on update_mutex_, so they
// never overlap each other. Each one builds its new tables (hash-to-group,
// exponentiation, encoding, metadata sealing, bucket sort) with no
// exclusive lock held, then takes data_mutex_ exclusively only to move
// them in and bump the epoch: queries keep being answered from the
// previous epoch while a rotation builds.

// The mask R is the service's long-lived secret.
class OprfServer {
 public:
  OprfServer(Oracle oracle, unsigned lambda, Rng& rng);
  ~OprfServer();

  /// Data preprocessing (stage 1 of Fig. 2): samples a fresh mask R,
  /// blinds every entry and partitions into buckets. `num_threads` > 1
  /// parallelizes the exponentiations as in the paper's 8-core setup.
  /// Duplicate entries collapse to their first occurrence.
  void setup(std::span<const std::string> entries, unsigned num_threads = 1)
      CBL_EXCLUDES(update_mutex_, data_mutex_, rng_mutex_);

  /// Key rotation: new R, same data ("S can run this protocol in rotation
  /// whenever there is a demand for adjusting R"). Bumps the epoch, which
  /// invalidates client caches.
  void rotate_key(unsigned num_threads = 1)
      CBL_EXCLUDES(update_mutex_, data_mutex_, rng_mutex_);

  /// Incremental maintenance under the CURRENT mask R: blinds only the
  /// new entries (one exponentiation each) instead of re-running setup.
  /// Bumps the epoch once per call (bucket contents changed, so client
  /// caches must refresh). Returns how many entries were actually
  /// added/removed (duplicates and absentees are skipped).
  std::size_t add_entries(std::span<const std::string> entries)
      CBL_EXCLUDES(update_mutex_, data_mutex_);
  std::size_t remove_entries(std::span<const std::string> entries)
      CBL_EXCLUDES(update_mutex_, data_mutex_);
  bool serves(const std::string& entry) const CBL_EXCLUDES(data_mutex_) {
    cbl::ReaderMutexLock lock(data_mutex_);
    return entry_index_.contains(entry);
  }

  /// Online evaluation (stage 3 of Fig. 2). Throws ProtocolError on
  /// malformed queries or rate-limit violations.
  QueryResponse handle(const QueryRequest& request)
      CBL_EXCLUDES(data_mutex_, limiter_mutex_, rng_mutex_);

  /// Per-request outcome of evaluate_batch: handle()'s ProtocolError
  /// exits mapped to statuses so one bad request cannot abort a batch.
  struct BatchOutcome {
    enum class Status : std::uint8_t { kOk, kBadRequest, kRateLimited };
    Status status = Status::kBadRequest;
    /// The what() of the ProtocolError handle() would have thrown; empty
    /// on kOk.
    std::string error;
    QueryResponse response;  // populated only when status == kOk
  };

  /// Batched online evaluation, semantically identical to calling
  /// handle() per element — same responses byte-for-byte, same rate-limit
  /// accounting and validation outcomes — but all evaluations share one
  /// batched encode (RistrettoPoint::double_and_encode_batch over
  /// masked_i * (R/2)), paying a single field inversion for the whole
  /// batch instead of one inverse square root per query.
  std::vector<BatchOutcome> evaluate_batch(
      std::span<const QueryRequest> requests)
      CBL_EXCLUDES(data_mutex_, limiter_mutex_, rng_mutex_);

  /// The published key commitment g^R for the current epoch (the
  /// verifiable-OPRF anchor clients verify evaluation proofs against).
  /// Returned by value: a reference could be read mid-rotation while
  /// the install swaps in the next epoch's commitment.
  ec::RistrettoPoint key_commitment() const CBL_EXCLUDES(data_mutex_) {
    cbl::ReaderMutexLock lock(data_mutex_);
    return key_commitment_;
  }

  static constexpr std::string_view kEvalProofDomain =
      "cbl/oprf/evaluation-proof/v1";

  /// Sorted list of non-empty prefixes, for distribution to clients.
  std::vector<std::uint32_t> prefix_list() const CBL_EXCLUDES(data_mutex_);

  /// Snapshot of every non-empty bucket's blinded entries (sorted within
  /// each bucket), keyed by prefix. This is what the transparency-log
  /// publisher commits to per epoch; the encodings are public data — the
  /// same bytes any querying client receives in bucket responses.
  std::map<std::uint32_t, std::vector<ec::RistrettoPoint::Encoding>>
  bucket_snapshot() const CBL_EXCLUDES(data_mutex_);

  std::uint64_t epoch() const CBL_EXCLUDES(data_mutex_) {
    cbl::ReaderMutexLock lock(data_mutex_);
    return epoch_;
  }

  /// Crash-recovery support: raises the epoch to at least `floor`. A
  /// rebuilt server restarts epoch numbering from zero, so without this
  /// a recovered service could re-serve an epoch number that clients
  /// already cached buckets for — under a DIFFERENT mask R, turning the
  /// stale cache into silently wrong membership answers. Recovery code
  /// must call this with (last served epoch) before going live; the next
  /// setup/rotation then advances past every epoch ever served.
  void restore_epoch(std::uint64_t floor) CBL_EXCLUDES(data_mutex_);

  /// Installs a hook invoked (under the data write lock) with the new
  /// epoch number at every epoch change — rebuilds, add/remove batches,
  /// and restore_epoch. Recovery code points this at a durable
  /// store::EpochLog so the "never recycle a served epoch" floor
  /// survives a crash; the hook must not call back into the server.
  /// Installing also fires the hook with the current epoch when it is
  /// non-zero, so the floor covers epochs served before installation.
  void set_epoch_listener(std::function<void(std::uint64_t)> listener)
      CBL_EXCLUDES(data_mutex_);
  unsigned lambda() const { return lambda_; }
  std::size_t entry_count() const CBL_EXCLUDES(data_mutex_) {
    cbl::ReaderMutexLock lock(data_mutex_);
    return entry_index_.size();
  }

  struct BucketStats {
    std::size_t buckets_total = 0;      // 2^lambda
    std::size_t buckets_nonempty = 0;
    std::size_t min_size = 0;           // over non-empty buckets
    std::size_t max_size = 0;
    double avg_size = 0.0;              // over all 2^lambda buckets
    /// The k of k-anonymity: a query is hidden among the entries of its
    /// bucket, so the guarantee is the minimum non-empty bucket size.
    std::size_t k_anonymity = 0;
    std::size_t avg_response_bytes = 0;
  };
  BucketStats stats() const CBL_EXCLUDES(data_mutex_);

  /// Sizes of all non-empty buckets (input to anonymity analysis).
  std::vector<std::size_t> bucket_sizes() const CBL_EXCLUDES(data_mutex_);

  // --- Rate limiting (authorized keys) -----------------------------------
  // All limiter maintenance locks limiter_mutex_ so it is safe against a
  // concurrent handle()/evaluate_batch limiter pass.
  void enable_rate_limiting(std::uint32_t max_queries_per_window)
      CBL_EXCLUDES(limiter_mutex_);
  void authorize_key(const std::string& key) CBL_EXCLUDES(limiter_mutex_);
  void revoke_key(const std::string& key) CBL_EXCLUDES(limiter_mutex_);
  /// Starts a new accounting window (driven by the host's clock).
  void advance_window() CBL_EXCLUDES(limiter_mutex_);

  // --- Metadata extension -------------------------------------------------
  void set_metadata_provider(MetadataProvider provider)
      CBL_EXCLUDES(update_mutex_);

  /// Derives the symmetric key protecting entry metadata from the OPRF
  /// output F(R, entry) = H(entry)^R. Exposed so the client can derive
  /// the same key after unblinding.
  static std::array<std::uint8_t, 32> metadata_key(
      const ec::RistrettoPoint::Encoding& oprf_output);

  /// Encrypts/decrypts metadata under a key (ChaCha20 stream + HMAC tag).
  static Bytes seal_metadata(const std::array<std::uint8_t, 32>& key,
                             ByteView plaintext);
  static std::optional<Bytes> open_metadata(
      const std::array<std::uint8_t, 32>& key, ByteView ciphertext);

 private:
  struct Bucket {
    std::vector<ec::RistrettoPoint::Encoding> blinded;  // sorted
    std::vector<Bytes> metadata;                        // aligned with blinded
  };
  using Buckets = std::map<std::uint32_t, Bucket>;
  using EntryIndex = std::unordered_map<std::string, std::uint32_t>;

  /// One entry under some mask R: its bucket, its blinded value H(q)^R
  /// and, when a metadata provider is set, its sealed metadata.
  struct Blinded {
    std::uint32_t prefix = 0;
    ec::RistrettoPoint::Encoding value{};
    Bytes metadata;
  };

  /// Blinds `entries` under R = 2 * half_mask, sharding the
  /// exponentiations over `num_threads` (the bytes do not depend on the
  /// thread count). Touches no guarded state and takes no lock.
  std::vector<Blinded> blind(std::span<const std::string> entries,
                             const Secret<ec::Scalar>& half_mask,
                             const MetadataProvider& provider,
                             unsigned num_threads) const;
  /// The read and build steps of add_entries / remove_entries: picks
  /// the distinct `entries` (first occurrence each) that are `served`,
  /// or not, and copies the half mask, under the shared data lock; then
  /// blinds the picked entries under the current mask with no lock held.
  struct Picked {
    std::vector<std::string> entries;
    std::vector<Blinded> blinded;  // aligned with entries
  };
  Picked pick_and_blind(std::span<const std::string> entries, bool served,
                        const MetadataProvider& provider) const
      CBL_EXCLUDES(data_mutex_);
  /// Full preprocessing pass over entries_ under a fresh mask, shared by
  /// setup and rotate_key: builds mask, commitment and sorted buckets
  /// (plus the entry index when `reindex`) with no data lock held, then
  /// installs them under one short exclusive section timed into
  /// `write_lock_ms`.
  void preprocess(bool reindex, unsigned num_threads,
                  obs::Histogram& write_lock_ms) CBL_REQUIRES(update_mutex_)
      CBL_EXCLUDES(data_mutex_, rng_mutex_);
  /// Fires the epoch listener (if any) with the current epoch.
  void note_epoch_locked() CBL_REQUIRES(data_mutex_);

  const Oracle oracle_;  // stateless hash-to-group; safe to share
  const unsigned lambda_;

  // Taken first by every maintenance operation and held to its end.
  cbl::Mutex update_mutex_;  // lock: maintenance writers / entries_ / provider
  // The raw entry list and the metadata source are read only by
  // maintenance builds, so the writer mutex alone guards them.
  std::vector<std::string> entries_ CBL_GUARDED_BY(update_mutex_);
  MetadataProvider metadata_provider_ CBL_GUARDED_BY(update_mutex_);

  mutable cbl::SharedMutex data_mutex_;  // lock: buckets / mask / epoch
  // The mask R. half_mask_ is R * 2^-1 mod l, refreshed with mask_: the
  // batched encode kernel produces encodings of 2*P, so hot paths
  // exponentiate by R/2 and let double_and_encode_batch supply the
  // doubling.
  Secret<ec::Scalar> mask_ CBL_GUARDED_BY(data_mutex_);
  Secret<ec::Scalar> half_mask_ CBL_GUARDED_BY(data_mutex_);
  ec::RistrettoPoint key_commitment_ CBL_GUARDED_BY(data_mutex_);  // g^R
  std::uint64_t epoch_ CBL_GUARDED_BY(data_mutex_) = 0;
  /// Durability hook: told about every epoch change while the write
  /// lock is held, so the durable floor can never lag a served epoch.
  std::function<void(std::uint64_t)> epoch_listener_
      CBL_GUARDED_BY(data_mutex_);
  EntryIndex entry_index_ CBL_GUARDED_BY(data_mutex_);  // -> prefix
  Buckets buckets_ CBL_GUARDED_BY(data_mutex_);

  mutable cbl::Mutex limiter_mutex_;  // lock: rate-limiter config/counters
  // lock:unguarded(atomic on/off switch; the guarded limiter state below
  // is published before the release store that flips it on)
  std::atomic<bool> rate_limiting_{false};
  std::uint32_t max_per_window_ CBL_GUARDED_BY(limiter_mutex_) = 0;
  std::unordered_map<std::string, std::uint32_t> window_counts_
      CBL_GUARDED_BY(limiter_mutex_);
  std::unordered_map<std::string, bool> authorized_
      CBL_GUARDED_BY(limiter_mutex_);

  mutable cbl::Mutex rng_mutex_;  // lock: rng_ (evaluation-proof randomness)
  Rng& rng_ CBL_GUARDED_BY(rng_mutex_);

  // Observability handles (process-global cbl_oprf_* families, resolved
  // once in the constructor; see DESIGN.md "Observability").
  struct Metrics {
    obs::Counter* queries_ok;
    obs::Counter* queries_rate_limited;
    obs::Counter* queries_bad_request;
    obs::Counter* buckets_served;
    obs::Counter* buckets_omitted;  // client cache hits server-side
    obs::Counter* rebuilds;
    obs::Histogram* eval_ms;
    obs::Histogram* rebuild_ms;  // build phase, no exclusive lock held
    // Exclusive data_mutex_ hold time, one per table-changing op.
    obs::Histogram* write_lock_setup_ms;
    obs::Histogram* write_lock_rotate_ms;
    obs::Histogram* write_lock_add_ms;
    obs::Histogram* write_lock_remove_ms;
    obs::Histogram* bucket_size;
    obs::Gauge* entries;
    obs::Gauge* epoch;
    obs::Gauge* buckets_nonempty;
    obs::Gauge* k_anonymity;
  };
  // lock:unguarded(handles resolved once in the constructor; increments
  // are lock-free atomics)
  Metrics metrics_;
  /// Re-reads the table gauges under the shared data lock.
  void refresh_data_gauges() CBL_EXCLUDES(data_mutex_);
};

}  // namespace cbl::oprf
