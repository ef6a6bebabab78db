#include "oprf/server.h"

#include <algorithm>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "exec/worker_pool.h"
#include "hash/sha256.h"

namespace cbl::oprf {

namespace {

// 2^-1 mod l: hot paths exponentiate by R/2 and let the batched encode
// kernel supply the doubling (see RistrettoPoint::double_and_encode_batch).
const ec::Scalar& inv_two() {
  static const ec::Scalar v = ec::Scalar::from_u64(2).invert();
  return v;
}

/// Observes its own lifetime, in ms. Declared right after a
/// WriterMutexLock, it is destroyed first and so times the hold, not
/// the wait to acquire.
struct WriteLockTimer {
  obs::Histogram& histogram;
  std::uint64_t t0 = obs::MetricsRegistry::global().clock().now_ns();
  ~WriteLockTimer() {
    const auto& clock = obs::MetricsRegistry::global().clock();
    histogram.observe(static_cast<double>(clock.now_ns() - t0) / 1e6);
  }
};

}  // namespace

OprfServer::OprfServer(Oracle oracle, unsigned lambda, Rng& rng)
    : oracle_(oracle), lambda_(lambda), rng_(rng) {
  if (lambda == 0 || lambda > 32) {
    throw std::invalid_argument("OprfServer: lambda must be in [1,32]");
  }
  auto& reg = obs::MetricsRegistry::global();
  const auto query_counter = [&](const char* result) {
    return &reg.counter("cbl_oprf_queries_total", {{"result", result}},
                        "Online OPRF evaluations by outcome");
  };
  metrics_.queries_ok = query_counter("ok");
  metrics_.queries_rate_limited = query_counter("rate_limited");
  metrics_.queries_bad_request = query_counter("bad_request");
  metrics_.buckets_served =
      &reg.counter("cbl_oprf_buckets_served_total", {},
                   "Query responses that carried the full bucket");
  metrics_.buckets_omitted =
      &reg.counter("cbl_oprf_buckets_omitted_total", {},
                   "Query responses elided thanks to the client cache hint");
  metrics_.rebuilds = &reg.counter(
      "cbl_oprf_rebuilds_total", {},
      "Full preprocessing passes (setup and key rotations)");
  metrics_.eval_ms = &reg.histogram(
      "cbl_oprf_eval_ms", obs::Histogram::default_latency_ms_buckets(), {},
      "Server-side oblivious evaluation time per query");
  metrics_.rebuild_ms = &reg.histogram(
      "cbl_oprf_rebuild_ms", obs::Histogram::default_latency_ms_buckets(), {},
      "Build phase of setup and key rotation (new mask, blinding, metadata "
      "sealing, bucket sort), run outside the exclusive data lock");
  const auto write_lock_histogram = [&](const char* op) {
    return &reg.histogram(
        "cbl_oprf_write_lock_ms", obs::Histogram::default_latency_ms_buckets(),
        {{"op", op}},
        "Exclusive data-lock hold time per table-changing maintenance op");
  };
  metrics_.write_lock_setup_ms = write_lock_histogram("setup");
  metrics_.write_lock_rotate_ms = write_lock_histogram("rotate");
  metrics_.write_lock_add_ms = write_lock_histogram("add");
  metrics_.write_lock_remove_ms = write_lock_histogram("remove");
  metrics_.bucket_size = &reg.histogram(
      "cbl_oprf_bucket_size", obs::Histogram::log_buckets(1.0, 1e6, 3), {},
      "Non-empty bucket sizes at each rebuild (the k of k-anonymity)");
  metrics_.entries =
      &reg.gauge("cbl_oprf_entries", {}, "Blocklist entries currently served");
  metrics_.epoch = &reg.gauge("cbl_oprf_epoch", {}, "Current key epoch");
  metrics_.buckets_nonempty =
      &reg.gauge("cbl_oprf_buckets_nonempty", {}, "Non-empty prefix buckets");
  metrics_.k_anonymity = &reg.gauge(
      "cbl_oprf_k_anonymity", {}, "Minimum non-empty bucket size");
}

OprfServer::~OprfServer() {
  mask_.wipe();
  half_mask_.wipe();
}

void OprfServer::refresh_data_gauges() {
  ReaderMutexLock lock(data_mutex_);
  metrics_.entries->set(static_cast<double>(entry_index_.size()));
  metrics_.epoch->set(static_cast<double>(epoch_));
  metrics_.buckets_nonempty->set(static_cast<double>(buckets_.size()));
  std::size_t min_size = 0;
  for (const auto& [prefix, bucket] : buckets_) {
    const std::size_t n = bucket.blinded.size();
    min_size = min_size == 0 ? n : std::min(min_size, n);
  }
  metrics_.k_anonymity->set(static_cast<double>(min_size));
}

void OprfServer::setup(std::span<const std::string> entries,
                       unsigned num_threads) {
  MutexLock update(update_mutex_);
  // A duplicate would sit in its bucket as a second element that
  // remove_entries never reaches, and would inflate the bucket's k.
  entries_.clear();
  std::unordered_set<std::string_view> seen;
  for (const auto& entry : entries) {
    if (seen.insert(entry).second) entries_.push_back(entry);
  }
  preprocess(/*reindex=*/true, num_threads, *metrics_.write_lock_setup_ms);
}

void OprfServer::rotate_key(unsigned num_threads) {
  MutexLock update(update_mutex_);
  // The entry -> prefix index does not depend on the mask.
  preprocess(/*reindex=*/false, num_threads, *metrics_.write_lock_rotate_ms);
}

void OprfServer::restore_epoch(std::uint64_t floor) {
  {
    WriterMutexLock lock(data_mutex_);
    if (epoch_ >= floor) return;
    epoch_ = floor;
    note_epoch_locked();
  }
  refresh_data_gauges();
}

void OprfServer::set_epoch_listener(
    std::function<void(std::uint64_t)> listener) {
  WriterMutexLock lock(data_mutex_);
  epoch_listener_ = std::move(listener);
  // Cover epochs served before the hook existed.
  if (epoch_ > 0) note_epoch_locked();
}

void OprfServer::note_epoch_locked() {
  if (epoch_listener_) epoch_listener_(epoch_);
}

std::vector<OprfServer::Blinded> OprfServer::blind(
    std::span<const std::string> entries, const Secret<ec::Scalar>& half_mask,
    const MetadataProvider& provider, unsigned num_threads) const {
  // b = H(q)^R, computed as H(q)^(R/2) batch-doubled so each chunk pays
  // one field inversion instead of one per entry. The exponentiations
  // dominate, so chunks are sharded over worker threads
  // (exec::parallel_for_chunks slices by index only).
  std::vector<Blinded> out(entries.size());
  auto work = [&](std::size_t begin, std::size_t end) {
    std::vector<Bytes> raw(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      raw[i - begin] = to_bytes(entries[i]);
    }
    const auto hashed = oracle_.map_to_group_batch(raw);
    std::vector<ec::RistrettoPoint> halves(hashed.size());
    for (std::size_t j = 0; j < hashed.size(); ++j) {
      halves[j] = hashed[j] * half_mask;
    }
    const auto encodings =
        ec::RistrettoPoint::double_and_encode_batch(halves);
    for (std::size_t j = 0; j < encodings.size(); ++j) {
      out[begin + j].value = encodings[j];
      out[begin + j].prefix = Oracle::prefix(raw[j], lambda_);
    }
  };
  exec::parallel_for_chunks(nullptr, entries.size(), num_threads, work);
  // The provider is caller code with no thread-safety promise: seal on
  // this thread only.
  if (provider) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].metadata =
          seal_metadata(metadata_key(out[i].value), provider(entries[i]));
    }
  }
  return out;
}

void OprfServer::preprocess(bool reindex, unsigned num_threads,
                            obs::Histogram& write_lock_ms) {
  const auto& clock = obs::MetricsRegistry::global().clock();
  const std::uint64_t t0 = clock.now_ns();
  Secret<ec::Scalar> mask;
  {
    // The evaluation proofs draw from the same DRBG.
    MutexLock rng_lock(rng_mutex_);
    mask = Secret(ec::Scalar::random(rng_));
  }
  Secret<ec::Scalar> half_mask = mask * inv_two();
  const ec::RistrettoPoint commitment = ec::RistrettoPoint::base() * mask;

  auto blinded = blind(entries_, half_mask, metadata_provider_, num_threads);
  Buckets buckets;
  EntryIndex index;
  for (std::size_t i = 0; i < blinded.size(); ++i) {
    if (reindex) index.emplace(entries_[i], blinded[i].prefix);
    Bucket& bucket = buckets[blinded[i].prefix];
    bucket.blinded.push_back(blinded[i].value);
    if (metadata_provider_) {
      bucket.metadata.push_back(std::move(blinded[i].metadata));
    }
  }
  // Sort each bucket (with metadata riding along) for binary search and
  // for a canonical wire representation.
  for (auto& [prefix, bucket] : buckets) {
    std::vector<std::size_t> order(bucket.blinded.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return bucket.blinded[a] < bucket.blinded[b];
    });
    Bucket sorted;
    sorted.blinded.reserve(order.size());
    for (const std::size_t i : order) {
      sorted.blinded.push_back(bucket.blinded[i]);
      if (!bucket.metadata.empty()) {
        sorted.metadata.push_back(std::move(bucket.metadata[i]));
      }
    }
    bucket = std::move(sorted);
  }
  metrics_.rebuilds->inc();
  metrics_.rebuild_ms->observe(
      static_cast<double>(clock.now_ns() - t0) / 1e6);
  for (const auto& [prefix, bucket] : buckets) {
    metrics_.bucket_size->observe(
        static_cast<double>(bucket.blinded.size()));
  }

  {
    WriterMutexLock lock(data_mutex_);
    const WriteLockTimer timer{write_lock_ms};
    mask_ = std::move(mask);
    half_mask_ = std::move(half_mask);
    key_commitment_ = commitment;
    buckets_.swap(buckets);
    if (reindex) entry_index_.swap(index);
    ++epoch_;
    note_epoch_locked();
  }
  // `buckets` and `index` now hold the previous epoch's tables; they
  // are freed on return, outside the lock.
  refresh_data_gauges();
}

QueryResponse OprfServer::handle(const QueryRequest& request) {
  auto& registry = obs::MetricsRegistry::global();
  const bool observing = registry.enabled();
  if (rate_limiting_.load(std::memory_order_acquire)) {
    MutexLock limiter_lock(limiter_mutex_);
    const auto it = authorized_.find(request.api_key);
    if (it == authorized_.end() || !it->second) {
      metrics_.queries_rate_limited->inc();
      throw ProtocolError("OprfServer: unauthorized api key");
    }
    if (++window_counts_[request.api_key] > max_per_window_) {
      metrics_.queries_rate_limited->inc();
      throw ProtocolError("OprfServer: rate limit exceeded");
    }
  }
  ReaderMutexLock lock(data_mutex_);
  if (request.prefix >> lambda_ != 0) {
    metrics_.queries_bad_request->inc();
    throw ProtocolError("OprfServer: prefix out of range for lambda");
  }
  const auto masked = ec::RistrettoPoint::decode(request.masked_query);
  if (!masked) {
    metrics_.queries_bad_request->inc();
    throw ProtocolError("OprfServer: malformed masked query");
  }

  const std::uint64_t t0 = observing ? registry.clock().now_ns() : 0;
  QueryResponse response;
  const ec::RistrettoPoint evaluated = *masked * mask_;
  response.evaluated = evaluated.encode();
  response.epoch = epoch_;
  if (request.want_evaluation_proof) {
    MutexLock rng_lock(rng_mutex_);
    response.evaluation_proof = nizk::DleqProof::prove(
        ec::RistrettoPoint::base(), key_commitment_, *masked, evaluated,
        mask_.expose_secret(), kEvalProofDomain, rng_);
  }
  if (observing) {
    metrics_.eval_ms->observe(
        static_cast<double>(registry.clock().now_ns() - t0) / 1e6);
  }
  metrics_.queries_ok->inc();

  if (request.cached_epoch == epoch_) {
    response.bucket_omitted = true;
    metrics_.buckets_omitted->inc();
    return response;
  }
  metrics_.buckets_served->inc();
  const auto it = buckets_.find(request.prefix);
  if (it != buckets_.end()) {
    response.bucket = it->second.blinded;
    response.metadata = it->second.metadata;
  }
  return response;
}

std::vector<OprfServer::BatchOutcome> OprfServer::evaluate_batch(
    std::span<const QueryRequest> requests) {
  auto& registry = obs::MetricsRegistry::global();
  const bool observing = registry.enabled();
  std::vector<BatchOutcome> out(requests.size());

  const auto fail = [&](std::size_t i, BatchOutcome::Status status,
                        const char* what) {
    out[i].status = status;
    out[i].error = what;
    (status == BatchOutcome::Status::kRateLimited
         ? metrics_.queries_rate_limited
         : metrics_.queries_bad_request)
        ->inc();
  };

  if (rate_limiting_.load(std::memory_order_acquire)) {
    // One limiter pass for the whole batch, with the same per-request
    // accounting handle() performs.
    MutexLock limiter_lock(limiter_mutex_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto it = authorized_.find(requests[i].api_key);
      if (it == authorized_.end() || !it->second) {
        fail(i, BatchOutcome::Status::kRateLimited,
             "OprfServer: unauthorized api key");
      } else if (++window_counts_[requests[i].api_key] > max_per_window_) {
        fail(i, BatchOutcome::Status::kRateLimited,
             "OprfServer: rate limit exceeded");
      } else {
        out[i].status = BatchOutcome::Status::kOk;  // provisional
      }
    }
  } else {
    for (auto& o : out) o.status = BatchOutcome::Status::kOk;
  }

  ReaderMutexLock lock(data_mutex_);
  std::vector<std::size_t> live;
  std::vector<ec::RistrettoPoint> masked_points;
  live.reserve(requests.size());
  masked_points.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (out[i].status != BatchOutcome::Status::kOk) continue;
    if (requests[i].prefix >> lambda_ != 0) {
      fail(i, BatchOutcome::Status::kBadRequest,
           "OprfServer: prefix out of range for lambda");
      continue;
    }
    const auto masked = ec::RistrettoPoint::decode(requests[i].masked_query);
    if (!masked) {
      fail(i, BatchOutcome::Status::kBadRequest,
           "OprfServer: malformed masked query");
      continue;
    }
    live.push_back(i);
    masked_points.push_back(*masked);
  }

  // The crypto core: all exponentiations use R/2, the shared batched
  // encode doubles them back to psi_i = masked_i^R.
  const std::uint64_t t0 = observing ? registry.clock().now_ns() : 0;
  std::vector<ec::RistrettoPoint> halves;
  halves.reserve(live.size());
  for (const auto& m : masked_points) halves.push_back(m * half_mask_);
  const auto encodings = ec::RistrettoPoint::double_and_encode_batch(halves);
  if (observing && !live.empty()) {
    const double per_query_ms =
        static_cast<double>(registry.clock().now_ns() - t0) / 1e6 /
        static_cast<double>(live.size());
    for (std::size_t k = 0; k < live.size(); ++k) {
      metrics_.eval_ms->observe(per_query_ms);
    }
  }

  for (std::size_t k = 0; k < live.size(); ++k) {
    const std::size_t i = live[k];
    const QueryRequest& request = requests[i];
    QueryResponse& response = out[i].response;
    response.evaluated = encodings[k];
    response.epoch = epoch_;
    if (request.want_evaluation_proof) {
      const ec::RistrettoPoint evaluated = halves[k] + halves[k];
      MutexLock rng_lock(rng_mutex_);
      response.evaluation_proof = nizk::DleqProof::prove(
          ec::RistrettoPoint::base(), key_commitment_, masked_points[k],
          evaluated, mask_.expose_secret(), kEvalProofDomain, rng_);
    }
    metrics_.queries_ok->inc();
    if (request.cached_epoch == epoch_) {
      response.bucket_omitted = true;
      metrics_.buckets_omitted->inc();
      continue;
    }
    metrics_.buckets_served->inc();
    const auto it = buckets_.find(request.prefix);
    if (it != buckets_.end()) {
      response.bucket = it->second.blinded;
      response.metadata = it->second.metadata;
    }
  }
  return out;
}

OprfServer::Picked OprfServer::pick_and_blind(
    std::span<const std::string> entries, bool served,
    const MetadataProvider& provider) const {
  Picked out;
  Secret<ec::Scalar> half_mask;
  {
    ReaderMutexLock lock(data_mutex_);
    half_mask = half_mask_;
    std::unordered_set<std::string_view> seen;
    for (const auto& entry : entries) {
      if (entry_index_.contains(entry) == served && seen.insert(entry).second) {
        out.entries.push_back(entry);
      }
    }
  }
  out.blinded = blind(out.entries, half_mask, provider, 1);
  return out;
}

std::size_t OprfServer::add_entries(std::span<const std::string> entries) {
  MutexLock update(update_mutex_);
  auto [fresh, blinded] =
      pick_and_blind(entries, /*served=*/false, metadata_provider_);
  if (fresh.empty()) return 0;
  {
    WriterMutexLock lock(data_mutex_);
    const WriteLockTimer timer{*metrics_.write_lock_add_ms};
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      Bucket& bucket = buckets_[blinded[i].prefix];
      const auto it = std::lower_bound(bucket.blinded.begin(),
                                       bucket.blinded.end(), blinded[i].value);
      if (metadata_provider_) {
        bucket.metadata.insert(
            bucket.metadata.begin() + (it - bucket.blinded.begin()),
            std::move(blinded[i].metadata));
      }
      bucket.blinded.insert(it, blinded[i].value);
      entry_index_.emplace(fresh[i], blinded[i].prefix);
    }
    ++epoch_;
    note_epoch_locked();
  }
  entries_.insert(entries_.end(), fresh.begin(), fresh.end());
  refresh_data_gauges();
  return fresh.size();
}

std::size_t OprfServer::remove_entries(std::span<const std::string> entries) {
  MutexLock update(update_mutex_);
  // The recomputed blinded values locate the entries in their buckets.
  const auto [present, blinded] =
      pick_and_blind(entries, /*served=*/true, nullptr);
  if (present.empty()) return 0;
  std::size_t removed = 0;
  {
    WriterMutexLock lock(data_mutex_);
    const WriteLockTimer timer{*metrics_.write_lock_remove_ms};
    for (std::size_t i = 0; i < present.size(); ++i) {
      entry_index_.erase(present[i]);
      const auto found = buckets_.find(blinded[i].prefix);
      if (found == buckets_.end()) continue;
      Bucket& bucket = found->second;
      const auto it = std::lower_bound(bucket.blinded.begin(),
                                       bucket.blinded.end(), blinded[i].value);
      if (it == bucket.blinded.end() || *it != blinded[i].value) continue;
      if (!bucket.metadata.empty()) {
        bucket.metadata.erase(bucket.metadata.begin() +
                              (it - bucket.blinded.begin()));
      }
      bucket.blinded.erase(it);
      if (bucket.blinded.empty()) buckets_.erase(found);
      ++removed;
    }
    if (removed > 0) {
      ++epoch_;
      note_epoch_locked();
    }
  }
  const std::unordered_set<std::string_view> gone(present.begin(),
                                                   present.end());
  std::erase_if(entries_,
                [&](const std::string& entry) { return gone.contains(entry); });
  if (removed > 0) refresh_data_gauges();
  return removed;
}

std::vector<std::uint32_t> OprfServer::prefix_list() const {
  ReaderMutexLock lock(data_mutex_);
  std::vector<std::uint32_t> out;
  out.reserve(buckets_.size());
  for (const auto& [prefix, bucket] : buckets_) out.push_back(prefix);
  return out;  // std::map iteration order is already sorted
}

std::map<std::uint32_t, std::vector<ec::RistrettoPoint::Encoding>>
OprfServer::bucket_snapshot() const {
  ReaderMutexLock lock(data_mutex_);
  std::map<std::uint32_t, std::vector<ec::RistrettoPoint::Encoding>> out;
  for (const auto& [prefix, bucket] : buckets_) {
    out.emplace(prefix, bucket.blinded);
  }
  return out;
}

OprfServer::BucketStats OprfServer::stats() const {
  ReaderMutexLock lock(data_mutex_);
  BucketStats s;
  s.buckets_total = std::size_t{1} << lambda_;
  s.buckets_nonempty = buckets_.size();
  std::size_t total = 0;
  for (const auto& [prefix, bucket] : buckets_) {
    const std::size_t n = bucket.blinded.size();
    total += n;
    s.min_size = s.min_size == 0 ? n : std::min(s.min_size, n);
    s.max_size = std::max(s.max_size, n);
  }
  s.avg_size = s.buckets_total == 0
                   ? 0.0
                   : static_cast<double>(total) /
                         static_cast<double>(s.buckets_total);
  s.k_anonymity = s.min_size;
  QueryResponse probe;
  s.avg_response_bytes =
      probe.wire_size() +
      static_cast<std::size_t>(s.avg_size * sizeof(ec::RistrettoPoint::Encoding));
  return s;
}

std::vector<std::size_t> OprfServer::bucket_sizes() const {
  ReaderMutexLock lock(data_mutex_);
  std::vector<std::size_t> sizes;
  sizes.reserve(buckets_.size());
  for (const auto& [prefix, bucket] : buckets_) {
    sizes.push_back(bucket.blinded.size());
  }
  return sizes;
}

void OprfServer::enable_rate_limiting(std::uint32_t max_queries_per_window) {
  MutexLock limiter_lock(limiter_mutex_);
  max_per_window_ = max_queries_per_window;
  // Release store pairs with the acquire load in handle()/evaluate_batch:
  // the window bound above is visible before any limiter pass runs.
  rate_limiting_.store(true, std::memory_order_release);
}

void OprfServer::authorize_key(const std::string& key) {
  MutexLock limiter_lock(limiter_mutex_);
  authorized_[key] = true;
}

void OprfServer::revoke_key(const std::string& key) {
  MutexLock limiter_lock(limiter_mutex_);
  authorized_[key] = false;
}

void OprfServer::advance_window() {
  MutexLock limiter_lock(limiter_mutex_);
  window_counts_.clear();
}

void OprfServer::set_metadata_provider(MetadataProvider provider) {
  MutexLock update(update_mutex_);
  metadata_provider_ = std::move(provider);
}

std::array<std::uint8_t, 32> OprfServer::metadata_key(
    const ec::RistrettoPoint::Encoding& oprf_output) {
  const Bytes okm = hash::hkdf_sha256(
      ByteView(oprf_output.data(), oprf_output.size()),
      to_bytes("cbl/oprf/metadata/salt"), to_bytes("metadata-key"), 32);
  std::array<std::uint8_t, 32> key;
  std::copy(okm.begin(), okm.end(), key.begin());
  return key;
}

Bytes OprfServer::seal_metadata(const std::array<std::uint8_t, 32>& key,
                                ByteView plaintext) {
  // Stream-cipher encryption with a zero nonce is safe here because each
  // key is unique per (entry, epoch) pair; integrity from HMAC-SHA256/16.
  ChaChaRng stream(key);
  Bytes ciphertext(plaintext.begin(), plaintext.end());
  const Bytes pad = stream.bytes(ciphertext.size());
  for (std::size_t i = 0; i < ciphertext.size(); ++i) ciphertext[i] ^= pad[i];
  const auto tag = hash::hmac_sha256(key, ciphertext);
  Bytes out(tag.begin(), tag.begin() + 16);
  append(out, ciphertext);
  return out;
}

std::optional<Bytes> OprfServer::open_metadata(
    const std::array<std::uint8_t, 32>& key, ByteView ciphertext) {
  if (ciphertext.size() < 16) return std::nullopt;
  const ByteView tag(ciphertext.data(), 16);
  const ByteView body(ciphertext.data() + 16, ciphertext.size() - 16);
  const auto expected = hash::hmac_sha256(key, body);
  if (!constant_time_eq(tag, ByteView(expected.data(), 16))) {
    return std::nullopt;
  }
  ChaChaRng stream(key);
  Bytes plaintext(body.begin(), body.end());
  const Bytes pad = stream.bytes(plaintext.size());
  for (std::size_t i = 0; i < plaintext.size(); ++i) plaintext[i] ^= pad[i];
  return plaintext;
}

}  // namespace cbl::oprf
