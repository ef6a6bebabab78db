// The load workload model: an address universe with Zipf popularity,
// a listed subset as ground truth, and per-query client-side
// resolution modeling.
//
// One process cannot hold a million real client caches, so the two
// client-local resolution paths are modeled statistically: a query is
// a cache hit with probability cache_hit_ratio (the population's
// aggregate cache effectiveness), and a clean-address query is
// prefix-list-resolved with probability prefix_local_ratio on top of
// whatever the in-process client's real prefix list short-circuits.
// Modeled resolutions answer from ground truth at zero cost;
// everything else goes to the wire through the real client stack.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "load/zipf.h"

namespace cbl::load {

struct WorkloadConfig {
  /// Simulated client population. Only narrative for arrivals (see
  /// arrivals.h: superposition folds N clients into one stream), but
  /// recorded in the report so trajectories are comparable.
  std::uint64_t simulated_clients = 1'000'000;
  /// Address universe size; must be a power of two (the rank-to-address
  /// permutation is a multiplicative hash over the low bits).
  std::size_t unique_addresses = std::size_t{1} << 13;
  /// How many of those are on the blocklist (ground truth "listed").
  std::size_t listed_addresses = std::size_t{1} << 10;
  /// Zipf skew of address popularity; 0 = uniform.
  double zipf_s = 1.1;
  /// P(query answered by the client population's local caches).
  double cache_hit_ratio = 0.30;
  /// P(clean-address query resolved by a modeled prefix list), applied
  /// after the cache-hit draw.
  double prefix_local_ratio = 0.15;
};

class Workload {
 public:
  /// Builds the address universe (listed first, then clean) and the
  /// popularity table. Deterministic for a fixed Rng stream. Throws
  /// std::invalid_argument on a non-power-of-two universe or a listed
  /// count exceeding it.
  Workload(const WorkloadConfig& config, Rng& corpus_rng);

  struct Query {
    const std::string* address = nullptr;
    bool listed = false;        // ground truth
    bool cache_hit = false;     // modeled client-cache resolution
    bool prefix_local = false;  // modeled prefix-list resolution
  };

  /// One query draw: Zipf rank -> permuted address index -> resolution
  /// flags. Deterministic for a fixed Rng stream.
  Query sample(Rng& rng) const;

  /// The listed subset, in the layout OprfServer::setup expects.
  std::span<const std::string> listed() const {
    return std::span<const std::string>(addresses_)
        .first(config_.listed_addresses);
  }
  const std::vector<std::string>& addresses() const { return addresses_; }
  std::size_t listed_count() const { return config_.listed_addresses; }
  const WorkloadConfig& config() const { return config_; }
  const ZipfSampler& zipf() const { return zipf_; }

 private:
  WorkloadConfig config_;
  std::vector<std::string> addresses_;  // [0, listed_count) are listed
  ZipfSampler zipf_;
};

}  // namespace cbl::load
