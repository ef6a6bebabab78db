// Everything a run feeds the library, derived from the workload seed
// alone: the address corpus with its Zipf popularity, the per-worker
// open-loop arrival schedules, and the provider-update schedule with its
// ground truth. Nothing here depends on thread timing — arrivals are
// assigned to workers statically (arrival i goes to worker i mod W) — so
// a seed replays the same inputs on any machine.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "load/workload.h"

namespace wallbench {

/// A ChaCha stream labelled by purpose, so streams stay independent and
/// adding one never shifts another.
cbl::ChaChaRng seeded_rng(std::uint64_t seed, const std::string& stream);

/// The address universe. Listed and clean addresses are a
/// cbl::load::Workload (listed first; its Zipf draw maps popularity rank
/// to address through a permutation, so popular addresses are a mix of
/// both); the churn pool follows them: addresses unlisted at set-up that
/// provider updates add. An address id indexes that whole sequence.
class Corpus {
 public:
  Corpus(const cbl::load::WorkloadConfig& config, std::size_t churn_pool,
         std::uint64_t seed);

  const std::string& address(std::uint32_t id) const {
    return id < churn_begin() ? workload_.addresses()[id]
                              : churn_[id - churn_begin()];
  }
  /// The set-up list, in the layout OprfServer::setup expects.
  std::span<const std::string> listed() const { return workload_.listed(); }
  std::size_t listed_count() const { return workload_.listed_count(); }
  std::size_t churn_begin() const { return workload_.addresses().size(); }
  std::size_t churn_pool() const { return churn_.size(); }
  bool initially_listed(std::uint32_t id) const { return id < listed_count(); }
  /// One popularity draw over listed + clean; returns its address id.
  std::uint32_t sample(cbl::Rng& rng) const;

 private:
  Corpus(const cbl::load::WorkloadConfig& config, std::size_t churn_pool,
         cbl::ChaChaRng&& rng);

  cbl::load::Workload workload_;
  std::vector<std::string> churn_;
};

struct PlannedQuery {
  std::int64_t due_ns = 0;  // offset from the level's start
  std::uint32_t address = 0;
  std::uint64_t request = 0;  // run-wide query id (1-based)
  /// For a query aimed at a newly added address: the blocklist version
  /// whose update added it. The worker holds the query until that update
  /// has completed, so the truth it is checked against never depends on
  /// thread timing. 0 = no condition.
  std::uint32_t after_version = 0;
};

/// One open-loop rate level: Poisson arrivals at `rate_qps`, dealt to
/// workers round-robin by arrival order.
struct LevelPlan {
  double rate_qps = 0.0;
  std::vector<std::vector<PlannedQuery>> per_worker;
};

struct TrafficConfig {
  /// Share of arrivals that target a churn-pool address whose add was
  /// due at least `churn_margin_ns` before the arrival (the "newly added
  /// addresses join the mix" part of epoch_churn).
  double churn_share = 0.0;
  /// Those arrivals pick among the `churn_recent` latest such adds (all
  /// of them while fewer), so every new address draws about as many
  /// queries as any other.
  std::size_t churn_recent = 1;
  /// How long an add must have been due before queries aim at it: more
  /// than the provider ever lags its schedule, so a query almost never
  /// waits for its add (PlannedQuery::after_version).
  std::int64_t churn_margin_ns = 0;
  /// Due time and version of each churn-pool address's add, in pool
  /// order (see UpdatePlan).
  std::vector<std::int64_t> add_due_ns;
  std::vector<std::uint32_t> add_version;
};

/// Plans level `level_index` of a run. `first_request` numbers the
/// queries so request ids stay unique across levels.
LevelPlan plan_level(const Corpus& corpus, const TrafficConfig& traffic,
                     double rate_qps, std::size_t count, unsigned workers,
                     std::uint64_t seed, std::size_t level_index,
                     std::uint64_t first_request);

/// One provider write: add and remove a batch (then publish and sync),
/// or rotate the key. Version v of the blocklist is the state after the
/// first v updates.
struct Update {
  enum class Kind { kAddRemove, kRotate };
  Kind kind = Kind::kAddRemove;
  std::int64_t due_ns = 0;  // offset from the phase start
  std::vector<std::uint32_t> add;
  std::vector<std::uint32_t> remove;
};

struct UpdateConfig {
  std::size_t count = 0;
  std::int64_t interval_ns = 0;
  std::size_t add_per_batch = 8;
  std::size_t remove_per_batch = 4;
  /// Every `rotate_every`-th update (1-based) is a key rotation; 0 = none.
  std::size_t rotate_every = 0;
};

/// Ground truth across versions: membership flips only at the updates
/// that add or remove an address.
class Truth {
 public:
  explicit Truth(const Corpus& corpus) : corpus_(&corpus) {}
  void record_flip(std::uint32_t address, std::uint32_t version) {
    flips_[address].push_back(version);
  }
  bool listed_at(std::uint32_t address, std::uint32_t version) const;
  /// True when `listed` is the truth at some version in [lo, hi].
  bool matches_some(std::uint32_t address, bool listed, std::uint32_t lo,
                    std::uint32_t hi) const;

 private:
  const Corpus* corpus_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> flips_;
};

struct UpdatePlan {
  std::vector<Update> updates;
  Truth truth;
  std::vector<std::int64_t> add_due_ns;     // per churn-pool address
  std::vector<std::uint32_t> add_version;  // per churn-pool address
};

UpdatePlan plan_updates(const Corpus& corpus, const UpdateConfig& config,
                        std::uint64_t seed);

}  // namespace wallbench
