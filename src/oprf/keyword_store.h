// Private Keyword Search (the paper's Section IV-B metadata extension,
// citing Chang-Mitzenmacher [35]), as a standalone reusable primitive:
// a server-held keyword -> value map that the client can query without
// the server learning the keyword, and without learning values for
// keywords it does not hold.
//
// Construction: the server tags each record with the OPRF output
// T = H(keyword)^R and encrypts the value under a key derived from T.
// A querying client OPRF-evaluates its keyword (blinded, so the server
// learns nothing), derives the same tag and key, and picks its record
// out of the k-anonymity bucket it shares with other records.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/errors.h"
#include "common/rng.h"
#include "ec/ristretto.h"
#include "oprf/oracle.h"
#include "oprf/server.h"

namespace cbl::oprf {

// The mask R is the store's long-lived secret.
class KeywordStore {
 public:
  KeywordStore(Oracle oracle, unsigned lambda, Rng& rng);
  ~KeywordStore() { mask_.wipe(); }

  /// (Re)builds the store from keyword -> value pairs under a fresh mask.
  void build(const std::vector<std::pair<std::string, Bytes>>& records);

  struct LookupRequest {
    std::uint32_t prefix = 0;
    ec::RistrettoPoint::Encoding blinded_keyword{};
  };

  struct TaggedRecord {
    ec::RistrettoPoint::Encoding tag;  // H(kw)^R
    Bytes ciphertext;                  // sealed under KDF(tag)
  };

  struct LookupResponse {
    ec::RistrettoPoint::Encoding evaluated{};  // blinded^R
    std::vector<TaggedRecord> bucket;          // all records in the prefix
  };

  /// Server side: evaluates the blinded keyword and returns the bucket.
  LookupResponse lookup(const LookupRequest& request) const;

  std::size_t size() const { return record_count_; }
  unsigned lambda() const { return lambda_; }

  /// Client-side driver (stateless): runs the full round trip against a
  /// store. Returns the value when the keyword is held, nullopt when it
  /// is not. Throws ProtocolError on a misbehaving server.
  std::optional<Bytes> client_lookup(std::string_view keyword, Rng& rng) const;

  // Client primitives (exposed so the round trip can cross a transport).
  struct Pending {
    Secret<ec::Scalar> blinding;
    std::uint32_t prefix = 0;

    Pending() = default;
    Pending(const Pending&) = default;
    Pending(Pending&&) = default;
    Pending& operator=(const Pending&) = default;
    Pending& operator=(Pending&&) = default;
    ~Pending() { blinding.wipe(); }
  };
  static std::pair<LookupRequest, Pending> prepare(const Oracle& oracle,
                                                   unsigned lambda,
                                                   std::string_view keyword,
                                                   Rng& rng);
  static std::optional<Bytes> finish(const Pending& pending,
                                     const LookupResponse& response);

 private:
  Oracle oracle_;
  unsigned lambda_;
  Rng& rng_;
  Secret<ec::Scalar> mask_;  // R
  std::map<std::uint32_t, std::vector<TaggedRecord>> buckets_;
  std::size_t record_count_ = 0;
};

}  // namespace cbl::oprf
