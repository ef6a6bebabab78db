// Pedersen commitments Com(m; r) = g^m * h^r over Ristretto255
// (Section II "Homomorphic commitment"). Perfectly hiding,
// computationally binding under DL, and additively homomorphic:
// Com(m1;r1) * Com(m2;r2) = Com(m1+m2; r1+r2) — the property the
// auto-tally and payoff-bridging procedures live on.
#pragma once

#include "common/rng.h"
#include "ec/ristretto.h"

namespace cbl::commit {

// Openings are the secrets of the commitment scheme.
struct Opening {
  Secret<ec::Scalar> value;
  Secret<ec::Scalar> randomness;

  Opening() = default;
  Opening(const ec::Scalar& v, const ec::Scalar& r)
      : value(v), randomness(r) {}
  Opening(Secret<ec::Scalar> v, Secret<ec::Scalar> r)
      : value(v), randomness(r) {}
  Opening(const ec::Scalar& v, Secret<ec::Scalar> r)
      : value(v), randomness(r) {}
  Opening(const Opening&) = default;
  Opening(Opening&&) = default;
  Opening& operator=(const Opening&) = default;
  Opening& operator=(Opening&&) = default;
  ~Opening() {
    value.wipe();
    randomness.wipe();
  }
};

class Commitment {
 public:
  Commitment() = default;
  explicit Commitment(const ec::RistrettoPoint& point) : point_(point) {}

  static Commitment commit(const ec::RistrettoPoint& g,
                           const ec::RistrettoPoint& h, const Opening& opening);

  /// Commit to `value` with fresh randomness; returns the opening too.
  static std::pair<Commitment, Opening> commit_random(
      const ec::RistrettoPoint& g, const ec::RistrettoPoint& h,
      const ec::Scalar& value, Rng& rng);

  bool verify(const ec::RistrettoPoint& g, const ec::RistrettoPoint& h,
              const Opening& opening) const;

  /// Homomorphic addition / subtraction of committed values.
  Commitment operator*(const Commitment& o) const {
    return Commitment(point_ + o.point_);
  }
  Commitment operator/(const Commitment& o) const {
    return Commitment(point_ - o.point_);
  }
  /// Com(m;r)^k = Com(k*m; k*r).
  Commitment pow(const ec::Scalar& k) const {
    return Commitment(point_ * k);
  }

  bool operator==(const Commitment& o) const { return point_ == o.point_; }

  const ec::RistrettoPoint& point() const { return point_; }
  ec::RistrettoPoint::Encoding encode() const { return point_.encode(); }

 private:
  ec::RistrettoPoint point_;
};

}  // namespace cbl::commit
