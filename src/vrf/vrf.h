// Verifiable random function over Ristretto255 (ECVRF-style: Gamma =
// sk * H(pk || input), with a Chaum-Pedersen DLEQ proof binding Gamma to
// the registered public key). Fig. 4 uses it for publicly verifiable
// committee sortition: the chain emits a challenge nu, every registered
// candidate evaluates the VRF on nu, and the outputs (which nobody can
// bias) rank who gets voting privileges — the pool-dilution defence of
// the game-theoretic analysis.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "common/rng.h"
#include "ec/ristretto.h"
#include "nizk/sigma.h"

namespace cbl::vrf {

// sk is the candidate's long-lived sortition secret.
struct KeyPair {
  Secret<ec::Scalar> sk;
  ec::RistrettoPoint pk;

  static KeyPair generate(Rng& rng);

  KeyPair() = default;
  KeyPair(const KeyPair&) = default;
  KeyPair(KeyPair&&) = default;
  KeyPair& operator=(const KeyPair&) = default;
  KeyPair& operator=(KeyPair&&) = default;
  ~KeyPair() { sk.wipe(); }
};

struct Proof {
  ec::RistrettoPoint gamma;
  nizk::DleqProof dleq;

  Bytes to_bytes() const;
  // wire:untrusted fuzz=fuzz_nizk
  [[nodiscard]] static std::optional<Proof> from_bytes(ByteView data);
  /// gamma + DLEQ (2 points + 1 scalar).
  static constexpr std::size_t kWireSize = 32 + nizk::DleqProof::kWireSize;
};

using Output = std::array<std::uint8_t, 32>;

/// VRF.Eval + VRF.Prove: deterministic output plus proof.
Proof prove(const KeyPair& keys, ByteView input, Rng& rng);

/// VRF.Eval alone: the output without a proof (for the key owner's own
/// planning, e.g. "would I be selected?"; anyone else must demand the
/// proved version).
Output evaluate(const KeyPair& keys, ByteView input);

/// The VRF output beta derived from a proof (only meaningful if the proof
/// verifies).
Output output(const Proof& proof);

/// VRF.Verify.
bool verify(const ec::RistrettoPoint& pk, ByteView input, const Proof& proof);

/// Interprets the output as a uniform value in [0, 1) — used for ranking
/// and for probability-threshold sortition.
double output_to_unit_interval(const Output& out);

}  // namespace cbl::vrf
