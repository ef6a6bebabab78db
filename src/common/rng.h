// Deterministic random generation built on the ChaCha20 block function
// (RFC 8439). Every randomized component of the library draws from an
// injected Rng so protocol runs are reproducible under a fixed seed while
// production use seeds from the OS entropy pool.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/ct.h"
#include "common/secret.h"

namespace cbl {

/// The raw ChaCha20 block function: 20 rounds over (key, counter, nonce),
/// producing 64 bytes of keystream. Exposed for testing against the RFC
/// 8439 vectors.
void chacha20_block(const std::array<std::uint8_t, 32>& key,
                    std::uint32_t counter,
                    const std::array<std::uint8_t, 12>& nonce,
                    std::uint8_t out[64]);

/// Abstract source of random bytes.
class Rng {
 public:
  virtual ~Rng() = default;
  virtual void fill(std::uint8_t* out, std::size_t len) = 0;

  Bytes bytes(std::size_t len) {
    Bytes out(len);
    fill(out.data(), out.size());
    return out;
  }

  std::uint64_t next_u64() {
    std::uint8_t buf[8];
    fill(buf, sizeof buf);
    return load_le64(buf);
  }

  /// Uniform value in [0, bound) via rejection sampling; bound must be > 0.
  // vartime: public-inputs-only — the retry count depends only on `bound`
  // and rejected keystream words, never on a value the caller keeps.
  CBL_VARTIME std::uint64_t uniform(std::uint64_t bound);
};

/// Deterministic ChaCha20-based DRBG.
// The seed key determines every future output.
class ChaChaRng final : public Rng {
 public:
  /// Seeds from a 32-byte key. A fixed seed yields a fixed stream.
  explicit ChaChaRng(const std::array<std::uint8_t, 32>& seed) noexcept;

  /// Convenience: seeds by hashing an arbitrary label (useful in tests).
  static ChaChaRng from_string_seed(std::string_view label);

  /// Seeds from std::random_device.
  static ChaChaRng from_entropy();

  void fill(std::uint8_t* out, std::size_t len) override;

  ChaChaRng(const ChaChaRng&) = default;
  ChaChaRng(ChaChaRng&&) = default;
  ChaChaRng& operator=(const ChaChaRng&) = default;
  ChaChaRng& operator=(ChaChaRng&&) = default;
  ~ChaChaRng() override {
    key_.wipe();
    buffer_.wipe();
  }

 private:
  void refill();

  Secret<std::array<std::uint8_t, 32>> key_;
  std::array<std::uint8_t, 12> nonce_{};
  std::uint32_t counter_ = 0;
  Secret<std::array<std::uint8_t, 64>> buffer_;
  std::size_t avail_ = 0;
};

}  // namespace cbl
