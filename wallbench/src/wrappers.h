// Pass-through wrappers the benchmark puts between itself and a library
// layer, so the layer is observed from outside through its own public
// interface:
//   TracingChannel — a net::Channel around Transport::call: counts
//                    calls and wire bytes (query frames apart from the
//                    rest), spans each call while tracing is on.
//   CountingFs     — a store::Fs around MemFs (the interface
//                    chaos::FaultFs also wraps): counts operations and
//                    written bytes, and the time spent inside them.
// Both forward every argument and result unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "net/transport.h"
#include "store/fs.h"

namespace wallbench {

class TracingChannel final : public cbl::net::Channel {
 public:
  explicit TracingChannel(cbl::net::Channel& inner) : inner_(inner) {}

  cbl::net::CallResult call(const std::string& endpoint,
                            cbl::ByteView request) override;

  /// Traffic of one frame kind: kQuery frames, or everything else
  /// (connect, prefix list, transparency sync).
  struct Traffic {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> request_bytes{0};
    std::atomic<std::uint64_t> response_bytes{0};
  };
  const Traffic& queries() const { return queries_; }
  const Traffic& other() const { return other_; }

 private:
  cbl::net::Channel& inner_;
  // Atomic because a worker's queries and the provider thread's syncs
  // both call through the worker's channel (serialized by the client's
  // lock, but read from the benchmark's threads too).
  Traffic queries_;
  Traffic other_;
};

class CountingFs final : public cbl::store::Fs {
 public:
  explicit CountingFs(cbl::store::Fs& inner) : inner_(inner) {}

  std::optional<cbl::Bytes> read(const std::string& path) override;
  bool write(const std::string& path, cbl::ByteView data) override;
  bool append(const std::string& path, cbl::ByteView data) override;
  bool sync(const std::string& path) override;
  bool rename(const std::string& from, const std::string& to) override;
  bool remove(const std::string& path) override;
  bool exists(const std::string& path) override;
  bool sync_dir() override;

  std::uint64_t ops() const { return ops_.load(); }
  std::uint64_t bytes_written() const { return bytes_written_.load(); }
  std::uint64_t busy_ns() const { return busy_ns_.load(); }

 private:
  /// Runs one forwarded operation, charging its count and duration.
  template <typename Fn>
  auto timed(Fn&& fn);

  cbl::store::Fs& inner_;
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace wallbench
