#include "wrappers.h"

#include "net/service_node.h"
#include "trace.h"

namespace wallbench {

cbl::net::CallResult TracingChannel::call(const std::string& endpoint,
                                          cbl::ByteView request) {
  ScopedSpan span("net.transport");
  auto result = inner_.call(endpoint, request);
  const bool is_query =
      !request.empty() &&
      request[0] == static_cast<std::uint8_t>(cbl::net::Method::kQuery);
  Traffic& traffic = is_query ? queries_ : other_;
  ++traffic.calls;
  traffic.request_bytes += request.size();
  if (result.delivered) traffic.response_bytes += result.response.size();
  return result;
}

template <typename Fn>
auto CountingFs::timed(Fn&& fn) {
  const std::int64_t start = now_ns();
  auto result = fn();
  busy_ns_ += static_cast<std::uint64_t>(now_ns() - start);
  ++ops_;
  return result;
}

std::optional<cbl::Bytes> CountingFs::read(const std::string& path) {
  return timed([&] { return inner_.read(path); });
}

bool CountingFs::write(const std::string& path, cbl::ByteView data) {
  bytes_written_ += data.size();
  return timed([&] { return inner_.write(path, data); });
}

bool CountingFs::append(const std::string& path, cbl::ByteView data) {
  bytes_written_ += data.size();
  return timed([&] { return inner_.append(path, data); });
}

bool CountingFs::sync(const std::string& path) {
  return timed([&] { return inner_.sync(path); });
}

bool CountingFs::rename(const std::string& from, const std::string& to) {
  return timed([&] { return inner_.rename(from, to); });
}

bool CountingFs::remove(const std::string& path) {
  return timed([&] { return inner_.remove(path); });
}

bool CountingFs::exists(const std::string& path) {
  return timed([&] { return inner_.exists(path); });
}

bool CountingFs::sync_dir() {
  return timed([&] { return inner_.sync_dir(); });
}

}  // namespace wallbench
