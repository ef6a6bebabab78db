// Control-flow trace recorder — the leak *detector* behind ctcheck on
// toolchains without valgrind or MemorySanitizer.
//
// When the tree is configured with -DCBL_CTCHECK=ON, the crypto libraries
// are compiled with -fsanitize-coverage=trace-pc (supported by both gcc
// and clang): the compiler inserts a call to __sanitizer_cov_trace_pc()
// at every basic-block edge. This file provides that callback. While a
// recording is active the callback folds each return address into an
// order-sensitive hash, so two executions take the same trace hash iff
// they executed the same instrumented edges in the same order.
//
// ctcheck exploits this as a differential tester (in the spirit of trace-
// diffing tools like Microwalk/DATA): run an operation twice with
// different SECRET inputs while holding every public input fixed — if the
// trace hashes differ, some branch depended on the secret. Data-dependent
// *addresses* without branches (secret-indexed table loads) are not
// visible to PC tracing; those are covered statically by
// scripts/secret_flow_lint.py (rule R4) and dynamically by the
// valgrind/MSan backends.
#pragma once

#include <cstdint>

namespace cbl::ct {

struct TraceStats {
  std::uint64_t hash = 0;   // order-sensitive FNV-style fold of edge PCs
  std::uint64_t edges = 0;  // number of instrumented edges observed

  bool operator==(const TraceStats& o) const noexcept {
    return hash == o.hash && edges == o.edges;
  }
};

/// Starts recording on the calling thread (resets the running hash).
void trace_begin() noexcept;

/// Stops recording on the calling thread and returns the stats.
TraceStats trace_end() noexcept;

/// True iff at least one instrumented edge has ever been observed in this
/// process — i.e. the build actually carries -fsanitize-coverage=trace-pc.
/// ctcheck refuses to certify anything when this is false.
bool trace_instrumented() noexcept;

}  // namespace cbl::ct
