// Crash flight recorder: post-mortem observability for field failures.
//
// Once configured with a checkpoint directory, the flight recorder can
// dump the last N trace events (obs/trace.h) plus the metric registry
// to `<dir>/flightrec-<realtime-ns>.json` in two ways:
//
//   * dump(reason) — the normal-path dump, used when restore_chain or
//     fsck fails: full Snapshot::to_json() metrics plus decoded trace
//     events.  Allocates; normal threads only.
//   * crash dump — the first configure() hooks fatal signals
//     (SIGABRT/SIGBUS/SIGILL/SIGFPE), and the memtrack fault table
//     calls dump_from_signal() before re-raising an unhandled SIGSEGV.
//     This path is async-signal-safe: it formats into buffers
//     preallocated by configure() with hand-rolled integer formatting,
//     reads metrics through the Registry's lock-free *_at() accessors
//     (histograms reduced to count/sum/min/max) and writes with
//     open(2)/write(2).
//
// Both paths write the same top-level shape (see
// docs/OBSERVABILITY.md):
//   {"flightrec":1, "reason":..., "signal_context":bool,
//    "timestamp_unix_ns":..., "metrics":{...},
//    "trace":{"emitted":..,"dropped":..,"events":[...]}}
//
// In-flight spans appear as their un-matched "B" events in the event
// list — the failing span is visible even though it never ended.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace ickpt::obs::flightrec {

/// Arm the flight recorder: dumps land in `dir`, carrying up to
/// `last_events` of the most recent trace events.  Preallocates every
/// buffer the signal path needs.  The first call also installs
/// handlers for SIGABRT, SIGBUS, SIGILL and SIGFPE that dump before
/// re-raising with the default disposition; SIGSEGV stays owned by the
/// memtrack fault table, which calls dump_from_signal() itself on the
/// not-ours crash path.  Re-configuring moves the target directory;
/// the first `last_events` wins.  Normal threads only.
void configure(const std::string& dir, std::size_t last_events = 512);

bool configured() noexcept;

/// Normal-path dump (full metrics snapshot + trace events).  Returns
/// the path written, or "" when unconfigured or the write failed.
std::string dump(std::string_view reason);

/// Async-signal-safe dump.  `reason` must be a literal or otherwise
/// immortal string.  No-op when unconfigured; at most one crash dump
/// is written per process.
void dump_from_signal(const char* reason) noexcept;

}  // namespace ickpt::obs::flightrec
