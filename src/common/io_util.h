// Short-read / short-write loops, factored out of the storage and
// inspect code so every module (including the network stack) handles
// EINTR and partial transfers the same way.
//
// Two layers:
//   * fd-level read_full/write_full/pwrite_full — retry EINTR, loop
//     over short counts.  read_full stops early only at EOF; the
//     writers either move every byte or return the errno as kIoError.
//   * a generic read_full over any "read(span) -> Result<size_t>"
//     callable, for code that must read an exact number of bytes from
//     a source that may legally return short counts (restore wraps
//     storage::Reader::read_at at a running offset in one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/status.h"

namespace ickpt::ioutil {

/// Read exactly out.size() bytes from `fd` unless EOF arrives first.
/// Retries EINTR and short reads.  Returns the byte count: out.size()
/// normally, less only when EOF truncated the read.
Result<std::size_t> read_full(int fd, std::span<std::byte> out);

/// Write all of `data` to `fd`, retrying EINTR and short writes.
Status write_full(int fd, std::span<const std::byte> data);

/// Write `pieces`, back to back, to `fd` at `offset` with pwritev(2):
/// the fd's file position is neither used nor moved.  Retries EINTR
/// and short writes; either moves every byte or returns kIoError.
Status pwrite_full(int fd, std::span<const std::span<const std::byte>> pieces,
                   std::uint64_t offset);

/// write_full for socket fds: uses send(2) with MSG_NOSIGNAL, so a
/// peer that closed the connection surfaces as a kIoError (EPIPE)
/// instead of delivering SIGPIPE and killing the process.  Use this
/// for every socket write; keep write_full for regular files, where
/// send() is not applicable.
Status send_full(int fd, std::span<const std::byte> data);

/// Read exactly out.size() bytes from a source that may return short
/// counts.  `rd` is any callable that fills up to the span it is given
/// and returns the count, 0 at EOF.  Returns the total read —
/// out.size() normally, less only at EOF.
template <typename ReadFn>
Result<std::size_t> read_full(ReadFn&& rd, std::span<std::byte> out) {
  std::size_t got_total = 0;
  while (got_total < out.size()) {
    auto got = rd(out.subspan(got_total));
    if (!got.is_ok()) return got.status();
    if (*got == 0) break;  // EOF
    got_total += *got;
  }
  return got_total;
}

}  // namespace ickpt::ioutil
