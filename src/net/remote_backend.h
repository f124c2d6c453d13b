// RemoteBackend: a storage::StorageBackend that speaks the ickptd wire
// protocol (net/wire.h) over TCP, so the Checkpointer, restore_chain
// and `ickpt fsck` run unchanged against a network checkpoint store.
//
// Shape: a small pool of blocking connections (each HELLO-handshaken
// for one tenant).  A Writer leases one connection for the whole PUT
// stream (PUT_BEGIN .. PUT_DATA* .. PUT_END); Readers lease one per
// read() / read_at() call, issuing a ranged GET each time, so many
// readers share the pool.  Destroying an unclosed Writer sends
// PUT_ABORT — the partial object is never visible server-side, the
// same abort-and-discard semantics local writers have.  Restore decode
// shards fetch their byte ranges with read_at(), as on local stores.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "storage/backend.h"

namespace ickpt::storage {

struct RemoteBackendOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Namespace on the server; every key is stored under
  /// "tenant/<tenant>/" and tenants cannot see each other.
  std::string tenant = "default";
  /// Idle connections kept for reuse.  More are dialed on demand (a
  /// burst of concurrent writers is never blocked on the pool); the
  /// surplus is closed on release.
  std::size_t pool_size = 4;
  /// Per-syscall send/receive timeout; <= 0 blocks forever.
  double io_timeout_s = 30.0;
};

/// Dials one connection eagerly so connectivity, protocol version and
/// tenant validity fail here rather than on first use.
Result<std::unique_ptr<StorageBackend>> make_remote_backend(
    const RemoteBackendOptions& options);

}  // namespace ickpt::storage

namespace ickpt::net {

/// Parse "host:port" (the CLI --addr form).  The last ':' splits, so
/// a bare port or a missing host is rejected with kInvalidArgument.
Result<std::pair<std::string, std::uint16_t>> parse_host_port(
    const std::string& addr);

}  // namespace ickpt::net
