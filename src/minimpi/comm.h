// minimpi: an in-process message-passing runtime.
//
// Substitutes for the paper's MPI-over-QsNet substrate: ranks are
// threads inside one process, point-to-point messages are copied
// through per-rank mailboxes, and the one collective the proxy kernels
// need (allreduce_sum) is a shared reduction round.
//
// Per-rank traffic counters expose "data received per timeslice"
// (paper Figure 1b) to the sampler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/status.h"

namespace ickpt::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Completed-receive metadata.
struct RecvInfo {
  int source = -1;
  int tag = -1;
  std::size_t bytes = 0;
};

namespace detail {
struct World;
}

/// Communicator bound to one rank.  All operations are blocking and
/// must be called from that rank's thread only.
class Comm {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  /// Copy `data` into dst's mailbox.  Buffered send: never blocks on
  /// the receiver.
  void send(int dst, int tag, std::span<const std::byte> data);

  /// Block until a message matching (src, tag) arrives; copy at most
  /// out.size() bytes.  kAnySource / kAnyTag act as wildcards.
  /// Fails with kOutOfRange if the message is larger than `out`.
  Result<RecvInfo> recv(int src, int tag, std::span<std::byte> out);

  /// Sum of `value` over all ranks, returned on every rank.
  double allreduce_sum(double value);

  /// Total payload bytes this rank has received / sent so far.
  std::uint64_t bytes_received() const noexcept;
  std::uint64_t bytes_sent() const noexcept;

 private:
  friend class Runtime;
  friend struct detail::World;
  Comm(detail::World* world, int rank) : world_(world), rank_(rank) {}

  detail::World* world_;
  int rank_;
};

/// Launches `fn` on `nprocs` rank threads and joins them.
/// The first exception thrown by any rank is rethrown after join.
class Runtime {
 public:
  static void run(int nprocs, const std::function<void(Comm&)>& fn);
};

}  // namespace ickpt::mpi
