// Checkpointer: writes full and incremental checkpoints of one rank's
// AddressSpace to a storage backend.
//
// This is the system the paper argues is feasible: at every checkpoint
// timeslice the dirty snapshot from the tracker becomes one
// incremental checkpoint; a full checkpoint seeds (and periodically
// re-seeds) the chain so recovery never replays unbounded history.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "checkpoint/format.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "memtrack/tracker.h"
#include "region/address_space.h"
#include "storage/backend.h"

namespace ickpt::checkpoint {

/// Validation bounds enforced by Checkpointer::create().
inline constexpr int kMaxEncodeThreads = 1024;
inline constexpr std::uint64_t kMaxFullEvery = 1ull << 32;

struct CheckpointerOptions {
  std::uint32_t rank = 0;
  /// Re-seed with a full checkpoint every N checkpoints (0 = only the
  /// initial full).  Bounds recovery-chain length.
  std::uint64_t full_every = 0;
  /// Apply per-page payload compression (zero elision + word RLE).
  bool compress = true;
  /// Worker threads for page encoding; <= 1 encodes inline on the
  /// calling thread.  The output bytes are identical either way.
  int encode_threads = 1;
};

struct CheckpointMeta {
  std::uint64_t sequence = 0;
  Kind kind = Kind::kFull;
  std::string key;
  std::uint64_t payload_pages = 0;  ///< pages of data covered
  std::uint64_t file_bytes = 0;     ///< total object size (compressed)
  std::uint64_t zero_pages = 0;     ///< pages elided as all-zero
  std::uint64_t rle_pages = 0;      ///< pages stored run-length encoded
  double virtual_time = 0;
};

class Checkpointer {
 public:
  /// Validating factory (mirrors Monitor::create): rejects a null
  /// backend, nonsensical `encode_threads` and implausible
  /// `full_every` values instead of silently misbehaving later.
  static Result<std::unique_ptr<Checkpointer>> create(
      region::AddressSpace& space, storage::StorageBackend* storage,
      CheckpointerOptions options = {});

  /// Write every page of every live block.
  Result<CheckpointMeta> checkpoint_full(double virtual_time);

  /// Write the dirty pages of `snapshot` plus the live-block manifest.
  /// Automatically promotes to a full checkpoint when the chain is
  /// empty or `full_every` is due.
  Result<CheckpointMeta> checkpoint_incremental(
      const memtrack::DirtySnapshot& snapshot, double virtual_time);

  const std::vector<CheckpointMeta>& chain() const noexcept { return chain_; }

  /// Delete every chain element strictly older than the most recent
  /// full checkpoint (they can never be needed again).
  Status truncate_before_last_full();

  std::uint64_t next_sequence() const noexcept { return next_seq_; }

  /// Number the first checkpoint `sequence` instead of 0, so a writer
  /// that takes over a store can write above every key already in it.
  /// Fails once a checkpoint has been written.
  Status start_at(std::uint64_t sequence);

 private:
  Checkpointer(region::AddressSpace& space, storage::StorageBackend& storage,
               CheckpointerOptions options);

  Result<CheckpointMeta> write_checkpoint(
      Kind kind, const memtrack::DirtySnapshot* snapshot,
      double virtual_time);
  Result<CheckpointMeta> write_object(Kind kind,
                                      const memtrack::DirtySnapshot* snapshot,
                                      double virtual_time, std::uint64_t seq,
                                      const std::string& key);

  region::AddressSpace& space_;
  storage::StorageBackend& storage_;
  CheckpointerOptions options_;
  std::unique_ptr<ThreadPool> pool_;  ///< encode_threads > 1
  std::vector<CheckpointMeta> chain_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t since_full_ = 0;
};

}  // namespace ickpt::checkpoint
