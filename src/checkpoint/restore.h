// Rollback recovery: rebuild a rank's data memory from its checkpoint
// chain (the newest full checkpoint plus every later incremental).
//
// restore_chain runs a two-phase plan-then-decode pipeline:
//   phase 1 (plan)   — scan only headers and manifests (no page
//                      payloads): pick the seed full checkpoint,
//                      validate parent links, and build a newest-wins
//                      page plan mapping each (block, page) to the one
//                      object that last wrote it;
//   phase 2 (decode) — read and decode each surviving page exactly
//                      once, sharded across a thread pool, writing
//                      directly into the final RestoredState.  Pages
//                      superseded by a newer write are CRC-checked but
//                      never decoded, and peak memory stays
//                      O(footprint) instead of O(chain x footprint).
// Shards hash the byte ranges they read; the stitch step folds shard
// CRCs with the manifest-scan CRCs via crc32_combine and compares the
// result against each object's trailer, so integrity coverage equals
// the serial parser's.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "region/address_space.h"
#include "storage/backend.h"

namespace ickpt::checkpoint {

struct RestoredBlock {
  std::uint32_t id = 0;
  std::string name;
  region::AreaKind kind = region::AreaKind::kHeap;
  std::vector<std::byte> data;  ///< page-rounded contents
};

struct RestoredState {
  std::uint64_t sequence = 0;    ///< chain element the state reflects
  double virtual_time = 0;       ///< clock value at that checkpoint
  std::map<std::uint32_t, RestoredBlock> blocks;  ///< by block id
};

struct RestoreOptions {
  /// Restore the newest state with sequence <= upto.
  std::uint64_t upto = UINT64_MAX;
  /// When the tail of the chain is damaged (corrupt object, broken
  /// parent link, missing element), recover to the newest prefix
  /// ending in a valid object instead of failing.  The default is
  /// strict: any damage in the live range is kCorruption.
  bool allow_truncated_tail = false;
  /// Worker threads for page decoding; <= 1 decodes inline on the
  /// calling thread, 0 picks the hardware thread count.  The restored
  /// bytes are identical either way.
  int decode_threads = 0;
};

/// Parse and validate one checkpoint object (header, structure, CRC).
/// Returns kCorruption on any integrity violation.
Result<RestoredState> read_checkpoint_file(storage::StorageBackend& storage,
                                           const std::string& key);

/// Rebuild rank state from its chain: locate the newest full
/// checkpoint with sequence <= `options.upto`, then apply the later
/// incrementals in order (plan-then-decode, see above).  Blocks that
/// leave the manifest are dropped (memory exclusion); new blocks start
/// zero-filled.
Result<RestoredState> restore_chain(storage::StorageBackend& storage,
                                    std::uint32_t rank,
                                    const RestoreOptions& options);

/// Convenience overload: strict restore at default parallelism.
Result<RestoredState> restore_chain(storage::StorageBackend& storage,
                                    std::uint32_t rank,
                                    std::uint64_t upto = UINT64_MAX);

/// Reference implementation: the pre-pipeline serial restorer, which
/// fully parses every object and overlays them in memory.  Kept as the
/// byte-identity oracle for tests and bench/ablation_restore; new code
/// should call restore_chain.
Result<RestoredState> restore_chain_serial(storage::StorageBackend& storage,
                                           std::uint32_t rank,
                                           std::uint64_t upto = UINT64_MAX);

/// Materialize a restored state into a fresh AddressSpace; returns the
/// mapping from checkpointed block ids to new block ids (ascending by
/// old id, preserving the logical block order).
Result<std::map<std::uint32_t, region::BlockId>> materialize(
    const RestoredState& state, region::AddressSpace& space);

}  // namespace ickpt::checkpoint
