// Rollback recovery: rebuild a rank's data memory from its checkpoint
// chain (the newest full checkpoint plus every later incremental).
//
// restore_chain runs a two-phase plan-then-decode pipeline over the
// v3 chunk index (format.h):
//   phase 1 (plan)   — per object, one open and three read_at calls
//                      (header, trailer, index), the objects spread
//                      over the worker pool; the index CRC covers the
//                      header and the index.  Pick the seed full
//                      checkpoint, validate parent links, and map each
//                      surviving (block, page) to the one chunk that
//                      last wrote it;
//   phase 2 (decode) — read only the chunks holding such a winning
//                      page, merged per object into reads of at most
//                      1 MiB and spread over the same pool; check each
//                      chunk's CRC and decode its winning pages straight
//                      into a fresh anonymous mapping per surviving
//                      block.  The kernel zeroed those mappings, so a
//                      winning zero page is never written and never
//                      faulted in.  Superseded chunks are never read,
//                      and peak memory stays O(footprint) instead of
//                      O(chain x footprint).
// materialize then hands each mapping to an AddressSpace as it is; no
// byte is copied twice.
// Restore verifies every byte it returns, not every byte of the chain:
// damage confined to superseded chunks does not fail a restore.  The
// whole-store check is fsck (inspect.h), which parses every object
// through read_checkpoint_file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/format.h"
#include "common/arena.h"
#include "common/status.h"
#include "region/address_space.h"
#include "storage/backend.h"

namespace ickpt::checkpoint {

/// The page-rounded contents of one restored block, in an anonymous
/// mapping of its own.  A new BlockBytes is all zero and none of its
/// pages is resident until something touches it.
class BlockBytes {
 public:
  BlockBytes() = default;
  explicit BlockBytes(std::size_t len) : arena_(len) {}

  std::byte* data() noexcept { return arena_.data(); }
  const std::byte* data() const noexcept { return arena_.data(); }
  std::size_t size() const noexcept { return arena_.size(); }
  std::byte& operator[](std::size_t i) noexcept { return data()[i]; }
  const std::byte& operator[](std::size_t i) const noexcept {
    return data()[i];
  }

  /// Give up the mapping; *this is left empty.
  PageArena release() noexcept { return std::move(arena_); }

  /// A copy of the bytes, for perfbench's selftest, which keeps
  /// restored blocks as vectors.  Nothing else may rely on it.
  operator std::vector<std::byte>() const {
    return {data(), data() + size()};
  }

 private:
  PageArena arena_;
};

struct RestoredBlock {
  std::uint32_t id = 0;
  std::string name;
  region::AreaKind kind = region::AreaKind::kHeap;
  BlockBytes data;  ///< page-rounded contents
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
  /// Worker threads for the probe (header, trailer and index of each
  /// object) and for page decoding; 1 runs both inline on the calling
  /// thread, 0 picks the hardware thread count.  One pool serves the
  /// whole call, tolerant retries included.  The restored bytes and
  /// every error are identical either way.
  int decode_threads = 0;
};

/// One checkpoint object, parsed on its own.
struct CheckpointFile {
  FileHeader header;
  std::uint64_t size = 0;  ///< the object's bytes
  RestoredState state;  ///< blocks with only this object's runs applied
  std::map<std::uint32_t, std::vector<RunHeader>> runs;  ///< per block
};

/// Parse and validate one checkpoint object in one sequential pass:
/// structure, whole-object CRC, and an index identical to the one the
/// body implies (manifest, run tables, offset, every chunk's length and
/// CRC).  Returns kCorruption on any integrity violation.
Result<CheckpointFile> read_checkpoint_file(storage::StorageBackend& storage,
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

/// Materialize a restored state into an AddressSpace by adopting each
/// block's mapping where restore left it; no byte is copied.  Returns
/// the mapping from checkpointed block ids to new block ids (ascending
/// by old id, preserving the logical block order).  `state.blocks` is
/// empty on return, also on failure, when `space` keeps the blocks
/// adopted before the error.
Result<std::map<std::uint32_t, region::BlockId>> materialize(
    RestoredState& state, region::AddressSpace& space);

}  // namespace ickpt::checkpoint
