// AddressSpace: the dynamically-evolving set of tracked data-memory
// blocks owned by one process (rank).
//
// Models the paper's view of a UNIX process's data memory (Section 4.1):
// initialized/uninitialized data (kStaticData), the heap (kHeap), and
// mmap'ed memory (kMmap).  Blocks can be mapped and unmapped at run
// time; unmapping detaches the pages from dirty tracking, reproducing
// the *memory exclusion* optimization (Section 4.2: "pages belonging to
// unmapped areas are not taken into account ... there is no need to
// checkpoint these pages").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "memtrack/tracker.h"

namespace ickpt::region {

using BlockId = std::uint32_t;
inline constexpr BlockId kInvalidBlock = 0xffffffffu;

enum class AreaKind { kStaticData, kHeap, kMmap };

std::string_view to_string(AreaKind kind) noexcept;

/// Handle to a mapped block.
struct BlockRef {
  BlockId id = kInvalidBlock;
  std::span<std::byte> mem;
};

/// Metadata describing one mapped block (for checkpoint manifests).
struct BlockInfo {
  BlockId id;
  std::string name;
  AreaKind kind;
  std::size_t bytes;
  memtrack::RegionId region;  ///< id inside the dirty tracker
  std::uintptr_t base;        ///< virtual address of the block
};

class AddressSpace {
 public:
  /// All blocks are registered with `tracker`; it must outlive *this.
  AddressSpace(memtrack::DirtyTracker& tracker, std::string name);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Map a new zero-filled block of at least `bytes` (page-rounded),
  /// pre-fault its pages, and adopt it.
  Result<BlockRef> map(std::size_t bytes, AreaKind kind, std::string name);

  /// Take ownership of `arena` as a new block, in place and with its
  /// contents, and attach it to the dirty tracker.  Its pages are not
  /// pre-faulted.  An empty arena is kInvalidArgument.
  Result<BlockRef> adopt(PageArena arena, AreaKind kind, std::string name);

  /// Unmap a block: detach from tracking and release the memory.
  Status unmap(BlockId id);

  /// Span of a mapped block.
  Result<std::span<std::byte>> block_span(BlockId id);

  /// Metadata for one block / all blocks (sorted by id).
  Result<BlockInfo> block_info(BlockId id) const;
  std::vector<BlockInfo> blocks() const;

  /// Current total mapped bytes — the process's data memory footprint.
  std::size_t footprint_bytes() const noexcept { return footprint_; }

  /// Footprint broken down by data area (paper §4.1's initialized
  /// data / heap / mmap'ed memory split).  Index with AreaKind.
  struct KindBreakdown {
    std::size_t static_data = 0;
    std::size_t heap = 0;
    std::size_t mmap = 0;
  };
  KindBreakdown footprint_by_kind() const noexcept;

  /// Largest footprint ever observed (Table 2's "Maximum" column).
  std::size_t peak_footprint_bytes() const noexcept { return peak_; }

  std::size_t block_count() const noexcept { return blocks_.size(); }
  const std::string& name() const noexcept { return name_; }
  memtrack::DirtyTracker& tracker() noexcept { return tracker_; }

 private:
  struct Block {
    std::string name;
    AreaKind kind;
    PageArena arena;
    memtrack::RegionId region;
  };

  memtrack::DirtyTracker& tracker_;
  std::string name_;
  std::map<BlockId, Block> blocks_;
  BlockId next_id_ = 1;
  std::size_t footprint_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace ickpt::region
