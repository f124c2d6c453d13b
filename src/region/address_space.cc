#include "region/address_space.h"

#include <utility>

namespace ickpt::region {

std::string_view to_string(AreaKind kind) noexcept {
  switch (kind) {
    case AreaKind::kStaticData: return "static";
    case AreaKind::kHeap: return "heap";
    case AreaKind::kMmap: return "mmap";
  }
  return "?";
}

AddressSpace::AddressSpace(memtrack::DirtyTracker& tracker, std::string name)
    : tracker_(tracker), name_(std::move(name)) {}

AddressSpace::~AddressSpace() {
  for (auto& [id, b] : blocks_) {
    (void)tracker_.detach(b.region);
  }
}

Result<BlockRef> AddressSpace::map(std::size_t bytes, AreaKind kind,
                                   std::string name) {
  if (bytes == 0) return invalid_argument("map: zero-size block");
  PageArena arena(bytes);
  arena.prefault();
  return adopt(std::move(arena), kind, std::move(name));
}

Result<BlockRef> AddressSpace::adopt(PageArena arena, AreaKind kind,
                                     std::string name) {
  if (arena.empty()) return invalid_argument("adopt: empty arena");
  auto region = tracker_.attach(arena.span(), name_ + "/" + name);
  if (!region.is_ok()) return region.status();

  BlockId id = next_id_++;
  std::span<std::byte> mem = arena.span();
  footprint_ += arena.size();
  peak_ = std::max(peak_, footprint_);
  blocks_.emplace(
      id, Block{std::move(name), kind, std::move(arena), region.value()});
  return BlockRef{id, mem};
}

Status AddressSpace::unmap(BlockId id) {
  auto it = blocks_.find(id);
  if (it == blocks_.end()) return not_found("unmap: unknown block");
  ICKPT_RETURN_IF_ERROR(tracker_.detach(it->second.region));
  footprint_ -= it->second.arena.size();
  blocks_.erase(it);
  return Status::ok();
}

Result<std::span<std::byte>> AddressSpace::block_span(BlockId id) {
  auto it = blocks_.find(id);
  if (it == blocks_.end()) return not_found("block_span: unknown block");
  return it->second.arena.span();
}

Result<BlockInfo> AddressSpace::block_info(BlockId id) const {
  auto it = blocks_.find(id);
  if (it == blocks_.end()) return not_found("block_info: unknown block");
  const Block& b = it->second;
  return BlockInfo{id, b.name, b.kind, b.arena.size(), b.region,
                   reinterpret_cast<std::uintptr_t>(b.arena.data())};
}

AddressSpace::KindBreakdown AddressSpace::footprint_by_kind()
    const noexcept {
  KindBreakdown out;
  for (const auto& [id, b] : blocks_) {
    switch (b.kind) {
      case AreaKind::kStaticData: out.static_data += b.arena.size(); break;
      case AreaKind::kHeap: out.heap += b.arena.size(); break;
      case AreaKind::kMmap: out.mmap += b.arena.size(); break;
    }
  }
  return out;
}

std::vector<BlockInfo> AddressSpace::blocks() const {
  std::vector<BlockInfo> out;
  out.reserve(blocks_.size());
  for (const auto& [id, b] : blocks_) {
    out.push_back(BlockInfo{id, b.name, b.kind, b.arena.size(), b.region,
                            reinterpret_cast<std::uintptr_t>(b.arena.data())});
  }
  return out;
}

}  // namespace ickpt::region
