#include "memtrack/explicit_engine.h"

namespace ickpt::memtrack {

Result<RegionId> ExplicitEngine::attach(std::span<std::byte> mem,
                                        std::string name) {
  if (mem.empty()) return invalid_argument("attach: empty range");
  auto addr = reinterpret_cast<std::uintptr_t>(mem.data());
  if (addr % page_size() != 0 || mem.size() % page_size() != 0) {
    return invalid_argument("attach: range must be page-aligned ('" + name +
                            "')");
  }
  std::lock_guard<std::mutex> lock(mu_);
  RegionId id = next_id_++;
  PageRange range{addr, addr + mem.size()};
  regions_.emplace(id, Region{id, std::move(name), range,
                              std::make_unique<AtomicBitmap>(range.pages())});
  return id;
}

Status ExplicitEngine::detach(RegionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (regions_.erase(id) == 0) return not_found("detach: unknown region id");
  return Status::ok();
}

Status ExplicitEngine::arm() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, r] : regions_) r.bitmap->clear();
  armed_ = true;
  ++arms_;
  return Status::ok();
}

Result<DirtySnapshot> ExplicitEngine::collect(bool rearm) {
  std::lock_guard<std::mutex> lock(mu_);
  DirtySnapshot snap;
  snap.regions.reserve(regions_.size());
  for (auto& [id, r] : regions_) {
    RegionDirty rd;
    rd.id = id;
    rd.name = r.name;
    rd.range = r.range;
    r.bitmap->drain_set_bits(rd.dirty_pages, r.range.pages());
    snap.regions.push_back(std::move(rd));
  }
  armed_ = rearm;
  ++collects_;
  if (rearm) ++arms_;
  return snap;
}

void ExplicitEngine::note_write(const void* addr, std::size_t len) {
  if (len == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_) return;
  ++notes_;
  PageRange w = page_range_covering(addr, len);
  const unsigned shift = page_shift();
  for (auto& [id, r] : regions_) {
    if (!r.range.overlaps(w)) continue;
    std::uintptr_t lo = std::max(w.begin, r.range.begin);
    std::uintptr_t hi = std::min(w.end, r.range.end);
    for (std::uintptr_t p = lo; p < hi; p += page_size()) {
      r.bitmap->set((p - r.range.begin) >> shift);
    }
  }
}

EngineCounters ExplicitEngine::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineCounters c;
  c.arms = arms_;
  c.collects = collects_;
  c.writes_noted = notes_;
  return c;
}

std::size_t ExplicitEngine::region_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return regions_.size();
}

std::size_t ExplicitEngine::tracked_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, r] : regions_) n += r.range.bytes();
  return n;
}

}  // namespace ickpt::memtrack
