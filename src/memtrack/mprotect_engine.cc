#include "memtrack/mprotect_engine.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "memtrack/fault_table.h"
#include "obs/timer.h"

namespace ickpt::memtrack {

using detail::FaultTable;

namespace {

/// Handles are resolved once; arm/collect record via relaxed atomics.
struct EngineMetrics {
  obs::Histogram& arm_ns;
  obs::Histogram& collect_ns;
  obs::Counter& pages_protected;

  static EngineMetrics& get() {
    static EngineMetrics m{obs::registry().histogram("memtrack.arm_ns"),
                           obs::registry().histogram("memtrack.collect_ns"),
                           obs::registry().counter("memtrack.pages_protected")};
    return m;
  }
};

}  // namespace

struct MProtectEngine::Region {
  RegionId id = kInvalidRegion;
  std::string name;
  PageRange range;
  AtomicBitmap bitmap;
  int slot = FaultTable::kNoSlot;

  Region(RegionId rid, std::string n, PageRange rng)
      : id(rid), name(std::move(n)), range(rng), bitmap(rng.pages()) {}
};

MProtectEngine::MProtectEngine(Options options) : options_(options) {
  FaultTable::instance().ensure_handler_installed();
}

MProtectEngine::~MProtectEngine() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, r] : regions_) {
    FaultTable::instance().unpublish(r->slot);
    (void)protect_region(*r, /*readonly=*/false);
  }
}

Status MProtectEngine::protect_region(Region& r, bool readonly) {
  int prot = readonly ? PROT_READ : (PROT_READ | PROT_WRITE);
  if (::mprotect(reinterpret_cast<void*>(r.range.begin), r.range.bytes(),
                 prot) != 0) {
    return io_error("mprotect failed for region '" + r.name +
                    "': " + std::strerror(errno));
  }
  return Status::ok();
}

Result<RegionId> MProtectEngine::attach(std::span<std::byte> mem,
                                        std::string name) {
  if (mem.empty()) return invalid_argument("attach: empty range");
  auto addr = reinterpret_cast<std::uintptr_t>(mem.data());
  if (addr % page_size() != 0 || mem.size() % page_size() != 0) {
    return invalid_argument("attach: range must be page-aligned ('" + name +
                            "')");
  }
  std::lock_guard<std::mutex> lock(mu_);
  RegionId id = next_id_++;
  auto region = std::make_unique<Region>(
      id, std::move(name), PageRange{addr, addr + mem.size()});
  int slot = FaultTable::instance().publish(region->range.begin,
                                            region->range.end,
                                            &region->bitmap, &faults_,
                                            options_.fault_batch_pages);
  if (slot == FaultTable::kNoSlot) {
    return Status(ErrorCode::kResourceExhausted, "fault table is full");
  }
  region->slot = slot;
  if (armed_) {
    Status st = protect_region(*region, /*readonly=*/true);
    if (!st.is_ok()) {
      FaultTable::instance().unpublish(slot);
      return st;
    }
    FaultTable::instance().set_armed(slot, true);
  }
  regions_.emplace(id, std::move(region));
  return id;
}

Status MProtectEngine::detach(RegionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = regions_.find(id);
  if (it == regions_.end()) return not_found("detach: unknown region id");
  Region& r = *it->second;
  FaultTable::instance().unpublish(r.slot);
  Status st = protect_region(r, /*readonly=*/false);
  regions_.erase(it);
  return st;
}

Status MProtectEngine::arm() {
  std::lock_guard<std::mutex> lock(mu_);
  obs::ScopedTimer timer(EngineMetrics::get().arm_ns);
  std::uint64_t pages = 0;
  for (auto& [id, r] : regions_) {
    r->bitmap.clear();
    ICKPT_RETURN_IF_ERROR(protect_region(*r, /*readonly=*/true));
    FaultTable::instance().set_armed(r->slot, true);
    pages += r->range.pages();
  }
  EngineMetrics::get().pages_protected.inc(pages);
  armed_ = true;
  ++arms_;
  return Status::ok();
}

Result<DirtySnapshot> MProtectEngine::collect(bool rearm) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::ScopedTimer timer(EngineMetrics::get().collect_ns);
  DirtySnapshot snap;
  snap.regions.reserve(regions_.size());
  for (auto& [id, r] : regions_) {
    // Re-protect (or fully unprotect) *before* draining the bitmap so a
    // concurrent write between the two steps is attributed to the next
    // interval rather than lost — the same benign race the paper's
    // alarm handler has.
    ICKPT_RETURN_IF_ERROR(protect_region(*r, /*readonly=*/rearm));
    FaultTable::instance().set_armed(r->slot, rearm);
    if (rearm) EngineMetrics::get().pages_protected.inc(r->range.pages());
    RegionDirty rd;
    rd.id = id;
    rd.name = r->name;
    rd.range = r->range;
    r->bitmap.drain_set_bits(rd.dirty_pages, r->range.pages());
    snap.regions.push_back(std::move(rd));
  }
  armed_ = rearm;
  ++collects_;
  if (rearm) ++arms_;
  return snap;
}

EngineCounters MProtectEngine::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineCounters c;
  c.faults_handled = faults_.load(std::memory_order_relaxed);
  c.arms = arms_;
  c.collects = collects_;
  return c;
}

std::size_t MProtectEngine::region_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return regions_.size();
}

std::size_t MProtectEngine::tracked_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, r] : regions_) n += r->range.bytes();
  return n;
}

}  // namespace ickpt::memtrack
