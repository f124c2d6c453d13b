// DirtyTracker: the common interface over the dirty-page tracking
// engines.
//
// This is the reproduction of the paper's instrumentation library
// (Section 4.2): regions of application memory are attached, an
// interval is armed (pages write-protected), the application runs, and
// collect() returns the Incremental Working Set — the set of pages
// written during the interval.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/page.h"
#include "common/status.h"

namespace ickpt::memtrack {

using RegionId = std::uint32_t;
inline constexpr RegionId kInvalidRegion = 0xffffffffu;

enum class EngineKind {
  /// mprotect + SIGSEGV write faults — the paper's mechanism.
  kMProtect,
  /// Application-annotated writes; deterministic, for tests and replay.
  kExplicit,
};

std::string_view to_string(EngineKind kind) noexcept;

/// Dirty pages of one region at collection time.
struct RegionDirty {
  RegionId id = kInvalidRegion;
  std::string name;
  PageRange range;                        ///< region extent when collected
  std::vector<std::uint32_t> dirty_pages; ///< page indices within range

  std::size_t dirty_bytes() const noexcept {
    return dirty_pages.size() * page_size();
  }
};

/// One Incremental Working Set sample across all attached regions.
struct DirtySnapshot {
  std::vector<RegionDirty> regions;

  std::size_t dirty_pages() const noexcept {
    std::size_t n = 0;
    for (const auto& r : regions) n += r.dirty_pages.size();
    return n;
  }
  std::size_t dirty_bytes() const noexcept { return dirty_pages() * page_size(); }
  std::size_t tracked_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& r : regions) n += r.range.bytes();
    return n;
  }
};

/// Engine health/cost counters for the intrusiveness analysis (§6.5).
struct EngineCounters {
  std::uint64_t faults_handled = 0;  ///< SIGSEGV faults absorbed (mprotect)
  std::uint64_t writes_noted = 0;    ///< armed note_write calls (explicit)
  std::uint64_t arms = 0;            ///< intervals armed
  std::uint64_t collects = 0;        ///< snapshots taken
};

class DirtyTracker {
 public:
  virtual ~DirtyTracker() = default;

  virtual EngineKind kind() const noexcept = 0;

  /// Attach a page-aligned memory range for tracking.  `mem` must stay
  /// mapped until detach().  Newly attached regions are armed if and
  /// only if the tracker is currently armed.
  virtual Result<RegionId> attach(std::span<std::byte> mem,
                                  std::string name) = 0;

  /// Stop tracking a region and restore full access to its pages.
  virtual Status detach(RegionId id) = 0;

  /// Begin a tracking interval: clear dirty state and arm protection on
  /// every attached region.
  virtual Status arm() = 0;

  /// Collect the dirty set accumulated since arm().  When `rearm` is
  /// true the tracker atomically starts the next interval (the paper's
  /// alarm-handler behaviour: record, reset, re-protect).
  virtual Result<DirtySnapshot> collect(bool rearm) = 0;

  /// Explicit write notification.  Only the kExplicit engine uses it;
  /// the mprotect engine ignores it, so proxy kernels can call it
  /// unconditionally.
  virtual void note_write(const void* /*addr*/, std::size_t /*len*/) {}

  virtual EngineCounters counters() const = 0;

  /// Number of currently attached regions.
  virtual std::size_t region_count() const = 0;

  /// Total tracked bytes across attached regions.
  virtual std::size_t tracked_bytes() const = 0;
};

/// Factory.  Fails only for a value outside EngineKind.
Result<std::unique_ptr<DirtyTracker>> make_tracker(EngineKind kind);

}  // namespace ickpt::memtrack
