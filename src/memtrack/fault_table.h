// Process-wide table mapping faulting addresses to tracked regions.
//
// SIGSEGV is a process-global resource, so all MProtectEngine instances
// publish their regions here.  The signal handler walks the table with
// only async-signal-safe operations: relaxed atomic loads, an atomic
// fetch_or into the region's dirty bitmap, and an mprotect(2) syscall
// to unprotect the faulted page (the same technique as the paper's
// instrumentation library and libckpt).
//
// Concurrency contract: publish/unpublish are serialized by an internal
// mutex.  The handler reads slots lock-free behind a per-slot sequence
// guard.  Callers must guarantee no in-flight writes to a region while
// it is being unpublished (i.e. a rank detaches only its own quiescent
// regions).
//
// Retry rule: a fault on a published but unarmed slot is absorbed
// without touching the bitmap or the protection, so the store retries.
// Engines change a page's protection and the slot's armed flag in two
// steps, so a store racing arm() or collect(false) on another thread
// can fault while the two disagree; the retried store then succeeds or
// faults on an armed slot.  An engine must therefore never leave a
// published slot unarmed over read-only pages, or stores there retry
// forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "memtrack/bitmap.h"

namespace ickpt::memtrack::detail {

class FaultTable {
 public:
  static constexpr int kMaxSlots = 8192;
  static constexpr int kNoSlot = -1;

  static FaultTable& instance();

  /// Install the SIGSEGV handler (idempotent, thread-safe).
  void ensure_handler_installed();

  /// Publish a region.  `batch_pages` >= 1: on fault, that many
  /// consecutive pages are unprotected and conservatively marked dirty
  /// (fault-batching ablation; 1 == the paper's exact page granularity).
  /// Returns slot index or kNoSlot if the table is full.
  int publish(std::uintptr_t begin, std::uintptr_t end, AtomicBitmap* bitmap,
              std::atomic<std::uint64_t>* fault_counter,
              std::uint32_t batch_pages);

  void unpublish(int slot);

  void set_armed(int slot, bool armed);

  /// Called from the signal handler on a permission fault.  Returns
  /// true if `addr` lies in a published region: a write to an armed
  /// page is recorded and unprotected; on an unarmed slot the store is
  /// retried (see the retry rule above).
  bool handle_fault(std::uintptr_t addr) noexcept;

  /// Number of currently-published slots (for tests).
  int published_count() const noexcept {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  FaultTable() = default;

  struct Slot {
    std::atomic<std::uint32_t> seq{0};  ///< odd while being mutated
    std::atomic<std::uintptr_t> begin{0};
    std::atomic<std::uintptr_t> end{0};
    std::atomic<bool> armed{false};
    std::atomic<AtomicBitmap*> bitmap{nullptr};
    std::atomic<std::atomic<std::uint64_t>*> fault_counter{nullptr};
    std::atomic<std::uint32_t> batch_pages{1};
    std::atomic<bool> in_use{false};
  };

  Slot slots_[kMaxSlots];
  std::atomic<int> high_water_{0};
  std::atomic<int> published_{0};
  std::mutex write_mu_;
};

}  // namespace ickpt::memtrack::detail
