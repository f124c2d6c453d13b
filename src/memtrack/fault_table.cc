#include "memtrack/fault_table.h"

#include <signal.h>
#include <sys/mman.h>

#include <cstdlib>

#include "common/page.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ickpt::memtrack::detail {

namespace {

struct sigaction g_prev_action;
bool g_have_prev = false;

// Registered once, on a normal thread, before the handler can run;
// after that the handler only touches them with relaxed atomics
// (see the signal-safety contract in obs/metrics.h).
obs::Counter* g_fault_counter = nullptr;
obs::Histogram* g_fault_hist = nullptr;
std::uint16_t g_fault_trace = 0;  ///< interned "memtrack.fault"

// Latency is sampled 1-in-64: at tight timeslices a run takes tens of
// thousands of faults, and two clock reads on every one of them is a
// measurable slowdown of the very path the histogram describes.  The
// counter still counts every fault.
constexpr std::uint64_t kFaultSampleMask = 63;
std::atomic<std::uint64_t> g_fault_sample{0};

void segv_handler(int sig, siginfo_t* info, void* uctx) {
  // Only a permission fault can be a write to a protected tracked page;
  // a store to unmapped memory (SEGV_MAPERR) is a genuine crash.
  if (info->si_code == SEGV_ACCERR &&
      FaultTable::instance().handle_fault(
          reinterpret_cast<std::uintptr_t>(info->si_addr))) {
    return;
  }

  // Not a tracked page: forward to the previous handler or re-raise
  // with default disposition so genuine crashes still crash.
  if (g_have_prev && (g_prev_action.sa_flags & SA_SIGINFO) &&
      g_prev_action.sa_sigaction != nullptr) {
    g_prev_action.sa_sigaction(sig, info, uctx);
    return;
  }
  if (g_have_prev && !(g_prev_action.sa_flags & SA_SIGINFO) &&
      g_prev_action.sa_handler != SIG_DFL &&
      g_prev_action.sa_handler != SIG_IGN) {
    g_prev_action.sa_handler(sig);
    return;
  }
  // Genuine crash: give the flight recorder its one shot before
  // re-raising with default disposition (AS-safe dump path).
  obs::flightrec::dump_from_signal("SIGSEGV");
  ::signal(SIGSEGV, SIG_DFL);
  ::raise(SIGSEGV);
}

}  // namespace

FaultTable& FaultTable::instance() {
  static FaultTable* table = new FaultTable();  // immortal: handler may
  return *table;                                // outlive static dtors
}

void FaultTable::ensure_handler_installed() {
  static std::once_flag once;
  std::call_once(once, [] {
    g_fault_counter = &obs::registry().counter("memtrack.faults");
    g_fault_hist = &obs::registry().histogram("memtrack.fault_ns");
    g_fault_trace = obs::trace_name("memtrack.fault", obs::TraceCat::kMemtrack);
    struct sigaction sa = {};
    sa.sa_sigaction = &segv_handler;
    sa.sa_flags = SA_SIGINFO | SA_NODEFER;
    sigemptyset(&sa.sa_mask);
    if (::sigaction(SIGSEGV, &sa, &g_prev_action) == 0) {
      g_have_prev = true;
    }
  });
}

int FaultTable::publish(std::uintptr_t begin, std::uintptr_t end,
                        AtomicBitmap* bitmap,
                        std::atomic<std::uint64_t>* fault_counter,
                        std::uint32_t batch_pages) {
  std::lock_guard<std::mutex> lock(write_mu_);
  int hw = high_water_.load(std::memory_order_relaxed);
  int slot = kNoSlot;
  for (int i = 0; i < hw; ++i) {
    if (!slots_[i].in_use.load(std::memory_order_relaxed)) {
      slot = i;
      break;
    }
  }
  if (slot == kNoSlot) {
    if (hw >= kMaxSlots) return kNoSlot;
    slot = hw;
  }

  Slot& s = slots_[slot];
  s.seq.fetch_add(1, std::memory_order_release);  // now odd: unstable
  s.begin.store(begin, std::memory_order_relaxed);
  s.end.store(end, std::memory_order_relaxed);
  s.bitmap.store(bitmap, std::memory_order_relaxed);
  s.fault_counter.store(fault_counter, std::memory_order_relaxed);
  s.batch_pages.store(batch_pages == 0 ? 1 : batch_pages,
                      std::memory_order_relaxed);
  s.armed.store(false, std::memory_order_relaxed);
  s.in_use.store(true, std::memory_order_relaxed);
  s.seq.fetch_add(1, std::memory_order_release);  // even again: stable

  if (slot == hw) high_water_.store(hw + 1, std::memory_order_release);
  published_.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void FaultTable::unpublish(int slot) {
  if (slot < 0 || slot >= kMaxSlots) return;
  std::lock_guard<std::mutex> lock(write_mu_);
  Slot& s = slots_[slot];
  s.seq.fetch_add(1, std::memory_order_release);
  s.armed.store(false, std::memory_order_relaxed);
  s.begin.store(0, std::memory_order_relaxed);
  s.end.store(0, std::memory_order_relaxed);
  s.bitmap.store(nullptr, std::memory_order_relaxed);
  s.fault_counter.store(nullptr, std::memory_order_relaxed);
  s.in_use.store(false, std::memory_order_relaxed);
  s.seq.fetch_add(1, std::memory_order_release);
  published_.fetch_sub(1, std::memory_order_relaxed);
}

void FaultTable::set_armed(int slot, bool armed) {
  if (slot < 0 || slot >= kMaxSlots) return;
  slots_[slot].armed.store(armed, std::memory_order_release);
}

bool FaultTable::handle_fault(std::uintptr_t addr) noexcept {
  const std::uint64_t t0 =
      g_fault_hist != nullptr && obs::enabled() &&
              (g_fault_sample.fetch_add(1, std::memory_order_relaxed) &
               kFaultSampleMask) == 0
          ? obs::now_ns()
          : 0;
  const std::size_t psize = page_size();
  const unsigned shift = page_shift();
  const int hw = high_water_.load(std::memory_order_acquire);
  bool unarmed_cover = false;

  for (int i = 0; i < hw; ++i) {
    Slot& s = slots_[i];
    std::uint32_t seq0 = s.seq.load(std::memory_order_acquire);
    if (seq0 & 1u) continue;  // being mutated
    std::uintptr_t begin = s.begin.load(std::memory_order_relaxed);
    std::uintptr_t end = s.end.load(std::memory_order_relaxed);
    if (addr < begin || addr >= end) continue;
    if (!s.armed.load(std::memory_order_relaxed)) {
      // Retry rule (fault_table.h): only if no armed slot covers addr.
      if (s.seq.load(std::memory_order_acquire) == seq0) unarmed_cover = true;
      continue;
    }
    AtomicBitmap* bm = s.bitmap.load(std::memory_order_relaxed);
    std::uint32_t batch = s.batch_pages.load(std::memory_order_relaxed);
    auto* ctr = s.fault_counter.load(std::memory_order_relaxed);
    if (s.seq.load(std::memory_order_acquire) != seq0) continue;
    if (bm == nullptr) continue;

    std::uintptr_t page_addr = addr & ~(psize - 1);
    std::size_t first = (page_addr - begin) >> shift;
    std::size_t total = (end - begin) >> shift;
    std::size_t n = batch;
    if (first + n > total) n = total - first;
    for (std::size_t p = 0; p < n; ++p) bm->set(first + p);
    if (ctr != nullptr) ctr->fetch_add(1, std::memory_order_relaxed);
    // Unprotect so later writes in this interval run at full speed.
    ::mprotect(reinterpret_cast<void*>(page_addr), n * psize,
               PROT_READ | PROT_WRITE);
    if (g_fault_counter != nullptr) g_fault_counter->inc();
    if (t0 != 0) g_fault_hist->record(obs::now_ns() - t0);
    // Signal-context emit: relaxed/release stores only (obs/trace.h).
    obs::trace_instant(g_fault_trace, static_cast<std::uint64_t>(page_addr),
                       static_cast<std::uint64_t>(n));
    return true;
  }
  return unarmed_cover;
}

}  // namespace ickpt::memtrack::detail
