// Page-aligned anonymous memory arena (RAII over mmap/munmap).
//
// Every byte of application state that ickpt tracks lives inside an
// arena, mirroring the paper's focus on the data region of the process
// (initialized/uninitialized data, heap, and mmap'ed memory; Section 4.1).
#pragma once

#include <cstddef>
#include <span>

#include "common/page.h"

namespace ickpt {

/// Owning, page-aligned, anonymous memory mapping.
/// Movable, not copyable.  Pages are demand-zeroed by the kernel.
class PageArena {
 public:
  PageArena() = default;

  /// Maps ceil(bytes / page) pages.  Throws std::bad_alloc on failure.
  explicit PageArena(std::size_t bytes);

  PageArena(PageArena&& other) noexcept;
  PageArena& operator=(PageArena&& other) noexcept;
  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;
  ~PageArena();

  std::byte* data() noexcept { return data_; }
  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  std::span<std::byte> span() noexcept { return {data_, size_}; }
  std::span<const std::byte> span() const noexcept { return {data_, size_}; }

  /// Page-aligned address range of the mapping.
  PageRange range() const noexcept;

  /// Make every page resident and writable, contents unchanged, in one
  /// madvise(MADV_POPULATE_WRITE) call (Linux >= 5.14), so later
  /// protection changes and dirty tracking measure steady-state
  /// behaviour rather than first-touch allocation.  A read-only
  /// populate would not do: it maps the shared zero page, and the first
  /// store would still fault.  Where the kernel refuses the call, pages
  /// fault in on first touch instead; nothing else changes.
  void prefault() noexcept;

  /// Release the mapping early (idempotent).
  void reset() noexcept;

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ickpt
