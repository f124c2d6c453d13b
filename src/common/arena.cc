#include "common/arena.h"

#include <sys/mman.h>

#include <new>
#include <utility>

namespace ickpt {

PageArena::PageArena(std::size_t bytes) {
  if (bytes == 0) return;
  std::size_t len = page_ceil(bytes);
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(p);
  size_ = len;
}

PageArena::PageArena(PageArena&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

PageArena& PageArena::operator=(PageArena&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

PageArena::~PageArena() { reset(); }

PageRange PageArena::range() const noexcept {
  auto a = reinterpret_cast<std::uintptr_t>(data_);
  return PageRange{a, a + size_};
}

void PageArena::prefault() noexcept {
  (void)::madvise(data_, size_, MADV_POPULATE_WRITE);
}

void PageArena::reset() noexcept {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

}  // namespace ickpt
