// Test fake: a pass-through storage decorator that counts the opens
// it serves, the bytes its readers return from read() and read_at(),
// the read_at() calls they take, and the write() calls its writers
// take.  Lets tests hold restore's own counters and its open budget to
// what the store actually served, the whole-object parse to its read
// calls, and the checkpoint writer to the calls it hands the store.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/backend.h"

namespace ickpt::storage {

class CountingBackend : public StorageBackend {
 public:
  explicit CountingBackend(StorageBackend& inner) : inner_(inner) {}

  Result<std::unique_ptr<Writer>> create(const std::string& key) override {
    auto w = inner_.create(key);
    if (!w.is_ok()) return w.status();
    return {std::unique_ptr<Writer>(
        new CountingWriter(std::move(*w), writes_))};
  }
  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    auto r = inner_.open(key);
    if (!r.is_ok()) return r.status();
    opens_.fetch_add(1, std::memory_order_relaxed);
    return {std::unique_ptr<Reader>(
        new CountingReader(std::move(*r), bytes_served_, read_ats_))};
  }
  Status remove(const std::string& key) override { return inner_.remove(key); }
  Result<std::vector<std::string>> list() override { return inner_.list(); }
  bool exists(const std::string& key) override { return inner_.exists(key); }
  std::uint64_t total_bytes_stored() const noexcept override {
    return inner_.total_bytes_stored();
  }

  std::uint64_t opens() const noexcept { return opens_.load(); }
  std::uint64_t bytes_served() const noexcept { return bytes_served_.load(); }
  std::uint64_t read_ats() const noexcept { return read_ats_.load(); }
  std::uint64_t writes() const noexcept { return writes_.load(); }

 private:
  class CountingWriter : public Writer {
   public:
    CountingWriter(std::unique_ptr<Writer> inner,
                   std::atomic<std::uint64_t>& writes)
        : inner_(std::move(inner)), writes_(writes) {}
    Status write(std::span<const std::byte> data) override {
      writes_.fetch_add(1, std::memory_order_relaxed);
      return inner_->write(data);
    }
    Status close() override { return inner_->close(); }
    std::uint64_t bytes_written() const noexcept override {
      return inner_->bytes_written();
    }

   private:
    std::unique_ptr<Writer> inner_;
    std::atomic<std::uint64_t>& writes_;
  };

  class CountingReader : public Reader {
   public:
    CountingReader(std::unique_ptr<Reader> inner,
                   std::atomic<std::uint64_t>& served,
                   std::atomic<std::uint64_t>& read_ats)
        : inner_(std::move(inner)), served_(served), read_ats_(read_ats) {}
    Result<std::size_t> read(std::span<std::byte> out) override {
      return count(inner_->read(out));
    }
    bool supports_read_at() const noexcept override {
      return inner_->supports_read_at();
    }
    Result<std::size_t> read_at(std::uint64_t offset,
                                std::span<std::byte> out) override {
      read_ats_.fetch_add(1, std::memory_order_relaxed);
      return count(inner_->read_at(offset, out));
    }
    std::uint64_t size() const noexcept override { return inner_->size(); }

   private:
    Result<std::size_t> count(Result<std::size_t> got) {
      if (got.is_ok()) served_.fetch_add(*got, std::memory_order_relaxed);
      return got;
    }

    std::unique_ptr<Reader> inner_;
    std::atomic<std::uint64_t>& served_;
    std::atomic<std::uint64_t>& read_ats_;
  };

  StorageBackend& inner_;
  std::atomic<std::uint64_t> opens_{0};
  std::atomic<std::uint64_t> bytes_served_{0};
  std::atomic<std::uint64_t> read_ats_{0};
  std::atomic<std::uint64_t> writes_{0};
};

}  // namespace ickpt::storage
