// Test fake: a pass-through storage decorator whose readers serve at
// most `max_read` bytes per read() or read_at() call.  Models a
// legitimate short-reading backend (a socket, a pipe) so tests can
// verify that every header, scan and shard read loops until it has
// all its bytes.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/backend.h"

namespace ickpt::storage {

class ChunkedBackend : public StorageBackend {
 public:
  ChunkedBackend(StorageBackend& inner, std::size_t max_read)
      : inner_(inner), max_read_(max_read) {}

  Result<std::unique_ptr<Writer>> create(const std::string& key) override {
    return inner_.create(key);
  }
  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    auto r = inner_.open(key);
    if (!r.is_ok()) return r.status();
    return {std::unique_ptr<Reader>(
        new ChunkedReader(std::move(*r), max_read_))};
  }
  Status remove(const std::string& key) override { return inner_.remove(key); }
  Result<std::vector<std::string>> list() override { return inner_.list(); }
  bool exists(const std::string& key) override { return inner_.exists(key); }
  std::uint64_t total_bytes_stored() const noexcept override {
    return inner_.total_bytes_stored();
  }

 private:
  class ChunkedReader : public Reader {
   public:
    ChunkedReader(std::unique_ptr<Reader> inner, std::size_t max_read)
        : inner_(std::move(inner)), max_read_(max_read) {}
    Result<std::size_t> read(std::span<std::byte> out) override {
      return inner_->read(out.subspan(0, std::min(out.size(), max_read_)));
    }
    bool supports_read_at() const noexcept override { return true; }
    Result<std::size_t> read_at(std::uint64_t offset,
                                std::span<std::byte> out) override {
      return inner_->read_at(offset,
                             out.subspan(0, std::min(out.size(), max_read_)));
    }
    std::uint64_t size() const noexcept override { return inner_->size(); }

   private:
    std::unique_ptr<Reader> inner_;
    std::size_t max_read_;
  };

  StorageBackend& inner_;
  std::size_t max_read_;
};

}  // namespace ickpt::storage
