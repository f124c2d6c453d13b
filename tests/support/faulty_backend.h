// Test fault injector: a storage decorator whose writes fail once a
// shared byte budget is spent.  It is not part of the library.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/backend.h"

namespace ickpt::storage {

/// Decorator: fails writes after `fail_after_bytes` total payload
/// bytes (kIoError), for failure-injection tests.
class FaultyBackend : public StorageBackend {
 public:
  FaultyBackend(StorageBackend& inner, std::uint64_t fail_after_bytes);

  Result<std::unique_ptr<Writer>> create(const std::string& key) override;
  Result<std::unique_ptr<Reader>> open(const std::string& key) override;
  Status remove(const std::string& key) override;
  Result<std::vector<std::string>> list() override;
  bool exists(const std::string& key) override;
  std::uint64_t total_bytes_stored() const noexcept override;

 private:
  class FaultyWriter;
  StorageBackend& inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> budget_;
};

}  // namespace ickpt::storage
