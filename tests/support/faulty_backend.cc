#include "tests/support/faulty_backend.h"

#include <utility>

namespace ickpt::storage {

class FaultyBackend::FaultyWriter final : public Writer {
 public:
  FaultyWriter(std::unique_ptr<Writer> inner,
               std::shared_ptr<std::atomic<std::uint64_t>> budget)
      : inner_(std::move(inner)), budget_(std::move(budget)) {}

  Status write(std::span<const std::byte> data) override {
    std::uint64_t before =
        budget_->load(std::memory_order_relaxed);
    if (before < data.size()) {
      budget_->store(0, std::memory_order_relaxed);
      return io_error("injected storage fault (budget exhausted)");
    }
    budget_->fetch_sub(data.size(), std::memory_order_relaxed);
    return inner_->write(data);
  }
  Status close() override { return inner_->close(); }
  std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  std::unique_ptr<Writer> inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> budget_;
};

FaultyBackend::FaultyBackend(StorageBackend& inner,
                             std::uint64_t fail_after_bytes)
    : inner_(inner),
      budget_(std::make_shared<std::atomic<std::uint64_t>>(
          fail_after_bytes)) {}

Result<std::unique_ptr<Writer>> FaultyBackend::create(const std::string& key) {
  auto w = inner_.create(key);
  if (!w.is_ok()) return w.status();
  return std::unique_ptr<Writer>(
      new FaultyWriter(std::move(w.value()), budget_));
}
Result<std::unique_ptr<Reader>> FaultyBackend::open(const std::string& key) {
  return inner_.open(key);
}
Status FaultyBackend::remove(const std::string& key) {
  return inner_.remove(key);
}
Result<std::vector<std::string>> FaultyBackend::list() {
  return inner_.list();
}
bool FaultyBackend::exists(const std::string& key) {
  return inner_.exists(key);
}
std::uint64_t FaultyBackend::total_bytes_stored() const noexcept {
  return inner_.total_bytes_stored();
}

}  // namespace ickpt::storage
