#include "timed_backend.h"

#include <utility>

namespace perfbench {

using ickpt::Result;
using ickpt::Status;
using ickpt::storage::Reader;
using ickpt::storage::Writer;

const CallNames kStorageCalls = {
    "storage.create", "storage.open",  "storage.remove", "storage.list",
    "storage.exists", "storage.write", "storage.close",  "storage.read",
    "storage.read_at", "storage.map_at"};

const CallNames kNetCalls = {"net.create", "net.open",   "net.remove",
                             "net.list",   "net.exists", "net.write",
                             "net.close",  "net.read",   "net.read_at",
                             "net.map_at"};

namespace {

class TimedWriter final : public Writer {
 public:
  TimedWriter(std::unique_ptr<Writer> inner, Layer layer,
              const CallNames& names, std::shared_ptr<WriteTally> tally)
      : inner_(std::move(inner)),
        layer_(layer),
        names_(names),
        tally_(std::move(tally)) {}

  Status write(std::span<const std::byte> data) override {
    Scope span(names_.write, layer_);
    return inner_->write(data);
  }
  Status close() override {
    Status st;
    {
      Scope span(names_.close, layer_);
      st = inner_->close();
    }
    if (st.is_ok()) {
      tally_->objects.fetch_add(1, std::memory_order_relaxed);
      tally_->bytes.fetch_add(inner_->bytes_written(),
                              std::memory_order_relaxed);
    }
    return st;
  }
  std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  std::unique_ptr<Writer> inner_;
  Layer layer_;
  const CallNames& names_;
  std::shared_ptr<WriteTally> tally_;
};

class TimedReader final : public Reader {
 public:
  TimedReader(std::unique_ptr<Reader> inner, Layer layer,
              const CallNames& names)
      : inner_(std::move(inner)), layer_(layer), names_(names) {}

  Result<std::size_t> read(std::span<std::byte> out) override {
    Scope span(names_.read, layer_);
    return inner_->read(out);
  }
  std::uint64_t size() const noexcept override { return inner_->size(); }
  bool supports_read_at() const noexcept override {
    return inner_->supports_read_at();
  }
  Result<std::size_t> read_at(std::uint64_t offset,
                              std::span<std::byte> out) override {
    Scope span(names_.read_at, layer_);
    return inner_->read_at(offset, out);
  }
  bool supports_map() const noexcept override {
    return inner_->supports_map();
  }
  Result<std::span<const std::byte>> map_at(std::uint64_t offset,
                                            std::size_t length) override {
    Scope span(names_.map_at, layer_);
    return inner_->map_at(offset, length);
  }

 private:
  std::unique_ptr<Reader> inner_;
  Layer layer_;
  const CallNames& names_;
};

}  // namespace

TimedBackend::TimedBackend(ickpt::storage::StorageBackend& inner, Layer layer,
                           const CallNames& names)
    : inner_(inner),
      layer_(layer),
      names_(names),
      tally_(std::make_shared<WriteTally>()) {}

Result<std::unique_ptr<Writer>> TimedBackend::create(const std::string& key) {
  Scope span(names_.create, layer_);
  auto w = inner_.create(key);
  if (!w.is_ok()) return w.status();
  return std::unique_ptr<Writer>(
      std::make_unique<TimedWriter>(std::move(*w), layer_, names_, tally_));
}

Result<std::unique_ptr<Reader>> TimedBackend::open(const std::string& key) {
  Scope span(names_.open, layer_);
  auto r = inner_.open(key);
  if (!r.is_ok()) return r.status();
  return std::unique_ptr<Reader>(
      std::make_unique<TimedReader>(std::move(*r), layer_, names_));
}

Status TimedBackend::remove(const std::string& key) {
  Scope span(names_.remove, layer_);
  return inner_.remove(key);
}

Result<std::vector<std::string>> TimedBackend::list() {
  Scope span(names_.list, layer_);
  return inner_.list();
}

bool TimedBackend::exists(const std::string& key) {
  Scope span(names_.exists, layer_);
  return inner_.exists(key);
}

std::uint64_t TimedBackend::total_bytes_stored() const noexcept {
  return inner_.total_bytes_stored();
}

}  // namespace perfbench
