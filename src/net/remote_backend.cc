#include "net/remote_backend.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/io_util.h"
#include "net/wire.h"

namespace ickpt::storage {

namespace {

using net::Verb;

struct Frame {
  net::FrameHeader header;
  std::vector<std::byte> payload;
};

/// One blocking, HELLO-handshaken connection to ickptd.
class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool healthy() const noexcept { return healthy_; }

  Status dial(const RemoteBackendOptions& options) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    const std::string port = std::to_string(options.port);
    if (::getaddrinfo(options.host.c_str(), port.c_str(), &hints, &found) !=
            0 ||
        found == nullptr) {
      return io_error("cannot resolve " + options.host);
    }
    fd_ = ::socket(found->ai_family, found->ai_socktype | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      ::freeaddrinfo(found);
      return io_error(std::string("socket: ") + std::strerror(errno));
    }
    const int rc = ::connect(fd_, found->ai_addr, found->ai_addrlen);
    ::freeaddrinfo(found);
    if (rc != 0) {
      return io_error("connect " + options.host + ":" + port + ": " +
                      std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (options.io_timeout_s > 0) {
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(options.io_timeout_s);
      tv.tv_usec = static_cast<suseconds_t>(
          (options.io_timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
    healthy_ = true;

    // HELLO handshake: version + tenant, expect HELLO_OK.
    ICKPT_RETURN_IF_ERROR(
        send(Verb::kHello,
             net::build_hello({net::kWireVersion, options.tenant})));
    ICKPT_ASSIGN_OR_RETURN(reply, recv());
    if (reply.header.verb == Verb::kErr) return err_status(reply);
    if (reply.header.verb != Verb::kHelloOk) {
      return protocol_violation("expected HELLO_OK");
    }
    return Status::ok();
  }

  Status send(Verb verb, std::span<const std::byte> payload) {
    auto frame = net::build_frame(verb, payload);
    // send_full, not write_full: a daemon that closes mid-PUT must
    // surface as a Status (EPIPE), not SIGPIPE-kill the application.
    auto st = ioutil::send_full(fd_, frame);
    if (!st.is_ok()) healthy_ = false;
    return st;
  }

  Result<Frame> recv() {
    ICKPT_ASSIGN_OR_RETURN(header, recv_header());
    return recv_payload(header);
  }

  /// The next frame's header; its payload is still on the socket.
  Result<net::FrameHeader> recv_header() {
    std::byte header_bytes[net::kFrameHeaderSize];
    ICKPT_ASSIGN_OR_RETURN(
        got, checked(ioutil::read_full(fd_, header_bytes)));
    if (got < net::kFrameHeaderSize) {
      healthy_ = false;
      return io_error("server closed the connection");
    }
    auto header = net::decode_frame_header(
        std::span<const std::byte, net::kFrameHeaderSize>(header_bytes));
    if (!header.is_ok()) healthy_ = false;
    return header;
  }

  /// The payload of the frame `header` began, as a whole frame.
  Result<Frame> recv_payload(const net::FrameHeader& header) {
    Frame frame;
    frame.header = header;
    frame.payload.resize(header.len);
    ICKPT_RETURN_IF_ERROR(recv_into(frame.payload));
    return frame;
  }

  /// Exactly out.size() payload bytes, straight into `out`.
  Status recv_into(std::span<std::byte> out) {
    if (out.empty()) return Status::ok();
    ICKPT_ASSIGN_OR_RETURN(got, checked(ioutil::read_full(fd_, out)));
    if (got < out.size()) {
      healthy_ = false;
      return io_error("server closed mid-frame");
    }
    return Status::ok();
  }

  /// Decode an ERR frame into the Status the server meant.
  static Status err_status(const Frame& frame) {
    auto msg = net::parse_err_payload(frame.payload);
    return Status(net::from_wire_code(frame.header.code),
                  msg.is_ok() ? *msg : "malformed error frame");
  }

  /// A reply that breaks the protocol: the stream position is lost,
  /// so the connection must not be reused.
  Status protocol_violation(const std::string& what) {
    healthy_ = false;
    return Status(ErrorCode::kInternal, "protocol violation: " + what);
  }

 private:
  Result<std::size_t> checked(Result<std::size_t> got) {
    if (!got.is_ok()) healthy_ = false;
    return got;
  }

  int fd_ = -1;
  bool healthy_ = false;
};

using ConnPtr = std::unique_ptr<Connection>;

class RemoteBackend final : public StorageBackend {
 public:
  explicit RemoteBackend(RemoteBackendOptions options)
      : options_(std::move(options)) {}

  Result<std::unique_ptr<Writer>> create(const std::string& key) override;
  Result<std::unique_ptr<Reader>> open(const std::string& key) override;

  Status remove(const std::string& key) override {
    if (!net::valid_key(key)) return invalid_argument("invalid key: " + key);
    ICKPT_ASSIGN_OR_RETURN(conn, acquire());
    auto st = round_trip(*conn, Verb::kDelete, net::build_key_only(key));
    release(std::move(conn));
    return st;
  }

  Result<std::vector<std::string>> list() override {
    ICKPT_ASSIGN_OR_RETURN(conn, acquire());
    auto listed = [&]() -> Result<std::vector<std::string>> {
      ICKPT_RETURN_IF_ERROR(conn->send(Verb::kList, {}));
      ICKPT_ASSIGN_OR_RETURN(reply, conn->recv());
      if (reply.header.verb == Verb::kErr) {
        return Connection::err_status(reply);
      }
      if (reply.header.verb != Verb::kListOk) {
        return conn->protocol_violation("expected LIST_OK");
      }
      return net::parse_list_ok(reply.payload);
    }();
    release(std::move(conn));
    return listed;
  }

  bool exists(const std::string& key) override {
    auto size = stat_key(key);
    return size.is_ok();
  }

  std::uint64_t total_bytes_stored() const noexcept override {
    return bytes_stored_.load(std::memory_order_relaxed);
  }

  /// STAT round trip; kNotFound when the object does not exist.
  Result<std::uint64_t> stat_key(const std::string& key) {
    if (!net::valid_key(key)) return invalid_argument("invalid key: " + key);
    ICKPT_ASSIGN_OR_RETURN(conn, acquire());
    auto size = [&]() -> Result<std::uint64_t> {
      ICKPT_RETURN_IF_ERROR(conn->send(Verb::kStat, net::build_key_only(key)));
      ICKPT_ASSIGN_OR_RETURN(reply, conn->recv());
      if (reply.header.verb == Verb::kErr) {
        return Connection::err_status(reply);
      }
      if (reply.header.verb != Verb::kStatOk) {
        return conn->protocol_violation("expected STAT_OK");
      }
      return net::parse_stat_ok(reply.payload);
    }();
    release(std::move(conn));
    return size;
  }

  /// Lease a pooled connection, dialing a fresh one when idle is empty.
  Result<ConnPtr> acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!idle_.empty()) {
        ConnPtr conn = std::move(idle_.back());
        idle_.pop_back();
        return conn;
      }
    }
    auto conn = std::make_unique<Connection>();
    ICKPT_RETURN_IF_ERROR(conn->dial(options_));
    return conn;
  }

  void release(ConnPtr conn) {
    if (conn == nullptr || !conn->healthy()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (idle_.size() < options_.pool_size) idle_.push_back(std::move(conn));
  }

  void note_stored(std::uint64_t bytes) noexcept {
    bytes_stored_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// GET [offset, offset+len) of `key` into `out`; returns bytes
  /// received (0 when offset is at or past EOF).
  Result<std::size_t> fetch_range(const std::string& key,
                                  std::uint64_t offset,
                                  std::span<std::byte> out) {
    ICKPT_ASSIGN_OR_RETURN(conn, acquire());
    auto got = [&]() -> Result<std::size_t> {
      ICKPT_RETURN_IF_ERROR(conn->send(
          Verb::kGet, net::build_get({key, offset, out.size()})));
      std::size_t filled = 0;
      for (;;) {
        ICKPT_ASSIGN_OR_RETURN(header, conn->recv_header());
        if (header.verb == Verb::kData) {
          // DATA payloads land in `out` itself, never in a frame buffer.
          if (header.len > out.size() - filled) {
            return conn->protocol_violation("DATA overruns the GET range");
          }
          ICKPT_RETURN_IF_ERROR(
              conn->recv_into(out.subspan(filled, header.len)));
          filled += header.len;
          continue;
        }
        ICKPT_ASSIGN_OR_RETURN(reply, conn->recv_payload(header));
        if (reply.header.verb == Verb::kDataEnd) return filled;
        if (reply.header.verb == Verb::kErr) {
          // The stream died mid-body; the connection's framing state
          // is fine (ERR terminates the stream) but the server hangs
          // up after a mid-stream error, so don't reuse it.
          return Connection::err_status(reply);
        }
        return conn->protocol_violation("expected DATA/DATA_END");
      }
    }();
    release(std::move(conn));
    return got;
  }

 private:
  /// Request expecting a bare OK.
  static Status round_trip(Connection& conn, Verb verb,
                           std::span<const std::byte> payload) {
    ICKPT_RETURN_IF_ERROR(conn.send(verb, payload));
    ICKPT_ASSIGN_OR_RETURN(reply, conn.recv());
    if (reply.header.verb == Verb::kErr) return Connection::err_status(reply);
    if (reply.header.verb != Verb::kOk) {
      return conn.protocol_violation("expected OK");
    }
    return Status::ok();
  }

  friend class RemoteWriter;
  friend class RemoteReader;

  RemoteBackendOptions options_;
  std::mutex mu_;
  std::vector<ConnPtr> idle_;
  std::atomic<std::uint64_t> bytes_stored_{0};
};

/// Streams one PUT over a leased connection.  No per-chunk ack: the
/// server replies once, at PUT_END (or with an early ERR that surfaces
/// here as a failed write).
class RemoteWriter final : public Writer {
 public:
  RemoteWriter(RemoteBackend& backend, ConnPtr conn)
      : backend_(backend), conn_(std::move(conn)) {}

  ~RemoteWriter() override {
    if (closed_ || conn_ == nullptr) return;
    // Abort: discard the partial object but keep the connection
    // reusable when the server acks cleanly.
    auto st = RemoteBackend::round_trip(*conn_, Verb::kPutAbort, {});
    if (st.is_ok()) backend_.release(std::move(conn_));
  }

  Status write(std::span<const std::byte> data) override {
    if (closed_) return failed_precondition("write after close");
    while (!data.empty()) {
      const std::size_t n = std::min(data.size(), net::kChunkSize);
      auto st = conn_->send(Verb::kPutData, data.first(n));
      if (!st.is_ok()) {
        // The send path failing usually means the server already sent
        // an ERR and hung up; try to read it so the caller sees the
        // real reason, not EPIPE.
        auto pending = conn_->recv();
        closed_ = true;
        if (pending.is_ok() && pending->header.verb == Verb::kErr) {
          return Connection::err_status(*pending);
        }
        return st;
      }
      data = data.subspan(n);
      bytes_ += n;
    }
    return Status::ok();
  }

  Status close() override {
    if (closed_) return failed_precondition("close called twice");
    closed_ = true;
    auto st = RemoteBackend::round_trip(*conn_, Verb::kPutEnd, {});
    if (st.is_ok()) {
      backend_.note_stored(bytes_);
      backend_.release(std::move(conn_));
    }
    return st;
  }

  std::uint64_t bytes_written() const noexcept override { return bytes_; }

 private:
  RemoteBackend& backend_;
  ConnPtr conn_;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

/// Ranged-GET reader.  Holds no connection between calls: every
/// read()/read_at() leases one from the pool, so hundreds of readers
/// (parallel restore) share a handful of sockets.
class RemoteReader final : public Reader {
 public:
  RemoteReader(RemoteBackend& backend, std::string key, std::uint64_t size)
      : backend_(backend), key_(std::move(key)), size_(size) {}

  Result<std::size_t> read(std::span<std::byte> out) override {
    ICKPT_ASSIGN_OR_RETURN(got, backend_.fetch_range(key_, pos_, out));
    pos_ += got;
    return got;
  }

  Result<std::size_t> read_at(std::uint64_t offset,
                              std::span<std::byte> out) override {
    return backend_.fetch_range(key_, offset, out);
  }

  bool supports_read_at() const noexcept override { return true; }
  std::uint64_t size() const noexcept override { return size_; }

 private:
  RemoteBackend& backend_;
  std::string key_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
};

Result<std::unique_ptr<Writer>> RemoteBackend::create(
    const std::string& key) {
  if (!net::valid_key(key)) return invalid_argument("invalid key: " + key);
  ICKPT_ASSIGN_OR_RETURN(conn, acquire());
  auto st = conn->send(Verb::kPutBegin, net::build_key_only(key));
  if (!st.is_ok()) return st;
  return std::unique_ptr<Writer>(
      std::make_unique<RemoteWriter>(*this, std::move(conn)));
}

Result<std::unique_ptr<Reader>> RemoteBackend::open(const std::string& key) {
  ICKPT_ASSIGN_OR_RETURN(size, stat_key(key));
  return std::unique_ptr<Reader>(
      std::make_unique<RemoteReader>(*this, key, size));
}

}  // namespace

Result<std::unique_ptr<StorageBackend>> make_remote_backend(
    const RemoteBackendOptions& options) {
  if (!net::valid_tenant(options.tenant)) {
    return invalid_argument("invalid tenant: " + options.tenant);
  }
  auto backend = std::make_unique<RemoteBackend>(options);
  // Fail fast: connectivity, version handshake and tenant validation
  // all happen on this eager dial.
  ICKPT_ASSIGN_OR_RETURN(probe, backend->acquire());
  backend->release(std::move(probe));
  return std::unique_ptr<StorageBackend>(std::move(backend));
}

}  // namespace ickpt::storage

namespace ickpt::net {

Result<std::pair<std::string, std::uint16_t>> parse_host_port(
    const std::string& addr) {
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == addr.size()) {
    return invalid_argument("expected host:port, got '" + addr + "'");
  }
  const std::string host = addr.substr(0, colon);
  const std::string port_str = addr.substr(colon + 1);
  std::uint32_t port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      return invalid_argument("bad port in '" + addr + "'");
    }
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) return invalid_argument("port out of range: " + addr);
  }
  if (port == 0) return invalid_argument("port out of range: " + addr);
  return std::make_pair(host, static_cast<std::uint16_t>(port));
}

}  // namespace ickpt::net
