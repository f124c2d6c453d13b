#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ickpt::net {

namespace {

/// Registry-owned net.* metrics (immortal, lock-free to record).
struct NetMetrics {
  obs::Counter& accepted;
  obs::Gauge& open;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Counter& protocol_errors;
  obs::Counter& idle_closed;
  obs::Counter& req_hello;
  obs::Counter& req_put;
  obs::Counter& req_get;
  obs::Counter& req_list;
  obs::Counter& req_delete;
  obs::Counter& req_stat;
  obs::Histogram& put_ns;
  obs::Histogram& get_ns;
  obs::Histogram& list_ns;
  obs::Histogram& delete_ns;
  obs::Histogram& stat_ns;

  static NetMetrics& get() {
    auto& r = obs::registry();
    static NetMetrics m{
        r.counter("net.connections"),
        r.gauge("net.conns_open"),
        r.counter("net.bytes_in"),
        r.counter("net.bytes_out"),
        r.counter("net.protocol_errors"),
        r.counter("net.idle_closed"),
        r.counter("net.req_hello"),
        r.counter("net.req_put"),
        r.counter("net.req_get"),
        r.counter("net.req_list"),
        r.counter("net.req_delete"),
        r.counter("net.req_stat"),
        r.histogram("net.put_ns"),
        r.histogram("net.get_ns"),
        r.histogram("net.list_ns"),
        r.histogram("net.delete_ns"),
        r.histogram("net.stat_ns"),
    };
    return m;
  }
};

/// Interned span names: one span per request, begin at the request
/// frame, end when the response (or the last body byte) is queued.
struct NetTrace {
  std::uint16_t t_put;
  std::uint16_t t_get;
  std::uint16_t t_list;
  std::uint16_t t_delete;
  std::uint16_t t_stat;

  static NetTrace& get() {
    static NetTrace t{
        obs::trace_name("net.put", obs::TraceCat::kNet),
        obs::trace_name("net.get", obs::TraceCat::kNet),
        obs::trace_name("net.list", obs::TraceCat::kNet),
        obs::trace_name("net.delete", obs::TraceCat::kNet),
        obs::trace_name("net.stat", obs::TraceCat::kNet),
    };
    return t;
  }
};

Status errno_error(const std::string& what) {
  return io_error(what + ": " + std::strerror(errno));
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_error("fcntl(O_NONBLOCK)");
  }
  return Status::ok();
}

/// Write the header of a frame carrying `len` payload bytes at `at`.
void put_frame_header(std::byte* at, Verb verb, std::size_t len) {
  FrameHeader h;
  h.len = static_cast<std::uint32_t>(len);
  h.verb = verb;
  encode_frame_header(
      h, std::span<std::byte, kFrameHeaderSize>(at, kFrameHeaderSize));
}

/// One client connection's state machine.
struct Conn {
  int fd = -1;
  bool helloed = false;
  bool want_close = false;      ///< close once the out queue drains
  bool dead = false;            ///< finished; reaped by the event loop
  std::string prefix;           ///< "tenant/<name>/" after HELLO

  std::vector<std::byte> in;    ///< unparsed request bytes
  std::size_t in_off = 0;       ///< consumed prefix of `in`

  std::deque<std::vector<std::byte>> out;
  std::size_t out_off = 0;      ///< sent prefix of out.front()
  std::size_t out_queued = 0;   ///< total unsent bytes across `out`

  // Streaming PUT in flight.
  std::unique_ptr<storage::Writer> put_writer;
  std::uint64_t put_t0 = 0;

  // Streaming GET in flight.
  std::unique_ptr<storage::Reader> get_reader;
  std::uint64_t get_next = 0;   ///< next offset to read
  std::uint64_t get_left = 0;   ///< bytes still to send
  std::uint64_t get_sent = 0;
  std::uint64_t get_t0 = 0;

  std::uint64_t last_active_ns = 0;

  bool get_active() const noexcept { return get_reader != nullptr; }
};

}  // namespace

class Server::Impl {
 public:
  Impl(storage::StorageBackend& backend, ServerOptions options)
      : backend_(backend), options_(std::move(options)) {}

  ~Impl() {
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (stop_fd_ >= 0) ::close(stop_fd_);
  }

  Status init() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return errno_error("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bind.c_str(), &addr.sin_addr) != 1) {
      return invalid_argument("bad bind address: " + options_.bind);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      return errno_error("bind " + options_.bind + ":" +
                         std::to_string(options_.port));
    }
    if (::listen(listen_fd_, 128) != 0) return errno_error("listen");
    ICKPT_RETURN_IF_ERROR(set_nonblocking(listen_fd_));

    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return errno_error("getsockname");
    }
    port_ = ntohs(bound.sin_port);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return errno_error("epoll_create1");
    stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (stop_fd_ < 0) return errno_error("eventfd");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      return errno_error("epoll_ctl(listen)");
    }
    ev.events = EPOLLIN;
    ev.data.fd = stop_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev) != 0) {
      return errno_error("epoll_ctl(stop)");
    }
    return Status::ok();
  }

  std::uint16_t port() const noexcept { return port_; }

  std::size_t open_connections() const noexcept {
    return open_.load(std::memory_order_relaxed);
  }

  void stop() noexcept {
    const std::uint64_t one = 1;
    // eventfd write is async-signal-safe; ignore short-write (can't
    // happen for 8 bytes) and EAGAIN (counter already nonzero).
    [[maybe_unused]] ssize_t rc = ::write(stop_fd_, &one, sizeof one);
  }

  Status serve() {
    const std::uint64_t idle_ns =
        options_.idle_timeout_s > 0
            ? static_cast<std::uint64_t>(options_.idle_timeout_s * 1e9)
            : 0;
    // Sweep granularity: a quarter of the timeout, clamped to [10ms, 1s].
    const int wait_ms =
        idle_ns == 0
            ? 1000
            : static_cast<int>(std::clamp<std::uint64_t>(
                  idle_ns / 4'000'000, 10, 1000));

    epoll_event events[64];
    for (;;) {
      const int n = ::epoll_wait(epoll_fd_, events, 64, wait_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno_error("epoll_wait");
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == stop_fd_) return Status::ok();
        if (fd == listen_fd_) {
          accept_all();
          continue;
        }
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        Conn* conn = it->second.get();
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(conn);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) on_writable(conn);
        // on_readable closes directly on EOF/read error; re-check.
        if (conns_.count(fd) == 0) continue;
        if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
          on_readable(conn);
        }
        // Connections the send path finished with are only *marked*
        // dead (handlers up the stack still hold the pointer); reap
        // them here, where nothing references them anymore.
        auto dead_it = conns_.find(fd);
        if (dead_it != conns_.end() && dead_it->second->dead) {
          close_conn(dead_it->second.get());
        }
      }
      if (idle_ns > 0) sweep_idle(idle_ns);
    }
  }

 private:
  // ------------------------------------------------------------ accept

  void accept_all() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN or transient error: try next wake
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->last_active_ns = obs::now_ns();
      conns_[fd] = std::move(conn);
      NetMetrics::get().accepted.inc();
      open_.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::get().open.update(
          static_cast<std::int64_t>(open_.load(std::memory_order_relaxed)));
    }
  }

  void close_conn(Conn* conn) {
    const int fd = conn->fd;
    // An unfinished PUT dies with the connection: the Writer is
    // destroyed unclosed, which aborts and discards the partial
    // object (never visible, same as a local crash mid-write).
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(fd);
    open_.fetch_sub(1, std::memory_order_relaxed);
    NetMetrics::get().open.set(
        static_cast<std::int64_t>(open_.load(std::memory_order_relaxed)));
  }

  void sweep_idle(std::uint64_t idle_ns) {
    const std::uint64_t now = obs::now_ns();
    std::vector<Conn*> victims;
    for (auto& [fd, conn] : conns_) {
      if (now - conn->last_active_ns > idle_ns) victims.push_back(conn.get());
    }
    for (Conn* conn : victims) {
      NetMetrics::get().idle_closed.inc();
      close_conn(conn);
    }
  }

  // -------------------------------------------------------------- read

  /// Read until EAGAIN, handling the complete frames after every read,
  /// so a connection buffers at most one read plus one partial frame
  /// however fast its client streams.
  void on_readable(Conn* conn) {
    std::byte buf[64 * 1024];
    for (;;) {
      const ssize_t got = ::read(conn->fd, buf, sizeof buf);
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        close_conn(conn);
        return;
      }
      if (got == 0) {
        close_conn(conn);
        return;
      }
      NetMetrics::get().bytes_in.inc(static_cast<std::uint64_t>(got));
      conn->in.insert(conn->in.end(), buf, buf + got);
      conn->last_active_ns = obs::now_ns();
      if (!process_frames(conn)) return;  // conn closed
    }
  }

  /// Parse and handle every complete frame in the input buffer.
  /// Returns false when the connection was closed.
  bool process_frames(Conn* conn) {
    while (!conn->want_close) {
      const std::size_t avail = conn->in.size() - conn->in_off;
      if (avail < kFrameHeaderSize) break;
      auto header = decode_frame_header(
          std::span<const std::byte, kFrameHeaderSize>(
              conn->in.data() + conn->in_off, kFrameHeaderSize));
      if (!header.is_ok()) {
        // Unknown verb or hostile length: the stream cannot be
        // resynchronized, so reply and hang up.
        protocol_error(conn, ErrorCode::kInvalidArgument,
                       header.status().message());
        break;
      }
      if (avail < kFrameHeaderSize + header->len) break;  // partial frame
      const std::span<const std::byte> payload(
          conn->in.data() + conn->in_off + kFrameHeaderSize, header->len);
      conn->in_off += kFrameHeaderSize + header->len;
      if (!handle_frame(conn, *header, payload)) return false;
    }
    // Reclaim consumed bytes once the parse position passed the
    // halfway mark (amortized O(1) per byte).
    if (conn->in_off > 0 && conn->in_off * 2 >= conn->in.size()) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() +
                         static_cast<std::ptrdiff_t>(conn->in_off));
      conn->in_off = 0;
    }
    return true;
  }

  /// Dispatch one frame.  Returns false when the connection was
  /// closed (caller must not touch it again).
  bool handle_frame(Conn* conn, const FrameHeader& header,
                    std::span<const std::byte> payload) {
    auto& m = NetMetrics::get();
    // While a GET body is streaming the client must wait for
    // DATA_END; anything else would interleave two responses.
    if (conn->get_active()) {
      protocol_error(conn, ErrorCode::kFailedPrecondition,
                     "request while a GET stream is in flight");
      return true;
    }
    if (!conn->helloed && header.verb != Verb::kHello) {
      protocol_error(conn, ErrorCode::kFailedPrecondition,
                     "first frame must be HELLO");
      return true;
    }
    switch (header.verb) {
      case Verb::kHello: {
        m.req_hello.inc();
        auto msg = parse_hello(payload);
        if (!msg.is_ok()) {
          protocol_error(conn, ErrorCode::kInvalidArgument,
                         msg.status().message());
          return true;
        }
        if (msg->version != kWireVersion) {
          protocol_error(conn, ErrorCode::kFailedPrecondition,
                         "version mismatch: client speaks " +
                             std::to_string(msg->version) +
                             ", server speaks " +
                             std::to_string(kWireVersion));
          return true;
        }
        if (!valid_tenant(msg->tenant)) {
          protocol_error(conn, ErrorCode::kInvalidArgument,
                         "invalid tenant name");
          return true;
        }
        conn->helloed = true;
        conn->prefix = "tenant/" + msg->tenant + "/";
        std::vector<std::byte> reply;
        put_u32(reply, kWireVersion);
        return send_frame(conn, Verb::kHelloOk, reply);
      }

      case Verb::kPutBegin: {
        m.req_put.inc();
        if (conn->put_writer != nullptr) {
          protocol_error(conn, ErrorCode::kFailedPrecondition,
                         "PUT_BEGIN while a PUT is already open");
          return true;
        }
        auto key = parse_key_only(payload);
        if (!key.is_ok() || !valid_key(*key)) {
          protocol_error(conn, ErrorCode::kInvalidArgument,
                         key.is_ok() ? "invalid key" :
                                       key.status().message());
          return true;
        }
        obs::trace_emit(NetTrace::get().t_put, obs::TracePhase::kBegin,
                        static_cast<std::uint64_t>(conn->fd));
        auto writer = backend_.create(conn->prefix + *key);
        if (!writer.is_ok()) {
          obs::trace_emit(NetTrace::get().t_put, obs::TracePhase::kEnd);
          // The client streams data without waiting for an ack, so the
          // frames already in flight have nowhere to go: hang up.
          conn->want_close = true;
          return send_err(conn, writer.status());
        }
        conn->put_writer = std::move(writer.value());
        conn->put_t0 = obs::now_ns();
        return true;  // no ack until PUT_END: data frames stream next
      }

      case Verb::kPutData: {
        if (conn->put_writer == nullptr) {
          protocol_error(conn, ErrorCode::kFailedPrecondition,
                         "PUT_DATA without PUT_BEGIN");
          return true;
        }
        auto st = conn->put_writer->write(payload);
        if (!st.is_ok()) {
          // Backend failure mid-stream: abort the object, report, and
          // close — the client's remaining chunks have nowhere to go.
          conn->put_writer.reset();
          obs::trace_emit(NetTrace::get().t_put, obs::TracePhase::kEnd);
          conn->want_close = true;
          return send_err(conn, st);
        }
        return true;
      }

      case Verb::kPutEnd: {
        if (conn->put_writer == nullptr) {
          protocol_error(conn, ErrorCode::kFailedPrecondition,
                         "PUT_END without PUT_BEGIN");
          return true;
        }
        const std::uint64_t bytes = conn->put_writer->bytes_written();
        auto st = conn->put_writer->close();
        conn->put_writer.reset();
        obs::trace_emit(NetTrace::get().t_put, obs::TracePhase::kEnd,
                        static_cast<std::uint64_t>(conn->fd), bytes);
        if (obs::enabled()) {
          m.put_ns.record(obs::now_ns() - conn->put_t0);
        }
        if (!st.is_ok()) return send_err(conn, st);
        return send_frame(conn, Verb::kOk, {});
      }

      case Verb::kPutAbort: {
        if (conn->put_writer == nullptr) {
          protocol_error(conn, ErrorCode::kFailedPrecondition,
                         "PUT_ABORT without PUT_BEGIN");
          return true;
        }
        conn->put_writer.reset();  // destroy unclosed = abort + discard
        obs::trace_emit(NetTrace::get().t_put, obs::TracePhase::kEnd);
        return send_frame(conn, Verb::kOk, {});
      }

      case Verb::kGet: {
        m.req_get.inc();
        auto msg = parse_get(payload);
        if (!msg.is_ok() || !valid_key(msg->key)) {
          protocol_error(conn, ErrorCode::kInvalidArgument,
                         msg.is_ok() ? "invalid key"
                                     : msg.status().message());
          return true;
        }
        obs::trace_emit(NetTrace::get().t_get, obs::TracePhase::kBegin,
                        static_cast<std::uint64_t>(conn->fd));
        auto reader = backend_.open(conn->prefix + msg->key);
        if (!reader.is_ok()) {
          obs::trace_emit(NetTrace::get().t_get, obs::TracePhase::kEnd);
          return send_err(conn, reader.status());
        }
        conn->get_reader = std::move(reader.value());
        conn->get_next = msg->offset;
        const std::uint64_t size = conn->get_reader->size();
        const std::uint64_t past =
            msg->offset < size ? size - msg->offset : 0;
        conn->get_left =
            msg->length == kWholeObject ? past : std::min(msg->length, past);
        conn->get_sent = 0;
        conn->get_t0 = obs::now_ns();
        return pump_get(conn);
      }

      case Verb::kList: {
        m.req_list.inc();
        obs::TraceSpan span(NetTrace::get().t_list,
                            static_cast<std::uint64_t>(conn->fd));
        const std::uint64_t t0 = obs::now_ns();
        auto keys = backend_.list();
        if (!keys.is_ok()) return send_err(conn, keys.status());
        std::vector<std::string> visible;
        for (const auto& key : *keys) {
          if (key.rfind(conn->prefix, 0) == 0) {
            visible.push_back(key.substr(conn->prefix.size()));
          }
        }
        auto reply = build_list_ok(visible);
        if (reply.size() > kMaxFramePayload) {
          return send_err(
              conn, Status(ErrorCode::kResourceExhausted,
                           "listing exceeds the 1 MiB frame cap"));
        }
        if (obs::enabled()) m.list_ns.record(obs::now_ns() - t0);
        return send_frame(conn, Verb::kListOk, reply);
      }

      case Verb::kDelete: {
        m.req_delete.inc();
        obs::TraceSpan span(NetTrace::get().t_delete,
                            static_cast<std::uint64_t>(conn->fd));
        const std::uint64_t t0 = obs::now_ns();
        auto key = parse_key_only(payload);
        if (!key.is_ok() || !valid_key(*key)) {
          protocol_error(conn, ErrorCode::kInvalidArgument,
                         key.is_ok() ? "invalid key"
                                     : key.status().message());
          return true;
        }
        auto st = backend_.remove(conn->prefix + *key);
        if (obs::enabled()) m.delete_ns.record(obs::now_ns() - t0);
        if (!st.is_ok()) return send_err(conn, st);
        return send_frame(conn, Verb::kOk, {});
      }

      case Verb::kStat: {
        m.req_stat.inc();
        obs::TraceSpan span(NetTrace::get().t_stat,
                            static_cast<std::uint64_t>(conn->fd));
        const std::uint64_t t0 = obs::now_ns();
        auto key = parse_key_only(payload);
        if (!key.is_ok() || !valid_key(*key)) {
          protocol_error(conn, ErrorCode::kInvalidArgument,
                         key.is_ok() ? "invalid key"
                                     : key.status().message());
          return true;
        }
        auto reader = backend_.open(conn->prefix + *key);
        if (obs::enabled()) m.stat_ns.record(obs::now_ns() - t0);
        if (!reader.is_ok()) return send_err(conn, reader.status());
        return send_frame(conn, Verb::kStatOk,
                          build_stat_ok((*reader)->size()));
      }

      default:
        // Response verbs arriving at the server are protocol errors.
        protocol_error(conn, ErrorCode::kInvalidArgument,
                       "unexpected verb " +
                           std::string(to_string(header.verb)));
        return true;
    }
  }

  // --------------------------------------------------------------- get

  /// Stream DATA frames while the unsent queue is under the in-flight
  /// cap; on cap, pumping resumes from on_writable as bytes drain.
  /// Each chunk, of a whole object or a range alike, is read with
  /// read_at straight into its frame, and the frame that completes the
  /// body carries DATA_END behind it, so both leave in one send.
  /// Returns false when the connection was closed.
  bool pump_get(Conn* conn) {
    while (conn->get_active()) {
      if (conn->get_left == 0) return finish_get(conn, Status::ok());
      if (conn->out_queued >= options_.max_inflight_bytes) return true;
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(conn->get_left, kChunkSize));
      const bool last = want == conn->get_left;
      std::vector<std::byte> frame(kFrameHeaderSize + want +
                                   (last ? kFrameHeaderSize : 0));
      const std::span<std::byte> chunk(frame.data() + kFrameHeaderSize,
                                       want);
      Result<std::size_t> got =
          conn->get_reader->read_at(conn->get_next, chunk);
      if (!got.is_ok()) return finish_get(conn, got.status());
      if (*got == 0) {
        // Object shorter than its own size() promised: damage.
        return finish_get(conn,
                          corruption("object truncated mid-stream"));
      }
      conn->get_next += *got;
      conn->get_left -= *got;
      conn->get_sent += *got;
      put_frame_header(frame.data(), Verb::kData, *got);
      std::size_t size = kFrameHeaderSize + *got;
      if (conn->get_left == 0) {
        put_frame_header(frame.data() + size, Verb::kDataEnd, 0);
        size += kFrameHeaderSize;
        end_get(conn);
      }
      frame.resize(size);
      if (!queue_frame(conn, std::move(frame))) return false;
    }
    return true;
  }

  /// The GET stream's bookkeeping once its last body byte is queued.
  void end_get(Conn* conn) {
    conn->get_reader.reset();
    obs::trace_emit(NetTrace::get().t_get, obs::TracePhase::kEnd,
                    static_cast<std::uint64_t>(conn->fd), conn->get_sent);
    if (obs::enabled()) {
      NetMetrics::get().get_ns.record(obs::now_ns() - conn->get_t0);
    }
  }

  /// Close out a GET stream: DATA_END on success, ERR on failure.
  bool finish_get(Conn* conn, const Status& st) {
    end_get(conn);
    if (!st.is_ok()) {
      // Mid-stream failure: the client has partial DATA, so the
      // stream cannot be completed coherently — report and hang up.
      conn->want_close = true;
      return send_err(conn, st);
    }
    return send_frame(conn, Verb::kDataEnd, {});
  }

  // ------------------------------------------------------------- write

  /// The send path never frees the Conn (callers up the stack hold
  /// the pointer): it marks the connection dead and the event loop
  /// reaps it at a safe point.
  void mark_dead(Conn* conn) {
    conn->dead = true;
    conn->want_close = true;
    conn->out.clear();
    conn->out_off = 0;
    conn->out_queued = 0;
  }

  /// Queue one frame and flush as much as the socket accepts.
  /// Returns false when the connection is finished (write error or
  /// close-after-drain); the caller must stop using it, but the Conn
  /// itself stays valid until the event loop reaps it.
  bool send_frame(Conn* conn, Verb verb, std::span<const std::byte> payload,
                  std::uint16_t code = 0) {
    return queue_frame(conn, build_frame(verb, payload, code));
  }

  /// Queue whole frames' bytes and flush; returns as send_frame does.
  bool queue_frame(Conn* conn, std::vector<std::byte> bytes) {
    if (conn->dead) return false;
    conn->out_queued += bytes.size();
    conn->out.push_back(std::move(bytes));
    return flush_out(conn);
  }

  bool send_err(Conn* conn, const Status& st) {
    return send_frame(conn, Verb::kErr, build_err_payload(st.message()),
                      to_wire_code(st.code()));
  }

  /// Protocol violation: count it, report it, and close after the
  /// reply drains.  The stream is never trusted again.
  void protocol_error(Conn* conn, ErrorCode code, const std::string& msg) {
    NetMetrics::get().protocol_errors.inc();
    conn->want_close = true;  // before the send: close once it drains
    (void)send_frame(conn, Verb::kErr, build_err_payload(msg),
                     to_wire_code(code));
  }

  /// Write queued bytes until EAGAIN or empty.  Returns false when
  /// the connection is finished (marked dead, reaped later).
  bool flush_out(Conn* conn) {
    if (conn->dead) return false;
    while (!conn->out.empty()) {
      const auto& front = conn->out.front();
      const std::size_t left = front.size() - conn->out_off;
      const ssize_t sent =
          ::send(conn->fd, front.data() + conn->out_off, left, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        mark_dead(conn);
        return false;
      }
      NetMetrics::get().bytes_out.inc(static_cast<std::uint64_t>(sent));
      conn->out_off += static_cast<std::size_t>(sent);
      conn->out_queued -= static_cast<std::size_t>(sent);
      if (conn->out_off == front.size()) {
        conn->out.pop_front();
        conn->out_off = 0;
      }
    }
    if (conn->want_close) {
      mark_dead(conn);
      return false;
    }
    return true;
  }

  /// EPOLLOUT: drain the queue, then resume a paused GET stream.
  void on_writable(Conn* conn) {
    conn->last_active_ns = obs::now_ns();
    if (!flush_out(conn)) return;
    if (conn->get_active()) (void)pump_get(conn);
  }

  storage::StorageBackend& backend_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int stop_fd_ = -1;
  std::uint16_t port_ = 0;
  std::map<int, std::unique_ptr<Conn>> conns_;
  std::atomic<std::size_t> open_{0};
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::create(
    storage::StorageBackend& backend, const ServerOptions& options) {
  if (options.max_inflight_bytes == 0) {
    return invalid_argument("max_inflight_bytes must be > 0");
  }
  auto impl = std::make_unique<Impl>(backend, options);
  ICKPT_RETURN_IF_ERROR(impl->init());
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

std::uint16_t Server::port() const noexcept { return impl_->port(); }
Status Server::serve() { return impl_->serve(); }
void Server::stop() noexcept { impl_->stop(); }
std::size_t Server::open_connections() const noexcept {
  return impl_->open_connections();
}

}  // namespace ickpt::net
