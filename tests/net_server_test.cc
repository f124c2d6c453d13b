// ickptd server tests: full round trips through RemoteBackend against
// a live in-process epoll server, plus raw-socket abuse — protocol
// negatives, client drops mid-PUT, backpressure, byte-exact ranged GETs
// at chunk edges and idle timeouts.
#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/io_util.h"
#include "common/rng.h"
#include "net/remote_backend.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "storage/backend.h"

namespace ickpt::net {
namespace {

using namespace std::chrono_literals;

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_index(256));
  return out;
}

/// Spin until `pred` holds or ~2s pass.
template <typename Pred>
bool eventually(Pred&& pred) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

/// A hand-driven blocking client for protocol-abuse tests.
class RawClient {
 public:
  ~RawClient() { close(); }

  bool connect_to(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr) == 0;
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  Status send_raw(std::span<const std::byte> bytes) {
    return ioutil::write_full(fd_, bytes);
  }

  Status send_frame(Verb verb, std::span<const std::byte> payload) {
    return send_raw(build_frame(verb, payload));
  }

  struct Frame {
    FrameHeader header;
    std::vector<std::byte> payload;
  };

  Result<Frame> recv_frame() {
    std::byte hdr[kFrameHeaderSize];
    ICKPT_ASSIGN_OR_RETURN(got, ioutil::read_full(fd_, hdr));
    if (got < kFrameHeaderSize) return io_error("connection closed");
    ICKPT_ASSIGN_OR_RETURN(
        header, decode_frame_header(
                    std::span<const std::byte, kFrameHeaderSize>(hdr)));
    Frame frame;
    frame.header = header;
    frame.payload.resize(header.len);
    if (header.len > 0) {
      ICKPT_ASSIGN_OR_RETURN(body, ioutil::read_full(fd_, frame.payload));
      if (body < frame.payload.size()) return io_error("closed mid-frame");
    }
    return frame;
  }

  /// True when the server closed the connection (clean EOF or reset).
  bool at_eof() {
    std::byte b;
    const ssize_t got = ::read(fd_, &b, 1);
    return got == 0 || (got < 0 && errno == ECONNRESET);
  }

  Status hello(const std::string& tenant = "t") {
    ICKPT_RETURN_IF_ERROR(
        send_frame(Verb::kHello, build_hello({kWireVersion, tenant})));
    ICKPT_ASSIGN_OR_RETURN(reply, recv_frame());
    if (reply.header.verb != Verb::kHelloOk) {
      return internal_error("expected HELLO_OK");
    }
    return Status::ok();
  }

 private:
  int fd_ = -1;
};

/// Served store that measures the daemon's intake: at every write it
/// takes, it records how far `net.bytes_in` (counted from `arm()`) ran
/// ahead of the bytes handed to the store so far.
class IntakeLagBackend final : public storage::StorageBackend {
 public:
  void arm() {
    base_ = bytes_in_.value();
    handed_ = 0;
    max_lag_ = 0;
  }
  std::uint64_t max_lag() const { return max_lag_.load(); }
  std::uint64_t handed() const { return handed_.load(); }

  Result<std::unique_ptr<storage::Writer>> create(
      const std::string& key) override {
    auto w = inner_->create(key);
    if (!w.is_ok()) return w.status();
    return std::unique_ptr<storage::Writer>(
        new LagWriter(std::move(*w), this));
  }
  Result<std::unique_ptr<storage::Reader>> open(
      const std::string& key) override {
    return inner_->open(key);
  }
  Status remove(const std::string& key) override {
    return inner_->remove(key);
  }
  Result<std::vector<std::string>> list() override { return inner_->list(); }
  bool exists(const std::string& key) override { return inner_->exists(key); }
  std::uint64_t total_bytes_stored() const noexcept override {
    return inner_->total_bytes_stored();
  }

 private:
  class LagWriter final : public storage::Writer {
   public:
    LagWriter(std::unique_ptr<storage::Writer> inner, IntakeLagBackend* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Status write(std::span<const std::byte> data) override {
      const std::uint64_t handed = owner_->handed_ += data.size();
      const std::uint64_t in = owner_->bytes_in_.value() - owner_->base_.load();
      if (in > handed && in - handed > owner_->max_lag_) {
        owner_->max_lag_ = in - handed;
      }
      return inner_->write(data);
    }
    Status close() override { return inner_->close(); }
    std::uint64_t bytes_written() const noexcept override {
      return inner_->bytes_written();
    }

   private:
    std::unique_ptr<storage::Writer> inner_;
    IntakeLagBackend* owner_;
  };

  std::unique_ptr<storage::StorageBackend> inner_ =
      storage::make_memory_backend();
  obs::Counter& bytes_in_ = obs::registry().counter("net.bytes_in");
  std::atomic<std::uint64_t> base_{0};
  std::atomic<std::uint64_t> handed_{0};
  std::atomic<std::uint64_t> max_lag_{0};
};

class NetServerTest : public ::testing::Test {
 protected:
  void start(ServerOptions options = {}) {
    if (backend_ == nullptr) backend_ = storage::make_memory_backend();
    auto server = Server::create(*backend_, options);
    ASSERT_TRUE(server.is_ok()) << server.status().message();
    server_ = std::move(server.value());
    serve_thread_ = std::thread([this] { serve_status_ = server_->serve(); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->stop();
      serve_thread_.join();
      EXPECT_TRUE(serve_status_.is_ok()) << serve_status_.message();
    }
  }

  storage::RemoteBackendOptions remote_options(
      const std::string& tenant = "t") {
    storage::RemoteBackendOptions options;
    options.host = "127.0.0.1";
    options.port = server_->port();
    options.tenant = tenant;
    options.io_timeout_s = 5.0;
    return options;
  }

  std::unique_ptr<storage::StorageBackend> backend_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  Status serve_status_;
};

TEST_F(NetServerTest, PutGetRoundTripAcrossChunks) {
  start();
  auto remote = storage::make_remote_backend(remote_options());
  ASSERT_TRUE(remote.is_ok()) << remote.status().message();
  auto& store = **remote;

  // 1 MiB exercises PUT_DATA and DATA chunking in both directions.
  const auto payload = pattern_bytes(1u << 20, 1);
  {
    auto writer = store.create("rank0/ckpt-1");
    ASSERT_TRUE(writer.is_ok()) << writer.status().message();
    // Uneven slices so frame boundaries never line up with chunk size.
    std::span<const std::byte> rest(payload);
    while (!rest.empty()) {
      const std::size_t n = std::min<std::size_t>(rest.size(), 300001);
      ASSERT_TRUE((*writer)->write(rest.first(n)).is_ok());
      rest = rest.subspan(n);
    }
    EXPECT_EQ((*writer)->bytes_written(), payload.size());
    ASSERT_TRUE((*writer)->close().is_ok());
  }

  EXPECT_TRUE(store.exists("rank0/ckpt-1"));
  EXPECT_EQ(store.total_bytes_stored(), payload.size());
  auto listed = store.list();
  ASSERT_TRUE(listed.is_ok());
  EXPECT_EQ(*listed, std::vector<std::string>{"rank0/ckpt-1"});

  // Server-side, the object lives under the tenant prefix.
  auto raw_listed = backend_->list();
  ASSERT_TRUE(raw_listed.is_ok());
  EXPECT_EQ(*raw_listed, std::vector<std::string>{"tenant/t/rank0/ckpt-1"});

  auto reader = store.open("rank0/ckpt-1");
  ASSERT_TRUE(reader.is_ok()) << reader.status().message();
  EXPECT_EQ((*reader)->size(), payload.size());
  EXPECT_TRUE((*reader)->supports_read_at());

  // Sequential read in odd-sized slices.
  std::vector<std::byte> got(payload.size());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t want =
        std::min<std::size_t>(got.size() - pos + 17, 123457);
    std::vector<std::byte> chunk(want);
    auto n = (*reader)->read(chunk);
    ASSERT_TRUE(n.is_ok()) << n.status().message();
    if (*n == 0) break;
    ASSERT_LE(pos + *n, got.size());
    std::memcpy(got.data() + pos, chunk.data(), *n);
    pos += *n;
  }
  EXPECT_EQ(pos, payload.size());
  EXPECT_EQ(got, payload);

  // Ranged reads: cross-chunk, tail, and past-EOF.
  std::vector<std::byte> range(300000);
  auto n = (*reader)->read_at(200000, range);
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(*n, range.size());
  EXPECT_EQ(0, std::memcmp(range.data(), payload.data() + 200000, *n));

  n = (*reader)->read_at(payload.size() - 5, range);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(*n, 5u);

  n = (*reader)->read_at(payload.size() + 7, range);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(*n, 0u);

  ASSERT_TRUE(store.remove("rank0/ckpt-1").is_ok());
  EXPECT_FALSE(store.exists("rank0/ckpt-1"));
  EXPECT_EQ(store.open("rank0/ckpt-1").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(store.remove("rank0/ckpt-1").code(), ErrorCode::kNotFound);
}

TEST_F(NetServerTest, WriterDestroyedUncloseDiscardsObject) {
  start();
  auto remote = storage::make_remote_backend(remote_options());
  ASSERT_TRUE(remote.is_ok());
  auto& store = **remote;

  {
    auto writer = store.create("doomed");
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE((*writer)->write(pattern_bytes(100000, 2)).is_ok());
    // Falls out of scope unclosed: PUT_ABORT, never visible.
  }
  EXPECT_FALSE(store.exists("doomed"));
  auto raw_listed = backend_->list();
  ASSERT_TRUE(raw_listed.is_ok());
  EXPECT_TRUE(raw_listed->empty());
  EXPECT_EQ(store.total_bytes_stored(), 0u);
}

TEST_F(NetServerTest, ClientDropMidPutNeverPublishes) {
  start();
  RawClient client;
  ASSERT_TRUE(client.connect_to(server_->port()));
  ASSERT_TRUE(client.hello().is_ok());
  ASSERT_TRUE(
      client.send_frame(Verb::kPutBegin, build_key_only("torn")).is_ok());
  const auto chunk = pattern_bytes(64 * 1024, 3);
  ASSERT_TRUE(client.send_frame(Verb::kPutData, chunk).is_ok());
  client.close();  // vanish without PUT_END

  ASSERT_TRUE(eventually([&] { return server_->open_connections() == 0; }));
  auto listed = backend_->list();
  ASSERT_TRUE(listed.is_ok());
  EXPECT_TRUE(listed->empty());
}

TEST_F(NetServerTest, TenantsAreIsolated) {
  start();
  auto a = storage::make_remote_backend(remote_options("alpha"));
  auto b = storage::make_remote_backend(remote_options("beta"));
  ASSERT_TRUE(a.is_ok() && b.is_ok());

  const auto bytes_a = pattern_bytes(1000, 4);
  const auto bytes_b = pattern_bytes(2000, 5);
  for (auto [store, bytes] : {std::pair{&**a, &bytes_a}, {&**b, &bytes_b}}) {
    auto writer = store->create("shared-key");
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE((*writer)->write(*bytes).is_ok());
    ASSERT_TRUE((*writer)->close().is_ok());
  }

  for (auto [store, bytes] : {std::pair{&**a, &bytes_a}, {&**b, &bytes_b}}) {
    auto listed = store->list();
    ASSERT_TRUE(listed.is_ok());
    EXPECT_EQ(*listed, std::vector<std::string>{"shared-key"});
    auto reader = store->open("shared-key");
    ASSERT_TRUE(reader.is_ok());
    ASSERT_EQ((*reader)->size(), bytes->size());
    std::vector<std::byte> got(bytes->size());
    auto n = (*reader)->read(got);
    ASSERT_TRUE(n.is_ok());
    EXPECT_EQ(*n, bytes->size());
    EXPECT_EQ(got, *bytes);
  }

  // Deleting in one tenant leaves the other's object alone.
  ASSERT_TRUE((*a)->remove("shared-key").is_ok());
  EXPECT_FALSE((*a)->exists("shared-key"));
  EXPECT_TRUE((*b)->exists("shared-key"));
}

TEST_F(NetServerTest, ProtocolNegativesCountAndClose) {
  start();
  auto& errors = obs::registry().counter("net.protocol_errors");

  struct Case {
    const char* name;
    ErrorCode want;
    std::function<void(RawClient&)> drive;
  };
  const Case cases[] = {
      {"verb before HELLO", ErrorCode::kFailedPrecondition,
       [](RawClient& c) {
         ASSERT_TRUE(c.send_frame(Verb::kList, {}).is_ok());
       }},
      {"HELLO version mismatch", ErrorCode::kFailedPrecondition,
       [](RawClient& c) {
         ASSERT_TRUE(c.send_frame(Verb::kHello,
                                  build_hello({kWireVersion + 1, "t"}))
                         .is_ok());
       }},
      {"bad tenant", ErrorCode::kInvalidArgument,
       [](RawClient& c) {
         ASSERT_TRUE(c.send_frame(Verb::kHello,
                                  build_hello({kWireVersion, "a/b"}))
                         .is_ok());
       }},
      {"unknown verb", ErrorCode::kInvalidArgument,
       [](RawClient& c) {
         FrameHeader h;
         h.len = 0;
         h.verb = Verb::kOk;
         std::vector<std::byte> hdr(kFrameHeaderSize);
         encode_frame_header(h, std::span<std::byte, kFrameHeaderSize>(
                                    hdr.data(), hdr.size()));
         hdr[4] = std::byte{0xEE};
         ASSERT_TRUE(c.send_raw(hdr).is_ok());
       }},
      {"oversized length prefix", ErrorCode::kInvalidArgument,
       [](RawClient& c) {
         std::vector<std::byte> hdr(kFrameHeaderSize, std::byte{0xFF});
         ASSERT_TRUE(c.send_raw(hdr).is_ok());
       }},
      {"PUT_DATA without PUT_BEGIN", ErrorCode::kFailedPrecondition,
       [](RawClient& c) {
         ASSERT_TRUE(c.hello().is_ok());
         ASSERT_TRUE(
             c.send_frame(Verb::kPutData, pattern_bytes(16, 6)).is_ok());
       }},
      {"traversal key", ErrorCode::kInvalidArgument,
       [](RawClient& c) {
         ASSERT_TRUE(c.hello().is_ok());
         ASSERT_TRUE(c.send_frame(Verb::kPutBegin,
                                  build_key_only("../escape"))
                         .is_ok());
       }},
      {"response verb sent to server", ErrorCode::kInvalidArgument,
       [](RawClient& c) {
         ASSERT_TRUE(c.hello().is_ok());
         ASSERT_TRUE(c.send_frame(Verb::kDataEnd, {}).is_ok());
       }},
  };

  for (const auto& abuse : cases) {
    SCOPED_TRACE(abuse.name);
    const std::uint64_t before = errors.value();
    RawClient client;
    ASSERT_TRUE(client.connect_to(server_->port()));
    abuse.drive(client);
    auto reply = client.recv_frame();
    ASSERT_TRUE(reply.is_ok()) << reply.status().message();
    EXPECT_EQ(reply->header.verb, Verb::kErr);
    EXPECT_EQ(from_wire_code(reply->header.code), abuse.want);
    auto msg = parse_err_payload(reply->payload);
    ASSERT_TRUE(msg.is_ok());
    EXPECT_FALSE(msg->empty());
    EXPECT_TRUE(client.at_eof()) << "server must hang up";
    EXPECT_EQ(errors.value(), before + 1);
  }

  // After all that abuse the server still serves new clients.
  auto remote = storage::make_remote_backend(remote_options());
  ASSERT_TRUE(remote.is_ok()) << remote.status().message();
  auto writer = (*remote)->create("still-alive");
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE((*writer)->close().is_ok());
  EXPECT_TRUE((*remote)->exists("still-alive"));
}

TEST_F(NetServerTest, BackpressurePumpsLargeGetThroughTinyWindow) {
  ServerOptions options;
  options.max_inflight_bytes = 64 * 1024;  // far below the object size
  start(options);
  auto remote = storage::make_remote_backend(remote_options());
  ASSERT_TRUE(remote.is_ok());
  auto& store = **remote;

  const auto payload = pattern_bytes(2u << 20, 7);
  auto writer = store.create("big");
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE((*writer)->write(payload).is_ok());
  ASSERT_TRUE((*writer)->close().is_ok());

  auto reader = store.open("big");
  ASSERT_TRUE(reader.is_ok());
  std::vector<std::byte> got(payload.size());
  auto n = (*reader)->read_at(0, got);
  ASSERT_TRUE(n.is_ok()) << n.status().message();
  EXPECT_EQ(*n, payload.size());
  EXPECT_EQ(got, payload);
}

TEST_F(NetServerTest, RangedGetsAreByteExactAtChunkEdges) {
  start();
  auto remote = storage::make_remote_backend(remote_options());
  ASSERT_TRUE(remote.is_ok());
  const auto payload = pattern_bytes(3 * kChunkSize + 123, 21);
  {
    auto writer = (*remote)->create("edges");
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE((*writer)->write(payload).is_ok());
    ASSERT_TRUE((*writer)->close().is_ok());
  }
  auto reader = (*remote)->open("edges");
  ASSERT_TRUE(reader.is_ok());

  // The body as the wire carries it: DATA frames of at most one chunk,
  // then an empty DATA_END.
  RawClient raw;
  ASSERT_TRUE(raw.connect_to(server_->port()));
  ASSERT_TRUE(raw.hello().is_ok());
  const auto get_raw = [&](std::uint64_t offset, std::uint64_t length) {
    std::vector<std::byte> body;
    EXPECT_TRUE(
        raw.send_frame(Verb::kGet, build_get({"edges", offset, length}))
            .is_ok());
    for (;;) {
      auto frame = raw.recv_frame();
      if (!frame.is_ok()) {
        ADD_FAILURE() << frame.status().message();
        return body;
      }
      if (frame->header.verb == Verb::kDataEnd) {
        EXPECT_TRUE(frame->payload.empty());
        return body;
      }
      if (frame->header.verb != Verb::kData) {
        ADD_FAILURE() << "unexpected " << to_string(frame->header.verb);
        return body;
      }
      EXPECT_GT(frame->payload.size(), 0u);
      EXPECT_LE(frame->payload.size(), kChunkSize);
      body.insert(body.end(), frame->payload.begin(), frame->payload.end());
    }
  };
  const auto slice = [&](std::size_t offset, std::size_t length) {
    return std::vector<std::byte>(payload.begin() + offset,
                                  payload.begin() + offset + length);
  };

  for (std::size_t offset : {std::size_t{0}, std::size_t{777}}) {
    for (std::size_t length :
         {std::size_t{0}, std::size_t{1}, kChunkSize - 1, kChunkSize,
          kChunkSize + 1}) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " length " +
                   std::to_string(length));
      const auto want = slice(offset, length);
      EXPECT_EQ(get_raw(offset, length), want);
      // Through the client, the bytes land in the caller's span and
      // nowhere past it.
      std::vector<std::byte> got(length + 16, std::byte{0xEE});
      auto n = (*reader)->read_at(offset, std::span(got).first(length));
      ASSERT_TRUE(n.is_ok()) << n.status().message();
      EXPECT_EQ(*n, length);
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
      EXPECT_TRUE(
          std::all_of(got.begin() + static_cast<std::ptrdiff_t>(length),
                      got.end(),
                      [](std::byte b) { return b == std::byte{0xEE}; }));
    }
  }

  // Past EOF: DATA_END alone.  Across EOF: only the bytes that exist.
  EXPECT_TRUE(get_raw(payload.size(), 1).empty());
  EXPECT_TRUE(get_raw(payload.size() + 5, kChunkSize).empty());
  EXPECT_EQ(get_raw(payload.size() - 3, kChunkSize),
            slice(payload.size() - 3, 3));
  std::vector<std::byte> past(kChunkSize);
  auto n = (*reader)->read_at(payload.size() + 5, past);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(*n, 0u);
  n = (*reader)->read_at(payload.size() - 3, past);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_TRUE(std::equal(past.begin(), past.begin() + 3,
                         payload.end() - 3));
  // The whole object, streamed through the sequential read path.
  EXPECT_EQ(get_raw(0, kWholeObject), payload);
}

TEST_F(NetServerTest, IntakeStoresFramesAsTheyArrive) {
  // A client streaming a large PUT as fast as the socket allows must not
  // make the daemon buffer the object: each frame reaches the store
  // once it is complete, so the intake runs ahead of the store by at
  // most one read (64 KiB) plus one partial frame.
  auto owned = std::make_unique<IntakeLagBackend>();
  IntakeLagBackend& lag = *owned;
  backend_ = std::move(owned);
  start();
  lag.arm();
  auto remote = storage::make_remote_backend(remote_options());
  ASSERT_TRUE(remote.is_ok());

  const auto payload = pattern_bytes(32u << 20, 17);
  auto writer = (*remote)->create("stream");
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE((*writer)->write(payload).is_ok());
  ASSERT_TRUE((*writer)->close().is_ok());
  EXPECT_EQ(lag.handed(), payload.size());
  EXPECT_LT(lag.max_lag(), 64 * 1024 + kChunkSize + kFrameHeaderSize);
}

TEST_F(NetServerTest, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_s = 0.1;
  start(options);
  auto& reaped = obs::registry().counter("net.idle_closed");
  const std::uint64_t before = reaped.value();

  RawClient client;
  ASSERT_TRUE(client.connect_to(server_->port()));
  ASSERT_TRUE(client.hello().is_ok());
  ASSERT_TRUE(eventually([&] { return server_->open_connections() == 0; }));
  EXPECT_GE(reaped.value(), before + 1);
  EXPECT_TRUE(client.at_eof());
}

TEST_F(NetServerTest, StatAndGetMissingObject) {
  start();
  auto remote = storage::make_remote_backend(remote_options());
  ASSERT_TRUE(remote.is_ok());
  EXPECT_FALSE((*remote)->exists("nope"));
  EXPECT_EQ((*remote)->open("nope").status().code(), ErrorCode::kNotFound);
}

TEST_F(NetServerTest, RejectsBadRemoteOptions) {
  start();
  auto options = remote_options("bad/tenant");
  EXPECT_EQ(storage::make_remote_backend(options).status().code(),
            ErrorCode::kInvalidArgument);

  auto unreachable = remote_options();
  unreachable.port = 1;  // nothing listens there
  EXPECT_FALSE(storage::make_remote_backend(unreachable).is_ok());

  EXPECT_FALSE(parse_host_port("nocolon").is_ok());
  EXPECT_FALSE(parse_host_port(":123").is_ok());
  EXPECT_FALSE(parse_host_port("host:").is_ok());
  EXPECT_FALSE(parse_host_port("host:99999").is_ok());
  EXPECT_FALSE(parse_host_port("host:12x").is_ok());
  auto parsed = parse_host_port("127.0.0.1:8080");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->first, "127.0.0.1");
  EXPECT_EQ(parsed->second, 8080);
}

}  // namespace
}  // namespace ickpt::net
