// Acceptance: the full checkpoint -> restore pipeline run through
// RemoteBackend against a live ickptd must be byte-equivalent to the
// same pipeline run against a local FileBackend — identical object
// bytes in the store, identical restored state, healthy fsck.
#include "net/remote_backend.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <thread>

#include "checkpoint/checkpointer.h"
#include "checkpoint/inspect.h"
#include "checkpoint/restore.h"
#include "common/io_util.h"
#include "common/rng.h"
#include "net/wire.h"
#include "memtrack/explicit_engine.h"
#include "net/server.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "storage/segment_backend.h"

namespace ickpt::checkpoint {
namespace {

using memtrack::ExplicitEngine;
using region::AddressSpace;
using region::AreaKind;

void fill_pattern(std::span<std::byte> mem, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < mem.size(); i += 8) {
    std::uint64_t v = rng.next_u64();
    std::memcpy(mem.data() + i, &v, std::min<std::size_t>(8, mem.size() - i));
  }
}

std::vector<std::byte> read_object(storage::StorageBackend& store,
                                   const std::string& key) {
  auto reader = store.open(key);
  EXPECT_TRUE(reader.is_ok()) << key << ": " << reader.status().message();
  std::vector<std::byte> data((*reader)->size());
  std::size_t off = 0;
  while (off < data.size()) {
    auto got = (*reader)->read({data.data() + off, data.size() - off});
    EXPECT_TRUE(got.is_ok());
    if (!got.is_ok() || *got == 0) break;
    off += *got;
  }
  EXPECT_EQ(off, data.size());
  return data;
}

/// One rank's synthetic workload: a few blocks, dirtied and
/// checkpointed identically on every instance, so two Harness objects
/// driven with the same seeds produce byte-identical chains.
class Harness {
 public:
  explicit Harness(storage::StorageBackend* store)
      : space_(engine_, "rank0"),
        ckpt_(Checkpointer::create(space_, store).value()) {}

  void build_chain() {
    auto a = space_.map(8 * page_size(), AreaKind::kHeap, "a");
    auto b = space_.map(4 * page_size(), AreaKind::kHeap, "b");
    ASSERT_TRUE(a.is_ok() && b.is_ok());
    fill_pattern(a->mem, 101);
    fill_pattern(b->mem, 202);
    ASSERT_TRUE(ckpt_->checkpoint_full(1.0).is_ok());

    for (int step = 0; step < 4; ++step) {
      // Touch a deterministic subset of pages each step.
      Rng rng(1000 + static_cast<std::uint64_t>(step));
      for (int t = 0; t < 3; ++t) {
        auto mem = (t % 2 == 0) ? a->mem : b->mem;
        const std::size_t pages = mem.size() / page_size();
        auto page = mem.subspan(rng.next_index(pages) * page_size(),
                                page_size());
        fill_pattern(page, 5000 + static_cast<std::uint64_t>(step * 3 + t));
        engine_.note_write(page.data(), page.size());
      }
      auto snap = engine_.collect(true);
      ASSERT_TRUE(snap.is_ok());
      ASSERT_TRUE(
          ckpt_->checkpoint_incremental(*snap, 2.0 + step).is_ok());
    }
  }

 private:
  ExplicitEngine engine_;
  AddressSpace space_;
  std::unique_ptr<Checkpointer> ckpt_;
};

class NetRemoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ickpt_net_remote_" +
           std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    remote_dir_ = dir_ + "/remote";
    local_dir_ = dir_ + "/local";

    auto served = storage::make_file_backend(remote_dir_);
    ASSERT_TRUE(served.is_ok());
    served_ = std::move(served.value());
    auto server = net::Server::create(*served_);
    ASSERT_TRUE(server.is_ok()) << server.status().message();
    server_ = std::move(server.value());
    serve_thread_ = std::thread([this] { (void)server_->serve(); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->stop();
      serve_thread_.join();
    }
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<storage::StorageBackend> connect() {
    storage::RemoteBackendOptions options;
    options.host = "127.0.0.1";
    options.port = server_->port();
    options.io_timeout_s = 10.0;
    auto remote = storage::make_remote_backend(options);
    EXPECT_TRUE(remote.is_ok()) << remote.status().message();
    return std::move(remote.value());
  }

  std::string dir_, remote_dir_, local_dir_;
  std::unique_ptr<storage::StorageBackend> served_;
  std::unique_ptr<net::Server> server_;
  std::thread serve_thread_;
};

TEST_F(NetRemoteTest, ChainThroughDaemonMatchesLocalFileBackendByteForByte) {
  // Same workload into a remote store (via ickptd) and a local one.
  auto remote = connect();
  Harness remote_rank(remote.get());
  remote_rank.build_chain();

  auto local = storage::make_file_backend(local_dir_);
  ASSERT_TRUE(local.is_ok());
  Harness local_rank(local->get());
  local_rank.build_chain();

  // Identical key sets...
  auto remote_keys = remote->list();
  auto local_keys = (*local)->list();
  ASSERT_TRUE(remote_keys.is_ok() && local_keys.is_ok());
  std::sort(remote_keys->begin(), remote_keys->end());
  std::sort(local_keys->begin(), local_keys->end());
  ASSERT_EQ(*remote_keys, *local_keys);
  ASSERT_EQ(remote_keys->size(), 5u);  // 1 full + 4 incrementals

  // ...and identical bytes, object by object (fuzz-level identity:
  // the network hop must not perturb a single byte).
  for (const auto& key : *remote_keys) {
    auto via_net = read_object(*remote, key);
    auto via_disk = read_object(**local, key);
    ASSERT_EQ(via_net.size(), via_disk.size()) << key;
    EXPECT_EQ(0, std::memcmp(via_net.data(), via_disk.data(),
                             via_net.size()))
        << "byte mismatch in " << key;
  }

  // Server-side, objects live under the tenant prefix in the dir the
  // daemon serves; a FileBackend rooted there sees the same store.
  auto rerooted =
      storage::make_file_backend(remote_dir_ + "/tenant/default");
  ASSERT_TRUE(rerooted.is_ok());

  // Restore through the network equals restore from local disk,
  // block for block.
  auto via_net = restore_chain(*remote, 0);
  auto via_disk = restore_chain(**local, 0);
  auto via_reroot = restore_chain(**rerooted, 0);
  ASSERT_TRUE(via_net.is_ok()) << via_net.status().message();
  ASSERT_TRUE(via_disk.is_ok() && via_reroot.is_ok());
  for (const auto* other : {&*via_disk, &*via_reroot}) {
    EXPECT_EQ(via_net->sequence, other->sequence);
    ASSERT_EQ(via_net->blocks.size(), other->blocks.size());
    auto ia = via_net->blocks.begin();
    auto ib = other->blocks.begin();
    for (; ia != via_net->blocks.end(); ++ia, ++ib) {
      ASSERT_EQ(ia->second.data.size(), ib->second.data.size());
      EXPECT_EQ(0, std::memcmp(ia->second.data.data(),
                               ib->second.data.data(),
                               ia->second.data.size()))
          << "restored block " << ia->first;
    }
  }

  // fsck over the network store: healthy, same shape as local.
  auto net_report = inspect_store(*remote);
  auto disk_report = inspect_store(**local);
  ASSERT_TRUE(net_report.is_ok()) << net_report.status().message();
  ASSERT_TRUE(disk_report.is_ok());
  EXPECT_TRUE(net_report->healthy());
  ASSERT_EQ(net_report->chains.count(0u), 1u);
  const auto& net_chain = net_report->chains.at(0);
  const auto& disk_chain = disk_report->chains.at(0);
  EXPECT_EQ(net_chain.elements.size(), disk_chain.elements.size());
  EXPECT_EQ(net_chain.total_bytes, disk_chain.total_bytes);
  EXPECT_TRUE(net_chain.recoverable);
  EXPECT_EQ(net_chain.recoverable_upto, disk_chain.recoverable_upto);
}

TEST_F(NetRemoteTest, RestoreToleratesDamageTheSameWayOverTheNetwork) {
  auto remote = connect();
  Harness rank(remote.get());
  rank.build_chain();
  auto pristine = restore_chain(*remote, 0);
  ASSERT_TRUE(pristine.is_ok()) << pristine.status().message();

  // Corrupt the newest object server-side (under the tenant prefix).
  auto keys = served_->list();
  ASSERT_TRUE(keys.is_ok());
  std::vector<std::string> chain_keys;
  for (const auto& key : *keys) {
    if (key.find("rank0/") != std::string::npos) chain_keys.push_back(key);
  }
  std::sort(chain_keys.begin(), chain_keys.end());
  ASSERT_FALSE(chain_keys.empty());
  const std::string victim = chain_keys.back();
  auto data = read_object(*served_, victim);
  // Flip a byte of the last page payload, which the newest state needs.
  FileTrailer trailer;
  std::memcpy(&trailer, data.data() + data.size() - sizeof trailer,
              sizeof trailer);
  data[trailer.index_offset - 8] ^= std::byte{0xFF};
  auto writer = served_->create(victim);
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE((*writer)->write(data).is_ok());
  ASSERT_TRUE((*writer)->close().is_ok());

  // Strict restore over the network reports corruption; the truncated-
  // tail mode recovers to the last good prefix — same behavior as the
  // local backends.
  auto strict = restore_chain(*remote, 0);
  EXPECT_EQ(strict.status().code(), ErrorCode::kCorruption);

  RestoreOptions lenient;
  lenient.allow_truncated_tail = true;
  auto recovered = restore_chain(*remote, 0, lenient);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().message();
  EXPECT_LT(recovered->sequence, pristine->sequence);
}

// Regression: a key naming a directory in the served file store (".",
// or a prefix such as "rank0") made FileBackend::open throw
// std::filesystem::filesystem_error inside the daemon, which aborted
// it.  The daemon's STAT (behind open/exists here) and GET both open
// the key through the backend; they now answer kNotFound, and the
// daemon keeps serving.
TEST_F(NetRemoteTest, DirectoryKeysAreNotFoundAndDaemonKeepsServing) {
  auto remote = connect();
  const std::string payload = "checkpoint bytes";
  const std::span<const std::byte> bytes{
      reinterpret_cast<const std::byte*>(payload.data()), payload.size()};
  auto put = [&](const std::string& key) {
    auto writer = remote->create(key);
    ASSERT_TRUE(writer.is_ok()) << writer.status().message();
    ASSERT_TRUE((*writer)->write(bytes).is_ok());
    ASSERT_TRUE((*writer)->close().is_ok());
  };
  put("rank0/ckpt-1");

  for (const char* key : {".", "rank0"}) {
    EXPECT_EQ(remote->open(key).status().code(), ErrorCode::kNotFound)
        << key;
    EXPECT_FALSE(remote->exists(key)) << key;
  }

  put("rank0/ckpt-2");
  for (const char* key : {"rank0/ckpt-1", "rank0/ckpt-2"}) {
    const auto got = read_object(*remote, key);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(got.data()),
                          got.size()),
              payload)
        << key;
  }
}

// Acceptance: the same chain pushed through a live daemon serving a
// segment store restores byte-identically to a local FileBackend
// chain — the network store works unchanged over the log-structured
// layout (ickptd --backend=segment).
TEST(NetSegmentStoreTest, ChainThroughSegmentServedDaemonMatchesFile) {
  const std::string dir = ::testing::TempDir() + "/ickpt_net_segment_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  auto served = storage::make_segment_backend(dir + "/remote");
  ASSERT_TRUE(served.is_ok()) << served.status().message();
  auto server = net::Server::create(**served);
  ASSERT_TRUE(server.is_ok()) << server.status().message();
  std::thread serve_thread([&] { (void)(*server)->serve(); });

  storage::RemoteBackendOptions options;
  options.host = "127.0.0.1";
  options.port = (*server)->port();
  options.io_timeout_s = 10.0;
  auto remote = storage::make_remote_backend(options);
  ASSERT_TRUE(remote.is_ok()) << remote.status().message();

  Harness remote_rank(remote->get());
  remote_rank.build_chain();
  auto local = storage::make_file_backend(dir + "/local");
  ASSERT_TRUE(local.is_ok());
  Harness local_rank(local->get());
  local_rank.build_chain();

  auto remote_keys = (*remote)->list();
  auto local_keys = (*local)->list();
  ASSERT_TRUE(remote_keys.is_ok() && local_keys.is_ok());
  std::sort(remote_keys->begin(), remote_keys->end());
  std::sort(local_keys->begin(), local_keys->end());
  ASSERT_EQ(*remote_keys, *local_keys);
  for (const auto& key : *remote_keys) {
    auto via_net = read_object(**remote, key);
    auto via_disk = read_object(**local, key);
    ASSERT_EQ(via_net.size(), via_disk.size()) << key;
    EXPECT_EQ(0,
              std::memcmp(via_net.data(), via_disk.data(), via_net.size()))
        << "byte mismatch in " << key;
  }

  auto via_net = restore_chain(**remote, 0);
  auto via_disk = restore_chain(**local, 0);
  ASSERT_TRUE(via_net.is_ok()) << via_net.status().message();
  ASSERT_TRUE(via_disk.is_ok());
  EXPECT_EQ(via_net->sequence, via_disk->sequence);
  ASSERT_EQ(via_net->blocks.size(), via_disk->blocks.size());
  auto ia = via_net->blocks.begin();
  auto ib = via_disk->blocks.begin();
  for (; ia != via_net->blocks.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->second.data.size(), ib->second.data.size());
    EXPECT_EQ(0, std::memcmp(ia->second.data.data(),
                             ib->second.data.data(),
                             ia->second.data.size()))
        << "restored block " << ia->first;
  }

  // fsck over the segment store through the daemon: healthy.
  auto report = inspect_store(**remote);
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  EXPECT_TRUE(report->healthy());

  (*server)->stop();
  serve_thread.join();
  std::filesystem::remove_all(dir);
}

// Regression for the client send path: a daemon that hangs up in the
// middle of an upload must surface as a Status from write()/close(),
// not deliver SIGPIPE and kill the scientific application.  Before
// the switch to send(MSG_NOSIGNAL) this test died on the signal.
TEST(RemoteBackendSigpipeTest, ServerClosingMidPutReturnsStatus) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  // Minimal fake daemon: answer the handshake and the PUT_BEGIN, then
  // slam the door as soon as body data starts arriving.
  std::thread fake([listen_fd] {
    int cfd = ::accept(listen_fd, nullptr, nullptr);
    if (cfd < 0) return;
    auto read_frame = [cfd]() -> Result<net::FrameHeader> {
      std::byte header_bytes[net::kFrameHeaderSize];
      auto got = ioutil::read_full(cfd, header_bytes);
      if (!got.is_ok() || *got < net::kFrameHeaderSize) {
        return io_error("peer gone");
      }
      ICKPT_ASSIGN_OR_RETURN(
          header, net::decode_frame_header(
                      std::span<const std::byte, net::kFrameHeaderSize>(
                          header_bytes)));
      std::vector<std::byte> payload(header.len);
      if (header.len > 0) {
        auto body = ioutil::read_full(cfd, payload);
        if (!body.is_ok()) return io_error("peer gone");
      }
      return header;
    };
    auto reply = [cfd](net::Verb verb) {
      auto frame = net::build_frame(verb, {});
      (void)ioutil::send_full(cfd, frame);
    };
    auto hello = read_frame();
    if (hello.is_ok() && hello->verb == net::Verb::kHello) {
      reply(net::Verb::kHelloOk);
    }
    auto put_begin = read_frame();
    if (put_begin.is_ok() && put_begin->verb == net::Verb::kPutBegin) {
      reply(net::Verb::kOk);
    }
    // First body frame header arrives... and the daemon dies mid-PUT.
    (void)read_frame();
    ::close(cfd);
  });

  storage::RemoteBackendOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.io_timeout_s = 10.0;
  auto remote = storage::make_remote_backend(options);
  ASSERT_TRUE(remote.is_ok()) << remote.status().message();

  auto writer = (*remote)->create("victim");
  ASSERT_TRUE(writer.is_ok()) << writer.status().message();

  // Pump chunks until the broken pipe surfaces.  Early writes may land
  // in the socket buffer; the close must eventually come back as a
  // clean Status while this process stays alive.
  std::vector<std::byte> chunk(net::kChunkSize, std::byte{0x5a});
  Status st = Status::ok();
  for (int i = 0; i < 512 && st.is_ok(); ++i) st = (*writer)->write(chunk);
  EXPECT_FALSE(st.is_ok()) << "write never observed the hangup";
  EXPECT_EQ(st.code(), ErrorCode::kIoError) << st.message();

  writer->reset();  // abort path must also survive the dead socket
  fake.join();
  ::close(listen_fd);
}

// The client reads GET bodies straight into the caller's span.  A DATA
// frame longer than the rest of the range must be refused before any
// of it lands there, and must poison the connection; a healthy body
// (DATA and DATA_END in one segment) and an ERR still come through.
TEST(RemoteBackendGetTest, DataPastTheRangeIsRefusedAndPoisonsTheConnection) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listen_fd, 2), 0);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);
  const std::vector<std::byte> body = {std::byte{1}, std::byte{2},
                                       std::byte{3}, std::byte{4}};

  // Fake daemon, two connections.  The first answers HELLO and STAT,
  // then a GET with 20 bytes of DATA; the second answers HELLO, a GET
  // with DATA and DATA_END in one send, and a GET with ERR.
  std::thread fake([listen_fd, &body] {
    auto next_verb = [](int cfd) -> Result<net::Verb> {
      std::byte header_bytes[net::kFrameHeaderSize];
      auto got = ioutil::read_full(cfd, header_bytes);
      if (!got.is_ok() || *got < net::kFrameHeaderSize) {
        return io_error("peer gone");
      }
      ICKPT_ASSIGN_OR_RETURN(
          header, net::decode_frame_header(
                      std::span<const std::byte, net::kFrameHeaderSize>(
                          header_bytes)));
      std::vector<std::byte> payload(header.len);
      if (header.len > 0) {
        auto rest = ioutil::read_full(cfd, payload);
        if (!rest.is_ok()) return io_error("peer gone");
      }
      return header.verb;
    };
    auto send = [](int cfd, const std::vector<std::byte>& bytes) {
      (void)ioutil::send_full(cfd, bytes);
    };
    int cfd = ::accept(listen_fd, nullptr, nullptr);
    if (cfd < 0) return;
    if (next_verb(cfd).is_ok()) {
      send(cfd, net::build_frame(net::Verb::kHelloOk, {}));
    }
    if (next_verb(cfd).is_ok()) {
      send(cfd, net::build_frame(net::Verb::kStatOk, net::build_stat_ok(100)));
    }
    if (next_verb(cfd).is_ok()) {
      send(cfd, net::build_frame(net::Verb::kData,
                                 std::vector<std::byte>(20, std::byte{0x77})));
    }
    (void)next_verb(cfd);  // the client hangs up
    ::close(cfd);

    cfd = ::accept(listen_fd, nullptr, nullptr);
    if (cfd < 0) return;
    if (next_verb(cfd).is_ok()) {
      send(cfd, net::build_frame(net::Verb::kHelloOk, {}));
    }
    if (next_verb(cfd).is_ok()) {
      auto frames = net::build_frame(net::Verb::kData, body);
      const auto end = net::build_frame(net::Verb::kDataEnd, {});
      frames.insert(frames.end(), end.begin(), end.end());
      send(cfd, frames);
    }
    if (next_verb(cfd).is_ok()) {
      send(cfd, net::build_frame(net::Verb::kErr,
                                 net::build_err_payload("gone"),
                                 net::to_wire_code(ErrorCode::kNotFound)));
    }
    (void)next_verb(cfd);
    ::close(cfd);
  });

  {
    storage::RemoteBackendOptions options;
    options.host = "127.0.0.1";
    options.port = port;
    options.io_timeout_s = 10.0;
    auto remote = storage::make_remote_backend(options);
    ASSERT_TRUE(remote.is_ok()) << remote.status().message();
    auto reader = (*remote)->open("obj");
    ASSERT_TRUE(reader.is_ok()) << reader.status().message();

    std::vector<std::byte> out(26, std::byte{0xEE});
    auto got = (*reader)->read_at(0, std::span(out).first(10));
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kInternal);
    EXPECT_NE(got.status().message().find("DATA overruns the GET range"),
              std::string::npos)
        << got.status().message();
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](std::byte b) { return b == std::byte{0xEE}; }));

    // A fresh connection serves the next GETs.
    got = (*reader)->read_at(0, std::span(out).first(10));
    ASSERT_TRUE(got.is_ok()) << got.status().message();
    EXPECT_EQ(*got, body.size());
    EXPECT_TRUE(std::equal(body.begin(), body.end(), out.begin()));
    EXPECT_EQ(out[body.size()], std::byte{0xEE});
    got = (*reader)->read_at(0, std::span(out).first(10));
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
    EXPECT_EQ(got.status().message(), "gone");
  }
  fake.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace ickpt::checkpoint
