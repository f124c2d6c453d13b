#include "common/io_util.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace ickpt::ioutil {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST(IoUtilTest, ReadFullAssemblesShortReads) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Writer dribbles the payload in small pieces; read_full must stitch
  // them into one exact-length read.
  const std::string payload = "incremental checkpointing is feasible";
  std::thread writer([&] {
    for (char c : payload) {
      ASSERT_TRUE(write_full(fds[1], as_bytes(std::string(1, c))).is_ok());
    }
    ::close(fds[1]);
  });
  std::vector<std::byte> buf(payload.size());
  auto got = read_full(fds[0], buf);
  writer.join();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, payload.size());
  EXPECT_EQ(std::memcmp(buf.data(), payload.data(), payload.size()), 0);
  ::close(fds[0]);
}

TEST(IoUtilTest, ReadFullReturnsShortCountAtEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(write_full(fds[1], as_bytes("abc")).is_ok());
  ::close(fds[1]);
  std::vector<std::byte> buf(16);
  auto got = read_full(fds[0], buf);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, 3u);
  auto eof = read_full(fds[0], buf);
  ASSERT_TRUE(eof.is_ok());
  EXPECT_EQ(*eof, 0u);
  ::close(fds[0]);
}

TEST(IoUtilTest, WriteFullPushesThroughTinySocketBuffers) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Shrink the send buffer so a large write must go through several
  // short ::write calls.
  int small = 4096;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  const std::size_t n = 1u << 20;
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(i * 131 + 7);
  }
  std::thread writer([&] {
    ASSERT_TRUE(write_full(sv[0], out).is_ok());
    ::close(sv[0]);
  });
  std::vector<std::byte> in(n);
  auto got = read_full(sv[1], in);
  writer.join();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, n);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), n), 0);
  ::close(sv[1]);
}

TEST(IoUtilTest, WriteFullReportsErrno) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  // Writing to a pipe with no reader raises SIGPIPE by default; tests
  // want the EPIPE status instead.
  ::signal(SIGPIPE, SIG_IGN);
  auto st = write_full(fds[1], as_bytes("doomed"));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kIoError);
  ::close(fds[1]);
}

TEST(IoUtilTest, PwriteFullGathersPiecesAtAnOffsetAndLeavesThePosition) {
  char path[] = "/tmp/ickpt_pwrite_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::unlink(path);
  // More pieces than one pwritev batch takes, some of them empty, so
  // the loop has to resume mid-list.
  std::vector<std::string> strings;
  for (int i = 0; i < 150; ++i) {
    strings.push_back(i % 7 == 0 ? "" : std::to_string(i) + ",");
  }
  std::vector<std::span<const std::byte>> pieces;
  std::string expect = "head";
  for (const auto& s : strings) {
    pieces.push_back(as_bytes(s));
    expect += s;
  }
  ASSERT_TRUE(write_full(fd, as_bytes("head")).is_ok());
  ASSERT_TRUE(pwrite_full(fd, pieces, 4).is_ok());
  EXPECT_EQ(::lseek(fd, 0, SEEK_CUR), 4);  // position untouched
  std::vector<std::byte> got(expect.size() + 1);
  ASSERT_EQ(::pread(fd, got.data(), got.size(), 0),
            static_cast<ssize_t>(expect.size()));
  EXPECT_EQ(std::memcmp(got.data(), expect.data(), expect.size()), 0);

  const std::span<const std::byte> none[] = {as_bytes("")};
  EXPECT_TRUE(pwrite_full(fd, none, 0).is_ok());
  ::close(fd);
  const std::span<const std::byte> one[] = {as_bytes("x")};
  EXPECT_EQ(pwrite_full(fd, one, 0).code(), ErrorCode::kIoError);
}

TEST(IoUtilTest, GenericReadFullHandlesChunkedSources) {
  // A source that returns at most 3 bytes per call.
  const std::string payload = "0123456789abcdef";
  std::size_t pos = 0;
  auto rd = [&](std::span<std::byte> out) -> Result<std::size_t> {
    const std::size_t n =
        std::min({out.size(), std::size_t{3}, payload.size() - pos});
    std::memcpy(out.data(), payload.data() + pos, n);
    pos += n;
    return n;
  };
  std::vector<std::byte> buf(payload.size());
  auto got = read_full(rd, buf);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, payload.size());
  EXPECT_EQ(std::memcmp(buf.data(), payload.data(), payload.size()), 0);

  // EOF mid-request yields a short count, not an error.
  pos = 0;
  std::vector<std::byte> big(64);
  auto short_got = read_full(rd, big);
  ASSERT_TRUE(short_got.is_ok());
  EXPECT_EQ(*short_got, payload.size());

  // Errors propagate unchanged.
  auto bad = [](std::span<std::byte>) -> Result<std::size_t> {
    return io_error("injected");
  };
  std::vector<std::byte> tiny(4);
  EXPECT_EQ(read_full(bad, tiny).status().code(), ErrorCode::kIoError);
}

TEST(SendFullTest, MovesEveryByteAcrossASocketPair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::vector<std::byte> payload(100000, std::byte{0xab});
  std::thread receiver([&] {
    std::vector<std::byte> got(payload.size());
    auto n = read_full(sv[1], got);
    EXPECT_TRUE(n.is_ok());
    EXPECT_EQ(*n, payload.size());
    EXPECT_EQ(std::memcmp(got.data(), payload.data(), got.size()), 0);
  });
  EXPECT_TRUE(send_full(sv[0], payload).is_ok());
  receiver.join();
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(SendFullTest, ClosedPeerIsAStatusNotSigpipe) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);  // peer hangs up before we send
  // With plain write() this would raise SIGPIPE and kill the test
  // runner; MSG_NOSIGNAL turns it into EPIPE -> kIoError.
  std::vector<std::byte> payload(4096, std::byte{0x01});
  auto st = send_full(sv[0], payload);
  EXPECT_EQ(st.code(), ErrorCode::kIoError);
  ::close(sv[0]);
}

}  // namespace
}  // namespace ickpt::ioutil
