#include "minimpi/comm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

namespace ickpt::mpi {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST(RuntimeTest, RunsAllRanks) {
  std::atomic<int> count{0};
  Runtime::run(4, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 4);
    ++count;
  });
  EXPECT_EQ(count.load(), 4);
}

TEST(RuntimeTest, RejectsBadWorldSize) {
  EXPECT_THROW(Runtime::run(0, [](Comm&) {}), std::invalid_argument);
}

TEST(RuntimeTest, PropagatesException) {
  EXPECT_THROW(Runtime::run(2,
                            [](Comm& comm) {
                              if (comm.rank() == 1) {
                                throw std::runtime_error("rank 1 died");
                              }
                            }),
               std::runtime_error);
}

TEST(RuntimeTest, AbortUnblocksPeersStuckInRecv) {
  // Rank 0 dies; rank 1 is blocked in recv and must be released.
  EXPECT_THROW(Runtime::run(2,
                            [](Comm& comm) {
                              if (comm.rank() == 0) {
                                throw std::runtime_error("croak");
                              }
                              std::byte buf[8];
                              (void)comm.recv(0, 1, buf);
                            }),
               std::runtime_error);
}

TEST(P2PTest, SendRecvDeliversPayload) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, as_bytes("hello"));
    } else {
      std::byte buf[16];
      auto info = comm.recv(0, 7, buf);
      ASSERT_TRUE(info.is_ok());
      EXPECT_EQ(info->source, 0);
      EXPECT_EQ(info->tag, 7);
      EXPECT_EQ(info->bytes, 5u);
      EXPECT_EQ(std::memcmp(buf, "hello", 5), 0);
    }
  });
}

TEST(P2PTest, TagMatching) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, as_bytes("one"));
      comm.send(1, 2, as_bytes("two"));
    } else {
      std::byte buf[16];
      auto second = comm.recv(0, 2, buf);  // out of order by tag
      ASSERT_TRUE(second.is_ok());
      EXPECT_EQ(std::memcmp(buf, "two", 3), 0);
      auto first = comm.recv(0, 1, buf);
      ASSERT_TRUE(first.is_ok());
      EXPECT_EQ(std::memcmp(buf, "one", 3), 0);
    }
  });
}

TEST(P2PTest, WildcardSourceAndTag) {
  Runtime::run(3, [](Comm& comm) {
    if (comm.rank() != 2) {
      comm.send(2, comm.rank() + 10, as_bytes("x"));
    } else {
      std::byte buf[4];
      for (int i = 0; i < 2; ++i) {
        auto info = comm.recv(kAnySource, kAnyTag, buf);
        ASSERT_TRUE(info.is_ok());
        EXPECT_GE(info->tag, 10);
      }
    }
  });
}

TEST(P2PTest, RecvBufferTooSmallFails) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, as_bytes("0123456789"));
    } else {
      std::byte buf[4];
      auto info = comm.recv(0, 1, buf);
      EXPECT_FALSE(info.is_ok());
      EXPECT_EQ(info.status().code(), ErrorCode::kOutOfRange);
    }
  });
}

TEST(P2PTest, SendToBadRankThrows) {
  Runtime::run(1, [](Comm& comm) {
    std::byte b{0};
    EXPECT_THROW(comm.send(5, 1, {&b, 1}), std::out_of_range);
    EXPECT_THROW(comm.send(-1, 1, {&b, 1}), std::out_of_range);
  });
}

TEST(TrafficTest, CountersTrackPayloadBytes) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, as_bytes("abcd"));
      comm.allreduce_sum(0.0);
      EXPECT_EQ(comm.bytes_sent(), 4u);
      EXPECT_EQ(comm.bytes_received(), 0u);
    } else {
      std::byte buf[8];
      ASSERT_TRUE(comm.recv(0, 1, buf).is_ok());
      comm.allreduce_sum(0.0);
      EXPECT_EQ(comm.bytes_received(), 4u);
    }
  });
}

TEST(CollectiveTest, AllreduceSum) {
  Runtime::run(4, [](Comm& comm) {
    double sum = comm.allreduce_sum(static_cast<double>(comm.rank() + 1));
    EXPECT_DOUBLE_EQ(sum, 10.0);  // 1+2+3+4
  });
}

TEST(CollectiveTest, BackToBackAllreducesKeepRoundsSeparate) {
  Runtime::run(4, [](Comm& comm) {
    for (int i = 0; i < 100; ++i) {
      double sum = comm.allreduce_sum(1.0);
      ASSERT_DOUBLE_EQ(sum, 4.0) << "round " << i;
    }
  });
}

TEST(CollectiveTest, SingleRankCollectivesAreIdentity) {
  Runtime::run(1, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(3.5), 3.5);
  });
}

TEST(StressTest, RingExchangeManyRounds) {
  constexpr int kRanks = 8;
  constexpr int kRounds = 30;
  Runtime::run(kRanks, [](Comm& comm) {
    const int right = (comm.rank() + 1) % comm.size();
    std::vector<std::byte> payload(256, std::byte{1});
    std::vector<std::byte> incoming(256);
    for (int round = 0; round < kRounds; ++round) {
      comm.send(right, round, payload);
      auto info = comm.recv(kAnySource, round, incoming);
      ASSERT_TRUE(info.is_ok());
      ASSERT_EQ(info->bytes, 256u);
    }
    EXPECT_EQ(comm.bytes_received(), 256u * kRounds);
  });
}

}  // namespace
}  // namespace ickpt::mpi
