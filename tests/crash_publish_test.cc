// Kill-during-publish crash tests.
//
// The durability contract (DESIGN.md §12): once close() returns OK
// with durable publish on, the object survives a crash; an object
// whose publish was interrupted is either completely present or
// completely absent after reopen — never torn.  Each test forks a
// child that writes objects forever and SIGKILLs it at a random
// moment (or the child kills itself halfway through an object), then
// reopens the store in the parent and checks every visible object is
// bit-exact.
//
// SIGKILL cannot be blocked or handled, so whatever the child was
// inside — write(), fdatasync(), rename() — stops dead, which is as
// close to a crash as a test can get without pulling power.  (True
// power-loss testing needs dm-flakey or a VM; what this test pins
// down is the atomicity of publish across process death.)
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "checkpoint/inspect.h"
#include "common/crc32.h"
#include "storage/backend.h"
#include "storage/segment_backend.h"

namespace ickpt::storage {
namespace {

namespace fs = std::filesystem;

/// What the child writes: small objects in one write(), or objects of
/// several MiB in 256 KiB writes, so that a kill lands mid-stream —
/// before the segment store's header pwrite, or after it and before
/// the sync returns.
struct Load {
  bool large = false;
  /// When >= 0, the child SIGKILLs itself halfway through writing this
  /// object instead of waiting for the parent's kill.
  int die_mid_object = -1;
};

constexpr std::size_t kPiece = 256 * 1024;

/// Deterministic payload for object `i`: size and bytes derived from
/// the index, so the parent can verify content without shared state.
std::vector<std::byte> payload_for(int i, bool large) {
  const auto k = static_cast<std::size_t>(i);
  std::vector<std::byte> data(large ? (2u << 20) + 65537 * (k % 23)
                                    : 1000 + 37 * (k % 50));
  for (std::size_t j = 0; j < data.size(); ++j) {
    data[j] = static_cast<std::byte>((i * 131 + static_cast<int>(j)) & 0xff);
  }
  return data;
}

/// Child body: open the store and publish objects obj-0, obj-1, ...
/// until SIGKILL arrives.  _exit on any error (the parent treats a
/// non-signal exit as a test failure).
[[noreturn]] void writer_child(const std::string& dir, bool segment,
                               Load load) {
  auto backend = segment ? make_segment_backend(dir)
                         : make_file_backend(dir);
  if (!backend.is_ok()) _exit(3);
  for (int i = 0;; ++i) {
    auto writer = (*backend)->create("obj-" + std::to_string(i));
    if (!writer.is_ok()) _exit(4);
    const auto data = payload_for(i, load.large);
    std::span<const std::byte> rest(data);
    while (!rest.empty()) {
      if (i == load.die_mid_object && rest.size() <= data.size() / 2) {
        ::raise(SIGKILL);
      }
      const std::size_t n = std::min(rest.size(), kPiece);
      if (!(*writer)->write(rest.first(n)).is_ok()) _exit(5);
      rest = rest.subspan(n);
    }
    if (!(*writer)->close().is_ok()) _exit(6);
  }
}

/// Fork a writer, let it publish for `grace_us` (or until it kills
/// itself), SIGKILL it, reopen and verify: every visible object
/// byte-exact, the visible prefix contiguous (no committed object
/// missing below the highest one).
void run_crash_round(const std::string& dir, bool segment,
                     useconds_t grace_us, Load load = {}) {
  fs::remove_all(dir);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) writer_child(dir, segment, load);

  if (load.die_mid_object < 0) {
    ::usleep(grace_us);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited with " << WEXITSTATUS(wstatus)
      << " instead of dying on SIGKILL";

  auto backend = segment ? make_segment_backend(dir)
                         : make_file_backend(dir);
  ASSERT_TRUE(backend.is_ok()) << backend.status().message();
  auto keys = (*backend)->list();
  ASSERT_TRUE(keys.is_ok());

  int highest = -1;
  for (const auto& key : *keys) {
    ASSERT_EQ(key.rfind("obj-", 0), 0u) << "unexpected key " << key;
    const int i = std::stoi(key.substr(4));
    highest = std::max(highest, i);

    // Complete object or nothing: the bytes must match exactly.
    auto reader = (*backend)->open(key);
    ASSERT_TRUE(reader.is_ok());
    const auto expected = payload_for(i, load.large);
    ASSERT_EQ((*reader)->size(), expected.size())
        << key << " is torn (size mismatch)";
    std::vector<std::byte> got(expected.size());
    std::size_t off = 0;
    while (off < got.size()) {
      auto n = (*reader)->read({got.data() + off, got.size() - off});
      ASSERT_TRUE(n.is_ok());
      ASSERT_GT(*n, 0u) << key << " is torn (short object)";
      off += *n;
    }
    ASSERT_EQ(std::memcmp(got.data(), expected.data(), got.size()), 0)
        << key << " is torn (content mismatch)";
  }

  // Durable publish means close()-returned == crash-survivable, so
  // the committed prefix has no holes: if obj-N is visible, the child
  // had finished close(obj-K) for every K < N.
  for (int i = 0; i <= highest; ++i) {
    EXPECT_TRUE((*backend)->exists("obj-" + std::to_string(i)))
        << "obj-" << i << " lost below surviving obj-" << highest;
  }
  // A child that died halfway through an object had closed every
  // object before it, and those closes returned.
  if (load.die_mid_object >= 0) {
    EXPECT_EQ(highest, load.die_mid_object - 1);
  }
}

class CrashPublishTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::string dir() const {
    return ::testing::TempDir() + "/ickpt_crash_" + GetParam() + "_" +
           std::to_string(::getpid());
  }
};

TEST_P(CrashPublishTest, KillDuringPublishNeverTearsObjects) {
  const bool segment = GetParam() == "segment";
  // Several rounds at different kill points so the SIGKILL lands in
  // different phases of the publish sequence across runs.
  for (useconds_t grace : {2000u, 7000u, 15000u, 40000u}) {
    run_crash_round(dir(), segment, grace);
    if (HasFatalFailure()) return;
  }
  fs::remove_all(dir());
}

TEST_P(CrashPublishTest, KillMidStreamNeverTearsLargeObjects) {
  const bool segment = GetParam() == "segment";
  // A write of several MiB spends most of its time streaming and the
  // rest in the header pwrite and the sync, so kills at these points
  // land on both sides of the header across rounds.
  for (useconds_t grace : {1000u, 3000u, 5000u, 9000u, 14000u, 23000u}) {
    run_crash_round(dir(), segment, grace, Load{true, -1});
    if (HasFatalFailure()) return;
  }
  // And deterministically mid-stream, with committed objects below.
  for (int die_at : {0, 3}) {
    run_crash_round(dir(), segment, 0, Load{true, die_at});
    if (HasFatalFailure()) return;
  }
  fs::remove_all(dir());
}

TEST_P(CrashPublishTest, FsckHealthyAfterKill) {
  // fsck's store walk must also see nothing wrong — checkpoint-level
  // health on top of object-level integrity.  The keys here are not
  // checkpoint-format keys, so inspect_store reports them as unknown
  // objects at worst; what must hold is that it does not crash and
  // the walk completes.
  const bool segment = GetParam() == "segment";
  const std::string d = dir();
  run_crash_round(d, segment, 10000);
  if (HasFatalFailure()) return;
  auto backend = segment ? make_segment_backend(d) : make_file_backend(d);
  ASSERT_TRUE(backend.is_ok());
  auto report = checkpoint::inspect_store(**backend);
  ASSERT_TRUE(report.is_ok()) << report.status().message();
  fs::remove_all(d);
}

INSTANTIATE_TEST_SUITE_P(Backends, CrashPublishTest,
                         ::testing::Values("file", "segment"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace ickpt::storage
