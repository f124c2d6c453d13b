// Flight recorder: normal-path dumps (restore failure), the
// async-signal-safe crash path (forked child dying on SIGABRT), and
// the shared JSON shape both paths promise.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/restore.h"
#include "common/page.h"
#include "memtrack/explicit_engine.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "tests/json_test_util.h"

namespace ickpt::obs {
namespace {

namespace fs = std::filesystem;
using testutil::JsonParser;
using testutil::JsonValue;

std::string make_temp_dir() {
  std::string tmpl = (fs::temp_directory_path() / "flightrec-XXXXXX").string();
  char* got = ::mkdtemp(tmpl.data());
  EXPECT_NE(got, nullptr);
  return tmpl;
}

std::vector<std::string> flightrec_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("flightrec-", 0) == 0) out.push_back(entry.path());
  }
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parse a dump and assert the shape shared by both paths; returns the
/// parsed document.
JsonValue check_common_shape(const std::string& text) {
  JsonParser parser(text);
  JsonValue root = parser.parse();
  EXPECT_FALSE(parser.failed()) << text.substr(0, 400);
  EXPECT_EQ(root.kind, JsonValue::Kind::kObject);
  EXPECT_DOUBLE_EQ(root.object["flightrec"].number, 1.0);
  EXPECT_EQ(root.object["reason"].kind, JsonValue::Kind::kString);
  EXPECT_EQ(root.object["signal_context"].kind, JsonValue::Kind::kBool);
  EXPECT_GT(root.object["timestamp_unix_ns"].number, 0.0);
  EXPECT_EQ(root.object["metrics"].kind, JsonValue::Kind::kObject);
  auto& trace = root.object["trace"];
  EXPECT_EQ(trace.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(trace.object["events"].kind, JsonValue::Kind::kArray);
  return root;
}

bool events_contain(JsonValue& root, const std::string& name) {
  for (auto& e : root.object["trace"].object["events"].array) {
    if (e.object["name"].str == name) return true;
  }
  return false;
}

// Must run before anything configures the recorder (gtest executes
// tests in definition order within one binary).
TEST(FlightRecTest, UnconfiguredDumpIsANoop) {
  ASSERT_FALSE(flightrec::configured());
  EXPECT_EQ(flightrec::dump("nothing armed"), "");
  flightrec::dump_from_signal("nothing armed");  // must not crash
}

TEST(FlightRecTest, NormalDumpCarriesMetricsAndTrace) {
  const std::string dir = make_temp_dir();
  flightrec::configure(dir);
  ASSERT_TRUE(flightrec::configured());

  registry().counter("test.flightrec.counter").inc(7);
  const std::uint16_t id = trace_name("test.flightrec.span");
  start_tracing();
  {
    TraceSpan span(id, 11);
  }
  trace_instant(id, 22);
  TraceSpan open_span(id, 33);  // still in flight at dump time
  const std::string path = flightrec::dump("unit test reason \"quoted\"");
  open_span.end();
  stop_tracing();

  ASSERT_NE(path, "");
  EXPECT_EQ(path.rfind(dir, 0), 0u) << path;
  JsonValue root = check_common_shape(slurp(path));
  EXPECT_EQ(root.object["reason"].str, "unit test reason \"quoted\"");
  EXPECT_FALSE(root.object["signal_context"].boolean);
  // Full registry snapshot on the normal path.
  EXPECT_TRUE(root.object["metrics"].object.count("counters"));
  EXPECT_TRUE(events_contain(root, "test.flightrec.span"));
  // The in-flight span shows up as an unmatched begin.
  bool open_begin = false;
  for (auto& e : root.object["trace"].object["events"].array) {
    if (e.object["name"].str == "test.flightrec.span" &&
        e.object["phase"].str == "B" && e.object["arg0"].number == 33.0) {
      open_begin = true;
    }
  }
  EXPECT_TRUE(open_begin);
  fs::remove_all(dir);
}

TEST(FlightRecTest, RestoreFailureDumpsTheFailingSpan) {
  const std::string dir = make_temp_dir();
  auto storage = storage::make_memory_backend();

  // A healthy one-element chain...
  memtrack::ExplicitEngine engine;
  region::AddressSpace space(engine, "test");
  auto block = space.map(4 * page_size(), region::AreaKind::kHeap, "state");
  ASSERT_TRUE(block.is_ok());
  auto ckpt = checkpoint::Checkpointer::create(space, storage.get());
  ASSERT_TRUE(ckpt.is_ok());
  ASSERT_TRUE((*ckpt)->checkpoint_full(0.0).is_ok());

  // ...with its object clobbered in place.
  auto keys = storage->list();
  ASSERT_TRUE(keys.is_ok());
  ASSERT_FALSE(keys->empty());
  {
    auto writer = storage->create(keys->front());
    ASSERT_TRUE(writer.is_ok());
    std::vector<std::byte> garbage(64, std::byte{0xAA});
    ASSERT_TRUE((*writer)->write(garbage).is_ok());
    ASSERT_TRUE((*writer)->close().is_ok());
  }

  flightrec::configure(dir);
  start_tracing();
  auto before = flightrec_files(dir);
  auto state = checkpoint::restore_chain(*storage, 0);
  stop_tracing();
  ASSERT_FALSE(state.is_ok());

  auto after = flightrec_files(dir);
  ASSERT_EQ(after.size(), before.size() + 1);
  JsonValue root = check_common_shape(slurp(after.back()));
  EXPECT_NE(root.object["reason"].str.find("restore_chain failed"),
            std::string::npos);
  EXPECT_FALSE(root.object["signal_context"].boolean);
  EXPECT_TRUE(events_contain(root, "restore.fail"));
  fs::remove_all(dir);
}

TEST(FlightRecTest, CrashPathDumpsFromFatalSignal) {
  const std::string dir = make_temp_dir();
  // Arm in the parent (configuring installs the fatal-signal handlers):
  // the child only takes the signal, so the handler exercises the
  // preallocated async-signal-safe path.
  flightrec::configure(dir);
  const std::uint16_t id = trace_name("test.flightrec.crash");
  start_tracing();
  trace_instant(id, 99);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::raise(SIGABRT);
    ::_exit(42);  // unreachable: the handler re-raises with SIG_DFL
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  stop_tracing();
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  auto files = flightrec_files(dir);
  ASSERT_EQ(files.size(), 1u);
  JsonValue root = check_common_shape(slurp(files.front()));
  EXPECT_EQ(root.object["reason"].str, "SIGABRT");
  EXPECT_TRUE(root.object["signal_context"].boolean);
  // Signal path reads metrics through the lock-free accessors.
  EXPECT_TRUE(root.object["metrics"].object.count("counters"));
  EXPECT_TRUE(events_contain(root, "test.flightrec.crash"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ickpt::obs
