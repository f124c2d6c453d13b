// Monitor works identically across tracking engines (engine-generic
// wall-clock instrumentation).
#include <gtest/gtest.h>

#include <chrono>
#include <ostream>
#include <thread>

#include "common/arena.h"
#include "core/monitor.h"

namespace ickpt {
namespace memtrack {

// gtest prints the parameter into each discovered ctest name; without
// this it prints the enum's raw bytes.
void PrintTo(EngineKind kind, std::ostream* os) { *os << to_string(kind); }

}  // namespace memtrack

namespace {

class MonitorEngineTest
    : public ::testing::TestWithParam<memtrack::EngineKind> {};

TEST_P(MonitorEngineTest, TracksSteadyWriter) {
  MonitorOptions options;
  options.engine = GetParam();
  options.timeslice = 0.04;
  auto monitor = Monitor::create(options);
  ASSERT_TRUE(monitor.is_ok()) << monitor.status().to_string();

  PageArena field(32 * page_size());
  field.prefault();
  ASSERT_TRUE((*monitor)->attach(field.span(), "field").is_ok());
  ASSERT_TRUE((*monitor)->start().is_ok());

  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(180);
  while (std::chrono::steady_clock::now() < deadline) {
    for (std::size_t p = 0; p < 8; ++p) {
      field.data()[p * page_size()] = std::byte{1};
      (*monitor)->tracker().note_write(field.data() + p * page_size(), 1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  (*monitor)->stop();

  auto stats = (*monitor)->ib_stats();
  ASSERT_GE(stats.samples, 2u);
  // Every slice should see exactly the 8 written pages.
  EXPECT_NEAR(stats.avg_iws, 8.0 * static_cast<double>(page_size()),
              2.0 * static_cast<double>(page_size()));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, MonitorEngineTest,
    ::testing::Values(memtrack::EngineKind::kMProtect,
                      memtrack::EngineKind::kExplicit),
    [](const auto& info) {
      return std::string(memtrack::to_string(info.param));
    });

}  // namespace
}  // namespace ickpt
