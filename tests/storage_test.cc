#include "storage/backend.h"

#include <gtest/gtest.h>

#include "storage/segment_backend.h"

#include <filesystem>
#include <fstream>

#include "obs/metrics.h"

namespace ickpt::storage {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string read_all(StorageBackend& backend, const std::string& key) {
  auto reader = backend.open(key);
  if (!reader.is_ok()) return "<open failed>";
  std::string out;
  std::byte buf[64];
  for (;;) {
    auto got = (*reader)->read(buf);
    if (!got.is_ok() || *got == 0) break;
    out.append(reinterpret_cast<const char*>(buf), *got);
  }
  return out;
}

class BackendParamTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "memory") {
      backend_ = make_memory_backend();
      return;
    }
    dir_ = ::testing::TempDir() + "/ickpt_storage_test_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()
               ->current_test_info()
               ->name();
    auto backend = GetParam() == "segment" ? make_segment_backend(dir_)
                                           : make_file_backend(dir_);
    ASSERT_TRUE(backend.is_ok());
    backend_ = std::move(backend.value());
  }
  void TearDown() override {
    backend_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<StorageBackend> backend_;
};

TEST_P(BackendParamTest, WriteReadRoundTrip) {
  auto w = backend_->create("obj1");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("hello ")).is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("world")).is_ok());
  EXPECT_EQ((*w)->bytes_written(), 11u);
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_EQ(read_all(*backend_, "obj1"), "hello world");
}

TEST_P(BackendParamTest, UnclosedWriterLeavesNoObject) {
  {
    auto w = backend_->create("ghost");
    ASSERT_TRUE(w.is_ok());
    ASSERT_TRUE((*w)->write(as_bytes("partial")).is_ok());
    // dropped without close
  }
  EXPECT_FALSE(backend_->exists("ghost"));
  EXPECT_FALSE(backend_->open("ghost").is_ok());
}

TEST_P(BackendParamTest, ListAndExists) {
  for (const char* k : {"a/1", "a/2", "b/1"}) {
    auto w = backend_->create(k);
    ASSERT_TRUE(w.is_ok());
    ASSERT_TRUE((*w)->close().is_ok());
  }
  EXPECT_TRUE(backend_->exists("a/2"));
  EXPECT_FALSE(backend_->exists("a/3"));
  auto keys = backend_->list();
  ASSERT_TRUE(keys.is_ok());
  ASSERT_EQ(keys->size(), 3u);
  EXPECT_EQ((*keys)[0], "a/1");
  EXPECT_EQ((*keys)[2], "b/1");
}

TEST_P(BackendParamTest, RemoveDeletes) {
  auto w = backend_->create("victim");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  ASSERT_TRUE(backend_->remove("victim").is_ok());
  EXPECT_FALSE(backend_->exists("victim"));
  EXPECT_EQ(backend_->remove("victim").code(), ErrorCode::kNotFound);
}

TEST_P(BackendParamTest, OverwriteReplacesContent) {
  for (const char* content : {"v1", "version-two"}) {
    auto w = backend_->create("obj");
    ASSERT_TRUE(w.is_ok());
    ASSERT_TRUE((*w)->write(as_bytes(content)).is_ok());
    ASSERT_TRUE((*w)->close().is_ok());
  }
  EXPECT_EQ(read_all(*backend_, "obj"), "version-two");
}

TEST_P(BackendParamTest, TotalBytesStoredAccumulates) {
  EXPECT_EQ(backend_->total_bytes_stored(), 0u);
  auto w = backend_->create("x");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("12345")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_EQ(backend_->total_bytes_stored(), 5u);
}

TEST_P(BackendParamTest, OpenMissingKeyFails) {
  EXPECT_EQ(backend_->open("nope").status().code(), ErrorCode::kNotFound);
}

TEST_P(BackendParamTest, OpenNonObjectKeyIsNotFound) {
  // "rank0" is a key prefix (a directory in the file store) and "." the
  // store root: neither is an object, so open() must say kNotFound
  // rather than throw or hand back a reader that fails later.
  auto w = backend_->create("rank0/ckpt-1");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("payload")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  for (const char* key : {"rank0", "."}) {
    EXPECT_EQ(backend_->open(key).status().code(), ErrorCode::kNotFound)
        << key;
    EXPECT_FALSE(backend_->exists(key)) << key;
  }
  EXPECT_EQ(read_all(*backend_, "rank0/ckpt-1"), "payload");
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendParamTest,
                         ::testing::Values("file", "memory", "segment"),
                         [](const auto& info) { return info.param; });

TEST(NullBackendTest, CountsAndDiscards) {
  auto backend = make_null_backend();
  auto w = backend->create("whatever");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("123456789")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_EQ(backend->total_bytes_stored(), 9u);
  EXPECT_FALSE(backend->open("whatever").is_ok());
  EXPECT_FALSE(backend->exists("whatever"));
}

TEST(ThrottledBackendTest, ModelsTransferTime) {
  auto inner = make_memory_backend();
  ThrottledBackend throttled(*inner, /*bytes_per_second=*/1000.0);
  auto w = throttled.create("obj");
  ASSERT_TRUE(w.is_ok());
  std::vector<std::byte> data(2500, std::byte{1});
  ASSERT_TRUE((*w)->write(data).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_DOUBLE_EQ(throttled.modeled_seconds(), 2.5);
  // The data itself flows through unmodified.
  EXPECT_EQ(read_all(throttled, "obj").size(), 2500u);
}

TEST(ThrottledBackendTest, PaperCeilingsAsConstants) {
  auto inner = make_null_backend();
  // SCSI disk at 320 MB/s: 78.8 MB/s of checkpoint data consumes ~25%
  // of the device (Section 6.3).
  ThrottledBackend disk(*inner, 320.0 * 1024 * 1024);
  auto w = disk.create("ckpt");
  ASSERT_TRUE(w.is_ok());
  std::vector<std::byte> mb(1024 * 1024, std::byte{0});
  for (int i = 0; i < 79; ++i) {
    ASSERT_TRUE((*w)->write(mb).is_ok());
  }
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_NEAR(disk.modeled_seconds(), 79.0 / 320.0, 1e-6);
}

TEST(FaultyBackendTest, FailsAfterBudget) {
  auto inner = make_memory_backend();
  FaultyBackend faulty(*inner, /*fail_after_bytes=*/10);
  auto w = faulty.create("obj");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("12345")).is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("12345")).is_ok());
  auto st = (*w)->write(as_bytes("x"));
  EXPECT_EQ(st.code(), ErrorCode::kIoError);
}

TEST(FaultyBackendTest, BudgetSharedAcrossWriters) {
  auto inner = make_memory_backend();
  FaultyBackend faulty(*inner, 6);
  auto w1 = faulty.create("a");
  auto w2 = faulty.create("b");
  ASSERT_TRUE(w1.is_ok());
  ASSERT_TRUE(w2.is_ok());
  ASSERT_TRUE((*w1)->write(as_bytes("1234")).is_ok());
  EXPECT_EQ((*w2)->write(as_bytes("1234")).code(), ErrorCode::kIoError);
}

TEST(DirectIoTest, FallsBackWhenFilesystemRefusesODirect) {
  // TempDir is tmpfs in most CI containers, which rejects O_DIRECT —
  // the backend must degrade to buffered writes, count the fallback,
  // and produce byte-identical objects.  On filesystems that do accept
  // O_DIRECT the same assertions hold with zero fallback increments.
  std::string dir = ::testing::TempDir() + "/ickpt_dio_test";
  auto& fallbacks = obs::registry().counter("storage.direct_io_fallback");
  const std::uint64_t before = fallbacks.value();

  FileBackendOptions options;
  options.direct_io = true;
  auto backend = make_file_backend(dir, options);
  ASSERT_TRUE(backend.is_ok());

  std::string payload(1 << 20, 'x');
  for (std::size_t i = 0; i < payload.size(); i += 7) payload[i] = 'y';
  payload += "unaligned tail";  // forces the sub-block drop-direct path
  auto w = (*backend)->create("obj");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes(payload)).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_EQ(read_all(**backend, "obj"), payload);
  EXPECT_EQ((*backend)->total_bytes_stored(), payload.size());

  // The probe runs once per backend directory: a second writer must
  // not add another fallback increment.
  auto w2 = (*backend)->create("obj2");
  ASSERT_TRUE(w2.is_ok());
  ASSERT_TRUE((*w2)->write(as_bytes("tiny")).is_ok());
  ASSERT_TRUE((*w2)->close().is_ok());
  const std::uint64_t after = fallbacks.value();
  EXPECT_LE(after - before, 1u);
  std::filesystem::remove_all(dir);
}

TEST(DirectIoTest, BufferedModeNeverTouchesFallbackCounter) {
  std::string dir = ::testing::TempDir() + "/ickpt_dio_off_test";
  auto& fallbacks = obs::registry().counter("storage.direct_io_fallback");
  const std::uint64_t before = fallbacks.value();
  auto backend = make_file_backend(dir);  // direct_io defaults off
  ASSERT_TRUE(backend.is_ok());
  auto w = (*backend)->create("obj");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("plain buffered")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_EQ(fallbacks.value(), before);
  std::filesystem::remove_all(dir);
}

TEST(DirectIoTest, MidWriteEinvalRecoversIntoCountedFallback) {
  // A filesystem can accept the O_DIRECT probe/open and still reject a
  // later write with EINVAL — including after the F_SETFL drop, which
  // is advisory.  The fault hook injects exactly that: the writer must
  // recover through the counted fallback path (never an opaque
  // io_error) and produce byte-identical content.
  std::string dir = ::testing::TempDir() + "/ickpt_dio_einval_test";
  std::filesystem::remove_all(dir);
  auto& fallbacks = obs::registry().counter("storage.direct_io_fallback");
  const std::uint64_t before = fallbacks.value();

  // Force the probe result so a DirectFileWriter is built even on
  // tmpfs, where the real probe would refuse O_DIRECT.
  testing_hooks::force_direct_block_size(512);
  FileBackendOptions options;
  options.direct_io = true;
  auto backend = make_file_backend(dir, options);
  ASSERT_TRUE(backend.is_ok());

  std::string payload((1 << 20) + 13, 'e');
  for (std::size_t i = 0; i < payload.size(); i += 11) payload[i] = 'E';
  auto w = (*backend)->create("obj");
  ASSERT_TRUE(w.is_ok());
  testing_hooks::fail_writes_einval(1);
  ASSERT_TRUE((*w)->write(as_bytes(payload)).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  testing_hooks::fail_writes_einval(0);
  testing_hooks::force_direct_block_size(0);

  EXPECT_EQ(read_all(**backend, "obj"), payload);
  EXPECT_GT(fallbacks.value(), before);
  std::filesystem::remove_all(dir);
}

TEST(DirectIoTest, RepeatedEinvalAfterReopenIsAnError) {
  // The buffered reopen happens at most once per writer; a filesystem
  // that keeps EINVALing afterwards surfaces as a real error instead
  // of looping.
  std::string dir = ::testing::TempDir() + "/ickpt_dio_einval2_test";
  std::filesystem::remove_all(dir);
  testing_hooks::force_direct_block_size(512);
  FileBackendOptions options;
  options.direct_io = true;
  auto backend = make_file_backend(dir, options);
  ASSERT_TRUE(backend.is_ok());
  auto w = (*backend)->create("obj");
  ASSERT_TRUE(w.is_ok());
  std::string payload(2 << 20, 'r');
  testing_hooks::fail_writes_einval(1000);
  auto st = (*w)->write(as_bytes(payload));
  if (st.is_ok()) st = (*w)->close();
  testing_hooks::fail_writes_einval(0);
  testing_hooks::force_direct_block_size(0);
  EXPECT_EQ(st.code(), ErrorCode::kIoError);
  EXPECT_FALSE((*backend)->exists("obj"));
  std::filesystem::remove_all(dir);
}

TEST(DurablePublishTest, CloseSyncsFileAndDirectory) {
  std::string dir = ::testing::TempDir() + "/ickpt_durable_test";
  std::filesystem::remove_all(dir);
  auto& fsyncs = obs::registry().counter("storage.fsync_calls");

  auto backend = make_file_backend(dir);  // durable_publish defaults on
  ASSERT_TRUE(backend.is_ok());
  const std::uint64_t before = fsyncs.value();
  auto w = (*backend)->create("obj");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("must survive")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  // fdatasync(file) before the rename + fsync(parent dir) after it.
  EXPECT_GE(fsyncs.value() - before, 2u);
  EXPECT_EQ(read_all(**backend, "obj"), "must survive");
  std::filesystem::remove_all(dir);
}

TEST(DurablePublishTest, OptOutSkipsTheSyncs) {
  std::string dir = ::testing::TempDir() + "/ickpt_nondurable_test";
  std::filesystem::remove_all(dir);
  auto& fsyncs = obs::registry().counter("storage.fsync_calls");

  FileBackendOptions options;
  options.durable_publish = false;
  auto backend = make_file_backend(dir, options);
  ASSERT_TRUE(backend.is_ok());
  const std::uint64_t before = fsyncs.value();
  auto w = (*backend)->create("obj");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("scratch data")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_EQ(fsyncs.value(), before);
  EXPECT_EQ(read_all(**backend, "obj"), "scratch data");
  std::filesystem::remove_all(dir);
}

TEST(DurablePublishTest, SegmentCommitSyncsToo) {
  std::string dir = ::testing::TempDir() + "/ickpt_segdurable_test";
  std::filesystem::remove_all(dir);
  auto& fsyncs = obs::registry().counter("storage.fsync_calls");
  auto backend = make_segment_backend(dir);  // durable defaults on
  ASSERT_TRUE(backend.is_ok());
  const std::uint64_t before = fsyncs.value();
  auto w = (*backend)->create("obj");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("segment payload")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_GE(fsyncs.value() - before, 1u);
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, ListHidesUnpublishedTmpFiles) {
  std::string dir = ::testing::TempDir() + "/ickpt_tmpskip_test";
  std::filesystem::remove_all(dir);
  auto backend = make_file_backend(dir);
  ASSERT_TRUE(backend.is_ok());
  auto w = (*backend)->create("real");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("published")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  // A crash mid-publish leaves a ".tmp" sibling behind; it must stay
  // invisible to list().
  std::ofstream(dir + "/victim.tmp") << "half-written";
  auto keys = (*backend)->list();
  ASSERT_TRUE(keys.is_ok());
  EXPECT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0], "real");
  std::filesystem::remove_all(dir);
}

TEST(FileBackendTest, KeysWithSubdirectories) {
  std::string dir = ::testing::TempDir() + "/ickpt_subdir_test";
  auto backend = make_file_backend(dir);
  ASSERT_TRUE(backend.is_ok());
  auto w = (*backend)->create("deep/nested/key");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("data")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_TRUE((*backend)->exists("deep/nested/key"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ickpt::storage
