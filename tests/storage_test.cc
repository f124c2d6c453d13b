#include "storage/backend.h"

#include <gtest/gtest.h>

#include "storage/segment_backend.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "obs/metrics.h"
#include "storage/writeback.h"
#include "tests/support/faulty_backend.h"

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
    // The test's name is "Case/param"; a '/' in the directory name
    // would nest the store one level below the directory TearDown
    // removes.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = ::testing::TempDir() + "/ickpt_storage_test_" +
           std::to_string(::getpid()) + "_" + name;
    auto backend = GetParam() == "segment" ? make_segment_backend(dir_)
                                           : make_file_backend(dir_);
    ASSERT_TRUE(backend.is_ok());
    backend_ = std::move(backend.value());
  }
  void TearDown() override {
    backend_.reset();
    if (dir_.empty()) return;
    // Removing the store's directory leaves nothing behind only when
    // it sits straight in the temp dir.
    EXPECT_TRUE(std::filesystem::equivalent(
        std::filesystem::path(dir_).parent_path(), ::testing::TempDir()));
    std::filesystem::remove_all(dir_);
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
  // Emptied of its object, the prefix is still no object to remove.
  ASSERT_TRUE(backend_->remove("rank0/ckpt-1").is_ok());
  for (const char* key : {"rank0", "."}) {
    EXPECT_EQ(backend_->remove(key).code(), ErrorCode::kNotFound) << key;
  }
}

TEST_P(BackendParamTest, TmpSuffixedKeyIsRefusedOrPublished) {
  // The file store stages every write under a ".tmp" sibling, so it
  // refuses such keys; a store that accepts one must publish it like
  // any other object.
  auto w = backend_->create("rank0/x.tmp");
  if (!w.is_ok()) {
    EXPECT_EQ(w.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_FALSE(backend_->exists("rank0/x.tmp"));
    return;
  }
  ASSERT_TRUE((*w)->write(as_bytes("staged")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  auto keys = backend_->list();
  ASSERT_TRUE(keys.is_ok());
  EXPECT_EQ(*keys, std::vector<std::string>{"rank0/x.tmp"});
  EXPECT_EQ(read_all(*backend_, "rank0/x.tmp"), "staged");
}

TEST_P(BackendParamTest, ReadAtLeavesTheSequentialCursor) {
  std::string content(200, '\0');
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<char>(i);
  }
  auto w = backend_->create("obj");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes(content)).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());

  auto reader = backend_->open("obj");
  ASSERT_TRUE(reader.is_ok());
  std::byte buf[10];
  auto got = (*reader)->read(buf);
  ASSERT_TRUE(got.is_ok());
  ASSERT_EQ(*got, 10u);
  got = (*reader)->read_at(100, buf);
  ASSERT_TRUE(got.is_ok());
  ASSERT_EQ(*got, 10u);
  EXPECT_EQ(buf[0], std::byte{100});
  got = (*reader)->read(buf);
  ASSERT_TRUE(got.is_ok());
  ASSERT_EQ(*got, 10u);
  EXPECT_EQ(buf[0], std::byte{10}) << "read() resumed at the read_at offset";
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

TEST(DurablePublishTest, DurableFileWriterStartsWritebackAsItWrites) {
  for (const bool durable : {true, false}) {
    std::string dir = ::testing::TempDir() + "/ickpt_writeback_test";
    std::filesystem::remove_all(dir);
    auto& hints = obs::registry().counter("storage.writeback_calls");
    FileBackendOptions options;
    options.durable_publish = durable;
    auto backend = make_file_backend(dir, options);
    ASSERT_TRUE(backend.is_ok());
    const std::string piece(256 * 1024, 'w');
    const std::uint64_t before = hints.value();
    auto w = (*backend)->create("obj");
    ASSERT_TRUE(w.is_ok());
    std::uint64_t written = 0;
    for (int i = 0; i < 13; ++i) {
      ASSERT_TRUE((*w)->write(as_bytes(piece)).is_ok());
      written += piece.size();
    }
    ASSERT_TRUE((*w)->close().is_ok());
    // One hint per completed span (no write spans two), none when the
    // store is not durable.
    EXPECT_EQ(hints.value() - before, durable ? written / kWritebackSpan : 0)
        << "durable " << durable;
    EXPECT_EQ(read_all(**backend, "obj").size(), written);
    std::filesystem::remove_all(dir);
  }
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

TEST(FileBackendTest, InFlightTmpSiblingIsNotAnObject) {
  std::string dir = ::testing::TempDir() + "/ickpt_inflight_tmp_test";
  std::filesystem::remove_all(dir);
  auto backend = make_file_backend(dir);
  ASSERT_TRUE(backend.is_ok());
  auto w = (*backend)->create("rank0/y");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(as_bytes("partial")).is_ok());
  // The open writer's staging file is on disk, but the store must not
  // serve, report or delete it as an object.
  ASSERT_TRUE(std::filesystem::is_regular_file(dir + "/rank0/y.tmp"));
  EXPECT_EQ((*backend)->open("rank0/y.tmp").status().code(),
            ErrorCode::kNotFound);
  EXPECT_FALSE((*backend)->exists("rank0/y.tmp"));
  EXPECT_EQ((*backend)->remove("rank0/y.tmp").code(), ErrorCode::kNotFound);
  ASSERT_TRUE((*w)->write(as_bytes(", then whole")).is_ok());
  ASSERT_TRUE((*w)->close().is_ok());
  EXPECT_EQ(read_all(**backend, "rank0/y"), "partial, then whole");
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

TEST(FileBackendTest, ListedKeysDoNotDependOnHowTheDirectoryIsNamed) {
  const std::string root = ::testing::TempDir() + "/ickpt_dir_spelling_" +
                           std::to_string(::getpid());
  const std::string dir = root + "/store";
  std::filesystem::remove_all(root);
  const std::vector<std::string> want = {"a", "deep/nested/key",
                                         "rank0/ckpt-1", "rank0/ckpt-2"};
  {
    auto backend = make_file_backend(dir);
    ASSERT_TRUE(backend.is_ok());
    for (const auto& key : want) {
      auto w = (*backend)->create(key);
      ASSERT_TRUE(w.is_ok());
      ASSERT_TRUE((*w)->write(as_bytes(key)).is_ok());
      ASSERT_TRUE((*w)->close().is_ok());
    }
  }
  std::ofstream(dir + "/rank0/ckpt-3.tmp") << "half-written";
  std::filesystem::create_directory_symlink(dir, root + "/link");

  for (const std::string& spelling :
       {dir, dir + "/", dir + "/../store", dir + "/../store/", root + "/link",
        root + "/link/"}) {
    SCOPED_TRACE(spelling);
    auto backend = make_file_backend(spelling);
    ASSERT_TRUE(backend.is_ok());
    auto keys = (*backend)->list();
    ASSERT_TRUE(keys.is_ok());
    EXPECT_EQ(*keys, want);
    for (const auto& key : *keys) EXPECT_EQ(read_all(**backend, key), key);
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace ickpt::storage
