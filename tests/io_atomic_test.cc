// Tests for io::WriteFileAtomic, the temp+fsync+rename primitive under
// every durable output path (store saves, metrics/trace dumps, bench
// reports, ingest shards and manifests), and for io::ReadWholeFile, the
// checked reader on the way back in.
#include "io/atomic_file.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/store_io.h"
#include "obs/registry.h"

namespace ipscope::io {
namespace {

namespace fs = std::filesystem;

std::string ReadAll(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  std::ostringstream buf;
  buf << is.rdbuf();
  return std::move(buf).str();
}

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "ipscope_atomic_" + tag + "_" +
         std::to_string(::getpid());
}

TEST(AtomicFile, WritesContentAndLeavesNoTemp) {
  std::string path = TempPath("basic");
  EXPECT_EQ(WriteFileAtomic(path, "hello durable world"), std::nullopt);
  EXPECT_EQ(ReadAll(path), "hello durable world");
  EXPECT_FALSE(fs::exists(TempPathFor(path)));
  fs::remove(path);
}

TEST(AtomicFile, ReplacesExistingFileAtomically) {
  std::string path = TempPath("replace");
  ASSERT_EQ(WriteFileAtomic(path, "old"), std::nullopt);
  EXPECT_EQ(WriteFileAtomic(path, "new content"), std::nullopt);
  EXPECT_EQ(ReadAll(path), "new content");
  fs::remove(path);
}

TEST(AtomicFile, HooksFireInProtocolOrderAndSplitTheWrite) {
  std::string path = TempPath("hooks");
  std::vector<std::string> stages;
  AtomicWriteHooks hooks;
  hooks.split_at = 5;
  hooks.at = [&](std::string_view stage) { stages.emplace_back(stage); };
  ASSERT_EQ(WriteFileAtomic(path, "0123456789", &hooks), std::nullopt);
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0], "pre-temp-write");
  EXPECT_EQ(stages[1], "mid-write");
  EXPECT_EQ(stages[2], "pre-fsync");
  EXPECT_EQ(stages[3], "pre-rename");
  EXPECT_EQ(ReadAll(path), "0123456789");
  fs::remove(path);
}

TEST(AtomicFile, FailureReportsPathAndErrnoDetailAndLeavesNoDebris) {
  std::string path = "/nonexistent-dir-ipscope/out.bin";
  auto error = WriteFileAtomic(path, "x");
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find(path), std::string::npos) << *error;
  EXPECT_FALSE(fs::exists(TempPathFor(path)));
}

TEST(AtomicFile, SaveStoreFileGoesThroughTheAtomicPath) {
  // A crashed saver must never leave a torn dataset under the final name:
  // SaveStoreFile writes through WriteFileAtomic, so the only on-disk
  // states are "old store" and "new store", never a prefix.
  activity::ActivityStore store{4};
  store.GetOrCreate(net::BlockKey{42}).Row(0)[0] = 0xFFULL;
  std::string path = TempPath("store") + ".ips2";
  SaveStoreFile(store, path);
  EXPECT_FALSE(fs::exists(TempPathFor(path)));
  auto loaded = TryLoadStoreFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().store.BlockCount(), 1u);
  fs::remove(path);

  // Failure is surfaced as a typed StoreError message, counted in obs.
  auto before =
      obs::GlobalRegistry().GetCounter("io.store.save_errors").value();
  EXPECT_THROW(SaveStoreFile(store, "/nonexistent-dir-ipscope/s.ips2"),
               std::runtime_error);
  EXPECT_EQ(
      obs::GlobalRegistry().GetCounter("io.store.save_errors").value(),
      before + 1);
}

TEST(AtomicFile, MetricsAndTraceDumpsAreAtomic) {
  std::string path = TempPath("metrics") + ".json";
  obs::GlobalRegistry().GetCounter("test.atomic_dump").Add(1);
  obs::GlobalRegistry().WriteJsonFile(path);
  EXPECT_FALSE(fs::exists(TempPathFor(path)));
  EXPECT_NE(ReadAll(path).find("test.atomic_dump"), std::string::npos);
  fs::remove(path);
  EXPECT_THROW(
      obs::GlobalRegistry().WriteJsonFile("/nonexistent-dir-ipscope/m.json"),
      std::runtime_error);
}

TEST(ReadWholeFile, ReturnsExactBytesIncludingNulsAndLargeFiles) {
  std::string path = TempPath("read");
  for (std::size_t size : {std::size_t{0}, std::size_t{1},
                           std::size_t{4096}, std::size_t{3} << 20}) {
    std::string content(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      content[i] = static_cast<char>((i * 131) & 0xFF);
    }
    ASSERT_EQ(WriteFileAtomic(path, content), std::nullopt);
    auto read = ReadWholeFile(path);
    ASSERT_TRUE(read.ok()) << read.error().message;
    EXPECT_EQ(read.value(), content) << size;
  }
  fs::remove(path);
}

TEST(ReadWholeFile, MissingFileIsAnOpenFailureWithErrnoDetail) {
  auto read = ReadWholeFile("/nonexistent-dir-ipscope/f.bin");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().stage, "open");
  EXPECT_EQ(read.error().message,
            "open failed for /nonexistent-dir-ipscope/f.bin: No such file "
            "or directory");
}

TEST(ReadWholeFile, FailedReadIsAnErrorNotAShortSuccess) {
  // A directory opens read-only but every read(2) fails with EISDIR: the
  // reader must report it rather than return an empty "file".
  std::string dir = TempPath("read_dir");
  fs::create_directories(dir);
  auto read = ReadWholeFile(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().stage, "read");
  EXPECT_NE(read.error().message.find("Is a directory"), std::string::npos)
      << read.error().message;
  fs::remove(dir);
}

TEST(ReadWholeFile, ReadsFilesWithNoSizeToTheirEnd) {
  // procfs reports size 0 for files that do have content.
  auto read = ReadWholeFile("/proc/self/status");
  ASSERT_TRUE(read.ok()) << read.error().message;
  EXPECT_NE(read.value().find("Name:"), std::string::npos);
}

}  // namespace
}  // namespace ipscope::io
