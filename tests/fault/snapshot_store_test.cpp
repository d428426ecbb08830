// Crash-safe snapshot persistence: atomic epoch-tagged save (tmp + fsync +
// rename), CRC32-footer validation, and an earlier epoch that still loads
// when the newest file is torn or bit-flipped (the epoch a rollback falls
// back to).
#include "fault/snapshot_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace neptune::fault {
namespace {

namespace fs = std::filesystem;

JobSnapshot make_snapshot(uint8_t tag) {
  JobSnapshot s;
  s.put("op-a", 0, std::vector<uint8_t>{tag, 1, 2, 3});
  s.put("op-a", 1, std::vector<uint8_t>(64, tag));
  s.put("op-b", 0, std::vector<uint8_t>{tag});
  return s;
}

struct SnapshotStoreTest : ::testing::Test {
  void SetUp() override {
    dir = fs::temp_directory_path() /
          ("neptune_snap_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }

  std::vector<uint8_t> read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
  }
  void write_file(const fs::path& p, const std::vector<uint8_t>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir;
};

TEST_F(SnapshotStoreTest, SaveLoadRoundTrip) {
  SnapshotStore store(dir.string());
  ASSERT_TRUE(store.save_tagged(make_snapshot(7), 1));

  auto loaded = store.load_tagged(1);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 3u);
  const auto* a1 = loaded->find("op-a", 1);
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(*a1, std::vector<uint8_t>(64, 7));
}

TEST_F(SnapshotStoreTest, LoadWithNoFilesReturnsNothing) {
  SnapshotStore store(dir.string());
  EXPECT_FALSE(store.load_tagged(1).has_value());
  EXPECT_TRUE(store.tagged_epochs().empty());
}

TEST_F(SnapshotStoreTest, TruncatedCurrentFallsBackToPrevious) {
  SnapshotStore store(dir.string());
  ASSERT_TRUE(store.save_tagged(make_snapshot(1), 1));
  ASSERT_TRUE(store.save_tagged(make_snapshot(2), 2));

  // Tear the newest file: chop off the trailing half (simulated crash
  // mid-write that somehow survived the atomic-rename protocol).
  auto bytes = read_file(store.tagged_path(2));
  bytes.resize(bytes.size() / 2);
  write_file(store.tagged_path(2), bytes);

  EXPECT_FALSE(store.load_tagged(2).has_value()) << "a torn file must read as missing";
  auto previous = store.load_tagged(1);
  ASSERT_TRUE(previous.has_value());
  EXPECT_EQ((*previous->find("op-b", 0))[0], 1) << "the previous epoch should still load";
}

TEST_F(SnapshotStoreTest, BitFlippedCurrentFallsBackToPrevious) {
  SnapshotStore store(dir.string());
  ASSERT_TRUE(store.save_tagged(make_snapshot(1), 1));
  ASSERT_TRUE(store.save_tagged(make_snapshot(2), 2));

  auto bytes = read_file(store.tagged_path(2));
  ASSERT_GT(bytes.size(), 20u);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit in the body
  write_file(store.tagged_path(2), bytes);

  EXPECT_FALSE(store.load_tagged(2).has_value());
  auto previous = store.load_tagged(1);
  ASSERT_TRUE(previous.has_value());
  EXPECT_EQ((*previous->find("op-b", 0))[0], 1);
}

TEST_F(SnapshotStoreTest, BothFilesCorruptLoadsNothing) {
  SnapshotStore store(dir.string());
  ASSERT_TRUE(store.save_tagged(make_snapshot(1), 1));
  ASSERT_TRUE(store.save_tagged(make_snapshot(2), 2));
  write_file(store.tagged_path(2), {0xDE, 0xAD});
  write_file(store.tagged_path(1), {0xBE, 0xEF});
  EXPECT_FALSE(store.load_tagged(2).has_value());
  EXPECT_FALSE(store.load_tagged(1).has_value());
}

TEST_F(SnapshotStoreTest, TruncatedFooterOnlyFileIsRejected) {
  SnapshotStore store(dir.string());
  ASSERT_TRUE(store.save_tagged(make_snapshot(1), 1));
  // Leave fewer bytes than one footer.
  write_file(store.tagged_path(1), {1, 2, 3});
  EXPECT_FALSE(store.load_tagged(1).has_value());
}

}  // namespace
}  // namespace neptune::fault
