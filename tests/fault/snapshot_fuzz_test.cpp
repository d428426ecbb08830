// Seeded corruption fuzzing of SnapshotStore (process-resilience satellite).
// The targeted tests in snapshot_store_test.cpp pick a handful of corruption
// shapes by hand; this suite drives hundreds of *random* torn writes, bit
// flips, truncations and garbage splices through the validation path and
// checks the one property recovery correctness rests on: load_tagged()
// returns a snapshot that was durably saved, verbatim, or nothing at all —
// never a half-parsed hybrid.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "common/rng.hpp"
#include "fault/snapshot_store.hpp"

namespace neptune::fault {
namespace {

namespace fs = std::filesystem;

JobSnapshot make_snapshot(uint8_t tag, size_t bulk_bytes = 256) {
  JobSnapshot s;
  s.put("op-a", 0, std::vector<uint8_t>{tag, 1, 2, 3});
  s.put("op-a", 1, std::vector<uint8_t>(bulk_bytes, tag));
  s.put("op-b", 0, std::vector<uint8_t>{tag});
  return s;
}

/// True iff `snap` is byte-for-byte the snapshot make_snapshot(tag) built.
bool is_snapshot(const JobSnapshot& snap, uint8_t tag, size_t bulk_bytes = 256) {
  const auto* a0 = snap.find("op-a", 0);
  const auto* a1 = snap.find("op-a", 1);
  const auto* b0 = snap.find("op-b", 0);
  return snap.size() == 3 && a0 && b0 && a1 &&
         *a0 == std::vector<uint8_t>{tag, 1, 2, 3} &&
         *a1 == std::vector<uint8_t>(bulk_bytes, tag) && *b0 == std::vector<uint8_t>{tag};
}

struct SnapshotFuzzTest : ::testing::Test {
  void SetUp() override {
    dir = fs::temp_directory_path() /
          ("neptune_snapfuzz_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }

  static std::vector<uint8_t> read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
  }
  static void write_file(const fs::path& p, const std::vector<uint8_t>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// Apply one random corruption to the file at `p`. Returns false when the
  /// mutation happened to be an identity (so callers can skip the
  /// must-detect assertion for that rare draw).
  static bool corrupt(const fs::path& p, Xoshiro256& rng) {
    std::vector<uint8_t> bytes = read_file(p);
    const std::vector<uint8_t> before = bytes;
    switch (rng.next_below(5)) {
      case 0:  // torn write: truncate at a random point (possibly to zero)
        bytes.resize(rng.next_below(bytes.size() + 1));
        break;
      case 1: {  // bit flips: 1..8 random single-bit flips anywhere
        uint64_t flips = 1 + rng.next_below(8);
        for (uint64_t i = 0; i < flips && !bytes.empty(); ++i)
          bytes[rng.next_below(bytes.size())] ^= uint8_t(1u << rng.next_below(8));
        break;
      }
      case 2: {  // garbage splice: overwrite a random run with random bytes
        if (bytes.empty()) break;
        size_t at = rng.next_below(bytes.size());
        size_t len = 1 + rng.next_below(bytes.size() - at);
        for (size_t i = 0; i < len; ++i) bytes[at + i] = uint8_t(rng.next_below(256));
        break;
      }
      case 3: {  // short append after the footer (shifts the footer window)
        uint64_t extra = 1 + rng.next_below(16);
        for (uint64_t i = 0; i < extra; ++i) bytes.push_back(uint8_t(rng.next_below(256)));
        break;
      }
      default:  // interrupted rewrite: keep a random prefix, garbage tail
        if (bytes.size() > 1) bytes.resize(1 + rng.next_below(bytes.size() - 1));
        for (auto& b : bytes)
          if (rng.next_below(4) == 0) b = uint8_t(rng.next_below(256));
        break;
    }
    write_file(p, bytes);
    return bytes != before;
  }

  fs::path dir;
};

TEST_F(SnapshotFuzzTest, RandomCorruptionNeverYieldsGarbage) {
  // 200 seeded rounds: save epochs 1 and 2, corrupt epoch 2 at random.
  // load_tagged(2) must return v2 verbatim (only possible when the mutation
  // was an identity) or nothing, and epoch 1 — the rollback target — must
  // still load verbatim. A CRC32 footer that let a single flipped bit
  // through would surface here as a "loaded something that is neither"
  // failure.
  Xoshiro256 rng(20260809);
  for (int round = 0; round < 200; ++round) {
    fs::remove_all(dir);
    SnapshotStore store(dir.string());
    ASSERT_TRUE(store.save_tagged(make_snapshot(1), 1));
    ASSERT_TRUE(store.save_tagged(make_snapshot(2), 2));
    bool mutated = corrupt(store.tagged_path(2), rng);

    auto current = store.load_tagged(2);
    if (mutated) {
      EXPECT_FALSE(current.has_value()) << "round " << round << ": corrupt epoch must not load";
    } else {
      ASSERT_TRUE(current.has_value()) << "round " << round;
      EXPECT_TRUE(is_snapshot(*current, 2)) << "round " << round;
    }
    auto previous = store.load_tagged(1);
    ASSERT_TRUE(previous.has_value()) << "round " << round << ": epoch 1 is intact";
    EXPECT_TRUE(is_snapshot(*previous, 1)) << "round " << round;
  }
}

TEST_F(SnapshotFuzzTest, BothGenerationsCorruptLoadsNothingNotGarbage) {
  Xoshiro256 rng(7);
  for (int round = 0; round < 100; ++round) {
    fs::remove_all(dir);
    SnapshotStore store(dir.string());
    ASSERT_TRUE(store.save_tagged(make_snapshot(1), 1));
    ASSERT_TRUE(store.save_tagged(make_snapshot(2), 2));
    bool cur = corrupt(store.tagged_path(2), rng);
    bool prev = corrupt(store.tagged_path(1), rng);

    // Only an identity mutation can leave a loadable file — and then it
    // must be the uncorrupted original, never a blend.
    if (auto loaded = store.load_tagged(2)) {
      EXPECT_TRUE(!cur && is_snapshot(*loaded, 2)) << "round " << round;
    }
    if (auto loaded = store.load_tagged(1)) {
      EXPECT_TRUE(!prev && is_snapshot(*loaded, 1)) << "round " << round;
    }
  }
}

TEST_F(SnapshotFuzzTest, TaggedEpochCorruptionIsIsolated) {
  // The coordinated-checkpoint commit protocol relies on this: a torn
  // epoch-N file must read as "missing" (so the last committed epoch —
  // committed only after every worker acked — is an older one that still
  // validates), and must not damage neighbouring epochs.
  Xoshiro256 rng(99);
  for (int round = 0; round < 100; ++round) {
    fs::remove_all(dir);
    SnapshotStore store(dir.string());
    for (uint64_t epoch = 1; epoch <= 3; ++epoch)
      ASSERT_TRUE(store.save_tagged(make_snapshot(uint8_t(epoch)), epoch));

    uint64_t victim = 1 + rng.next_below(3);
    bool mutated = corrupt(store.tagged_path(victim), rng);

    for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
      auto loaded = store.load_tagged(epoch);
      if (epoch == victim && mutated) {
        EXPECT_FALSE(loaded.has_value()) << "round " << round << " epoch " << epoch;
      } else {
        ASSERT_TRUE(loaded.has_value()) << "round " << round << " epoch " << epoch;
        EXPECT_TRUE(is_snapshot(*loaded, uint8_t(epoch))) << "round " << round;
      }
    }
  }
}

TEST_F(SnapshotFuzzTest, TaggedRetentionKeepsNewestEpochs) {
  SnapshotStore store(dir.string());
  for (uint64_t epoch = 1; epoch <= 6; ++epoch)
    ASSERT_TRUE(store.save_tagged(make_snapshot(uint8_t(epoch)), epoch, /*retain=*/4));
  EXPECT_EQ(store.tagged_epochs(), (std::vector<uint64_t>{3, 4, 5, 6}));
  EXPECT_FALSE(store.load_tagged(2).has_value());
  ASSERT_TRUE(store.load_tagged(6).has_value());
}

TEST_F(SnapshotFuzzTest, MissingTaggedEpochLoadsNothing) {
  SnapshotStore store(dir.string());
  ASSERT_TRUE(store.save_tagged(make_snapshot(5), 5));
  EXPECT_FALSE(store.load_tagged(4).has_value());
  EXPECT_EQ(store.tagged_epochs(), std::vector<uint64_t>{5});
}

}  // namespace
}  // namespace neptune::fault
