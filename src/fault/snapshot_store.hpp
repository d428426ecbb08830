// Crash-safe persistence for JobSnapshot, one file per checkpoint epoch.
//
// A distributed deployment commits checkpoints in numbered epochs: every
// worker persists its slice under the same epoch, and the supervisor
// commits the epoch only after all slices are durable. Save protocol:
// serialize + CRC32 footer into `<dir>/snapshot.tmp`, fsync the file, then
// atomically rename it to `snapshot-<epoch>.bin` and fsync the directory.
// A crash at any point leaves either no file for the epoch or a complete
// one — never a half-written file under the epoch's name. Load validates
// the footer (magic, length, CRC) and reports a torn or bit-flipped file as
// missing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "neptune/state.hpp"

namespace neptune::fault {

class SnapshotStore {
 public:
  /// `dir` must exist (or be creatable); files live directly inside it.
  explicit SnapshotStore(std::string dir);

  /// Durably persist `snap` as `snapshot-<epoch>.bin`, then prune epochs
  /// older than the newest `retain` (default 4). False on I/O failure.
  bool save_tagged(const JobSnapshot& snap, uint64_t epoch, size_t retain = 4);

  /// Validated snapshot for exactly `epoch`, or nullopt when missing/corrupt.
  std::optional<JobSnapshot> load_tagged(uint64_t epoch) const;

  /// Epochs with a file present (validity not checked), ascending.
  std::vector<uint64_t> tagged_epochs() const;

  std::string tagged_path(uint64_t epoch) const;

 private:
  std::string dir_;
};

}  // namespace neptune::fault
