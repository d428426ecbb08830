#include "fault/snapshot_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "common/crc32.hpp"

namespace neptune::fault {

namespace {

// File layout: [snapshot bytes][u32 footer magic][u32 body len][u32 crc32].
// The snapshot body already carries its own magic/CRC; the footer guards
// against truncation (a torn tail chops the footer off first) and lets the
// reader validate without parsing.
constexpr uint32_t kFooterMagic = 0x4E505346;  // "NPSF"
constexpr size_t kFooterSize = 12;

bool read_file(const std::string& path, std::vector<uint8_t>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.insert(out.end(), buf, buf + n);
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

uint32_t load_u32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void store_u32(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

/// Validated snapshot body from `path`, or nullopt for missing/torn/corrupt.
std::optional<JobSnapshot> load_validated(const std::string& path) {
  std::vector<uint8_t> file;
  if (!read_file(path, file) || file.size() < kFooterSize) return std::nullopt;
  const uint8_t* footer = file.data() + file.size() - kFooterSize;
  if (load_u32(footer) != kFooterMagic) return std::nullopt;
  uint32_t len = load_u32(footer + 4);
  uint32_t crc = load_u32(footer + 8);
  if (len != file.size() - kFooterSize) return std::nullopt;  // truncated body
  std::span<const uint8_t> body(file.data(), len);
  if (crc32(body) != crc) return std::nullopt;  // bit flip anywhere in the body
  try {
    return JobSnapshot::deserialize(body);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

bool fsync_path(const std::string& path, bool directory) {
  int fd = ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

SnapshotStore::SnapshotStore(std::string dir) : dir_(std::move(dir)) {
  ::mkdir(dir_.c_str(), 0755);  // best-effort; save_tagged() reports real failures
}

std::string SnapshotStore::tagged_path(uint64_t epoch) const {
  return dir_ + "/snapshot-" + std::to_string(epoch) + ".bin";
}

bool SnapshotStore::save_tagged(const JobSnapshot& snap, uint64_t epoch, size_t retain) {
  ByteBuffer body;
  snap.serialize(body);
  uint8_t footer[kFooterSize];
  store_u32(kFooterMagic, footer);
  store_u32(static_cast<uint32_t>(body.size()), footer + 4);
  store_u32(crc32(body.contents()), footer + 8);

  const std::string tmp = dir_ + "/snapshot.tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
            std::fwrite(footer, 1, kFooterSize, f) == kFooterSize &&
            std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), tagged_path(epoch).c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  fsync_path(dir_, /*directory=*/true);

  // Bounded retention: keep the newest `retain` epochs so a torn commit of
  // epoch N can always roll back to a fully committed earlier epoch.
  std::vector<uint64_t> epochs = tagged_epochs();
  if (retain > 0 && epochs.size() > retain) {
    for (size_t i = 0; i + retain < epochs.size(); ++i)
      std::remove(tagged_path(epochs[i]).c_str());
  }
  return true;
}

std::optional<JobSnapshot> SnapshotStore::load_tagged(uint64_t epoch) const {
  return load_validated(tagged_path(epoch));
}

std::vector<uint64_t> SnapshotStore::tagged_epochs() const {
  std::vector<uint64_t> out;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return out;
  while (struct dirent* e = ::readdir(d)) {
    std::string_view name(e->d_name);
    if (!name.starts_with("snapshot-") || !name.ends_with(".bin")) continue;
    std::string digits(name.substr(9, name.size() - 13));
    if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) continue;
    out.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace neptune::fault
