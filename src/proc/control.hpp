// Control-plane transport between the resource supervisor and its worker
// processes: line-delimited JSON over a socketpair. One message per line —
// small, human-greppable in incident bundles, and framing-error-free (a
// torn line at worker death simply never parses). The data plane (stream
// packets) never touches this channel; it rides the supervised TCP edges.
//
// Worker -> supervisor: hello, hb (heartbeat + stat counters), checkpointed,
//                       completed (sink digests), failed.
// Supervisor -> worker: checkpoint{epoch}, stop.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.hpp"

namespace neptune::proc {

/// One end of a JSONL control link. Not thread-safe: each end is owned by
/// exactly one loop (the worker's control loop or the supervisor's monitor
/// loop).
class ControlChannel {
 public:
  /// Takes ownership of `fd` (closed on destruction) unless owns_fd=false.
  explicit ControlChannel(int fd, bool owns_fd = true);
  ~ControlChannel();
  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  /// Serialize `msg` + '\n' and write it out (blocking until fully written).
  /// Returns false once the peer is gone (EPIPE/reset) — never raises
  /// SIGPIPE.
  bool send(const JsonValue& msg);

  /// Next parsed message, waiting up to `timeout_ms` (0 = only what is
  /// already buffered/readable). nullopt on timeout or EOF — check eof() to
  /// distinguish. Unparseable lines are dropped (a worker killed mid-write
  /// leaves a torn tail).
  std::optional<JsonValue> poll(int timeout_ms);

  bool eof() const { return eof_; }
  int fd() const { return fd_; }

 private:
  std::optional<JsonValue> pop_message();

  int fd_;
  bool owns_fd_;
  bool eof_ = false;
  std::string buf_;
};

/// Convenience: `{"type": type}` with room for more fields.
JsonValue control_message(const std::string& type);

}  // namespace neptune::proc
