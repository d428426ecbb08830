// Thread naming and kernel scheduler observability. The context-switch
// counters back Table I of the paper: batched scheduling is validated by the
// drop in non-voluntary context switches read from /proc/self/task/*/status.
#pragma once

#include <cstdint>
#include <string>

namespace neptune {

/// Name the calling thread (visible in /proc and debuggers). Truncated to
/// the kernel's 15-character limit.
void set_thread_name(const std::string& name);

/// Voluntary and non-voluntary context switch counts, as the kernel keeps
/// them per thread. Both may be 0 for a thread that has not yet blocked or
/// been preempted.
struct ContextSwitches {
  uint64_t voluntary = 0;
  uint64_t nonvoluntary = 0;
  uint64_t total() const { return voluntary + nonvoluntary; }
};

/// Read the process-wide context switch counters: the sum over the live
/// threads in /proc/self/task/*/status. Threads that have exited are not
/// counted, unlike getrusage(RUSAGE_SELF). Returns zeros when /proc is
/// unavailable (non-Linux).
ContextSwitches read_context_switches();

/// Context switch counters for the calling thread only
/// (/proc/self/task/<tid>/status).
ContextSwitches read_thread_context_switches();

}  // namespace neptune
