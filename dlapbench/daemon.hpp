#pragma once
// A dlapd child process and the /proc readings taken from it.

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <string>

namespace dlapbench {

/// Spawns `dlapd --no-generate --conn-workers 2 --port 0 --repo <repo>`
/// and reads its port from the start-up banner. The child dies with the
/// benchmark (PR_SET_PDEATHSIG), and stop() or the destructor sends
/// SIGTERM and waits for it to exit.
class Daemon {
 public:
  Daemon(const std::filesystem::path& binary,
         const std::filesystem::path& repo);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const noexcept { return port_; }

  /// CPU time of all its threads so far, in microseconds, from their
  /// /proc schedstat; throws when none can be read.
  [[nodiscard]] double cpu_us() const;
  /// Peak resident set size (VmHWM), in MiB.
  [[nodiscard]] double peak_rss_mib() const;

  /// SIGTERM, then wait; SIGKILL if it has not exited within 10 s.
  /// Returns true when it exited cleanly with status 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int banner_fd_ = -1;  ///< read end of the child's stdout
};

/// Host CPU counters from /proc/stat, for the steal share of a run.
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  [[nodiscard]] static HostCpu now();
  /// Share of all CPU time the hypervisor stole between `earlier` and now.
  [[nodiscard]] double steal_share_since(const HostCpu& earlier) const {
    return total > earlier.total ? static_cast<double>(steal - earlier.steal) /
                                       static_cast<double>(total - earlier.total)
                                 : 0.0;
  }
};

}  // namespace dlapbench
