#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dlapbench {

namespace fs = std::filesystem;

Daemon::Daemon(const fs::path& binary, const fs::path& repo) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    const std::string bin = binary.string();
    const std::string dir = repo.string();
    std::vector<const char*> argv{bin.c_str(),       "--repo",     dir.c_str(),
                                  "--port",          "0",          "--no-generate",
                                  "--conn-workers",  "2",          "--workers",
                                  "1",               nullptr};
    ::execv(bin.c_str(), const_cast<char* const*>(argv.data()));
    ::_exit(127);
  }
  ::close(out[1]);
  // Banner: "dlapd: serving 127.0.0.1:<port> (repo ...".
  std::string line;
  char c = 0;
  while (::read(out[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  // Kept open until the child exits: its shutdown lines must not hit a
  // closed pipe (SIGPIPE), and they fit the pipe buffer unread.
  banner_fd_ = out[0];
  const std::string marker = "127.0.0.1:";
  const std::size_t at = line.find(marker);
  if (at != std::string::npos) {
    port_ = std::atoi(line.c_str() + at + marker.size());
  }
  if (port_ <= 0) {
    stop();
    throw std::runtime_error("dlapd did not start: '" + line + "'");
  }
}

Daemon::~Daemon() { stop(); }

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (banner_fd_ >= 0) ::close(banner_fd_);
  banner_fd_ = -1;
  return done > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double Daemon::cpu_us() const {
  // Per-thread schedstat carries nanoseconds (/proc/<pid>/stat only clock
  // ticks). dlapd's threads live as long as the process, so the sum over
  // its tasks is its CPU time.
  double ns = 0.0;
  bool any = false;
  const fs::path tasks = fs::path("/proc") / std::to_string(pid_) / "task";
  std::error_code ec;
  for (const auto& task : fs::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "schedstat");
    double run = 0.0;
    if (in >> run) {
      ns += run;
      any = true;
    }
  }
  if (!any) {
    throw std::runtime_error("cannot read dlapd CPU time from " + tasks.string() +
                             "/*/schedstat");
  }
  return ns / 1000.0;
}

double Daemon::peak_rss_mib() const {
  std::ifstream in(fs::path("/proc") / std::to_string(pid_) / "status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

HostCpu HostCpu::now() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu out;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

}  // namespace dlapbench
