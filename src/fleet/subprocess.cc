#include "src/fleet/subprocess.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace longstore {

namespace {

// The wait cap while a running child has no pidfd: its exit is noticed by
// polling, at the interval the supervisor used before it had pidfds.
constexpr double kPollFallbackSeconds = 0.002;

// Opens a pidfd for `pid`, or returns -1. Through syscall(): glibc 2.36's
// <sys/pidfd.h> declares pidfd_open without extern "C", so a C++ call to it
// does not link.
int OpenPidfd(pid_t pid) {
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
}

// poll()'s timeout for a wait of `seconds`: -1 (no timeout) for +infinity,
// otherwise whole milliseconds rounded up and saturated at INT_MAX.
int PollTimeoutMs(double seconds) {
  if (seconds == std::numeric_limits<double>::infinity()) {
    return -1;
  }
  if (!(seconds > 0.0)) {
    return 0;
  }
  const double ms = std::ceil(seconds * 1e3);
  return ms < static_cast<double>(INT_MAX) ? static_cast<int>(ms) : INT_MAX;
}

void RecordStatus(int status, int* exit_code, int* term_signal) {
  if (WIFEXITED(status)) {
    *exit_code = WEXITSTATUS(status);
    *term_signal = 0;
  } else if (WIFSIGNALED(status)) {
    *exit_code = -1;
    *term_signal = WTERMSIG(status);
  } else {
    // Neither exited nor signaled (stopped/continued should not reach us —
    // we never pass WUNTRACED); treat as an abnormal exit.
    *exit_code = -1;
    *term_signal = 0;
  }
}

}  // namespace

Subprocess::~Subprocess() {
  if (running()) {
    Kill();
    Await();
  }
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_),
      pidfd_(other.pidfd_),
      exited_(other.exited_),
      exit_code_(other.exit_code_),
      term_signal_(other.term_signal_) {
  other.pid_ = -1;
  other.pidfd_ = -1;
  other.exited_ = false;
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    if (running()) {
      Kill();
      Await();
    }
    pid_ = other.pid_;
    pidfd_ = other.pidfd_;
    exited_ = other.exited_;
    exit_code_ = other.exit_code_;
    term_signal_ = other.term_signal_;
    other.pid_ = -1;
    other.pidfd_ = -1;
    other.exited_ = false;
  }
  return *this;
}

Subprocess Subprocess::Spawn(const std::vector<std::string>& argv,
                             const std::string& output_path) {
  if (argv.empty()) {
    throw std::runtime_error("Subprocess::Spawn: empty argv");
  }
  // Build the exec vector before forking: the child may only use
  // async-signal-safe calls, and vector growth is not one of them.
  std::vector<char*> exec_argv;
  exec_argv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    exec_argv.push_back(const_cast<char*>(arg.c_str()));
  }
  exec_argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("Subprocess::Spawn: fork failed: ") +
                             ::strerror(errno));
  }
  if (pid == 0) {
    // Child. Only async-signal-safe calls from here to execv/_exit.
    if (!output_path.empty()) {
      const int fd =
          ::open(output_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd < 0) {
        // Running the worker anyway would silently discard its logs — the
        // supervisor's only diagnostic channel. Exit with a code distinct
        // from exec failure so the parent can name the real problem.
        ::_exit(kLogOpenFailedExit);
      }
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd != STDOUT_FILENO && fd != STDERR_FILENO) {
        ::close(fd);
      }
    }
    ::execv(exec_argv[0], exec_argv.data());
    ::_exit(kExecFailedExit);  // 127 is the shell's convention for exec failure
  }
  Subprocess child;
  child.pid_ = pid;
  child.pidfd_ = OpenPidfd(pid);
  return child;
}

bool Subprocess::Poll() {
  if (pid_ <= 0) {
    return false;
  }
  if (exited_) {
    return true;
  }
  int status = 0;
  const pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
  if (reaped == pid_) {
    MarkReaped(status, true);
    return true;
  }
  if (reaped < 0 && errno != EINTR) {
    // ECHILD etc.: nothing left to reap; report it as an abnormal exit
    // rather than spinning forever.
    MarkReaped(0, false);
    return true;
  }
  return false;
}

void Subprocess::Await() {
  if (pid_ <= 0 || exited_) {
    return;
  }
  int status = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(pid_, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  MarkReaped(status, reaped == pid_);
}

void Subprocess::Kill() {
  if (running()) {
    ::kill(pid_, SIGKILL);
  }
}

void Subprocess::WaitAny(const std::vector<const Subprocess*>& children,
                         double max_wait_s) {
  std::vector<pollfd> fds;
  fds.reserve(children.size());
  for (const Subprocess* child : children) {
    if (!child->running()) {
      continue;
    }
    if (child->pidfd_ < 0) {
      max_wait_s = std::min(max_wait_s, kPollFallbackSeconds);
    } else {
      fds.push_back(pollfd{child->pidfd_, POLLIN, 0});
    }
  }
  const int timeout_ms = PollTimeoutMs(max_wait_s);
  if (fds.empty() && timeout_ms < 0) {
    return;
  }
  ::poll(fds.data(), fds.size(), timeout_ms);
}

void Subprocess::MarkReaped(int status, bool have_status) {
  exited_ = true;
  if (have_status) {
    RecordStatus(status, &exit_code_, &term_signal_);
  } else {
    exit_code_ = -1;
    term_signal_ = 0;
  }
  if (pidfd_ >= 0) {
    ::close(pidfd_);
    pidfd_ = -1;
  }
}

std::string Subprocess::DescribeExit() const {
  if (!exited_) {
    return "still running";
  }
  if (term_signal_ != 0) {
    std::string out = "signal " + std::to_string(term_signal_);
    const char* name = ::strsignal(term_signal_);
    if (name != nullptr) {
      out += std::string(" (") + name + ")";
    }
    return out;
  }
  return "exit status " + std::to_string(exit_code_);
}

}  // namespace longstore
