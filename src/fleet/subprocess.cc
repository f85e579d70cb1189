#include "src/fleet/subprocess.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
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

void CloseIfOpen(int fd) {
  if (fd >= 0) {
    ::close(fd);
  }
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

Subprocess::Subprocess(Subprocess&& other) noexcept { MoveFrom(other); }

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    if (running()) {
      Kill();
      Await();
    }
    MoveFrom(other);
  }
  return *this;
}

void Subprocess::MoveFrom(Subprocess& other) noexcept {
  pid_ = other.pid_;
  pidfd_ = other.pidfd_;
  stdout_fd_ = other.stdout_fd_;
  output_ = std::move(other.output_);
  exited_ = other.exited_;
  exit_code_ = other.exit_code_;
  term_signal_ = other.term_signal_;
  other.pid_ = -1;
  other.pidfd_ = -1;
  other.stdout_fd_ = -1;
  other.output_.clear();
  other.exited_ = false;
}

Subprocess Subprocess::Spawn(const std::vector<std::string>& argv,
                             const std::string& log_path) {
  if (argv.empty()) {
    throw std::runtime_error("Subprocess::Spawn: empty argv");
  }
  std::vector<char*> exec_argv;
  exec_argv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    exec_argv.push_back(const_cast<char*>(arg.c_str()));
  }
  exec_argv.push_back(nullptr);

  // Running the child with its stderr discarded would lose the worker's
  // only diagnostic channel, so a log that cannot be opened starts nothing.
  int log_fd = -1;
  if (!log_path.empty()) {
    log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                    0644);
    if (log_fd < 0) {
      const int error = errno;
      throw SpawnError(SpawnError::Step::kLogOpen,
                       "cannot open log file '" + log_path + "': " +
                           ::strerror(error),
                       error);
    }
  }
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    const int error = errno;
    CloseIfOpen(log_fd);
    throw SpawnError(SpawnError::Step::kPipe,
                     std::string("cannot create a stdout pipe: ") + ::strerror(error),
                     error);
  }
  // dup2 clears close-on-exec on the child's copies, so fds 1 and 2 are the
  // only descriptors the child gains.
  posix_spawn_file_actions_t actions;
  int rc = ::posix_spawn_file_actions_init(&actions);
  pid_t pid = -1;
  if (rc == 0) {
    rc = ::posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
    if (rc == 0 && log_fd >= 0) {
      rc = ::posix_spawn_file_actions_adddup2(&actions, log_fd, STDERR_FILENO);
    }
    if (rc == 0) {
      rc = ::posix_spawn(&pid, exec_argv[0], &actions, nullptr, exec_argv.data(),
                         environ);
    }
    ::posix_spawn_file_actions_destroy(&actions);
  }
  ::close(pipe_fds[1]);
  CloseIfOpen(log_fd);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    // posix_spawn returns the exec's errno and the clone's through the same
    // rc: only these name a binary path that cannot run.
    if (rc == ENOENT || rc == EACCES || rc == ENOEXEC || rc == ENOTDIR) {
      throw SpawnError(SpawnError::Step::kExec,
                       "cannot execute '" + argv[0] + "': " + ::strerror(rc), rc);
    }
    throw SpawnError(SpawnError::Step::kSpawn,
                     "cannot spawn '" + argv[0] + "': " + ::strerror(rc), rc);
  }
  // Only the read end is non-blocking: the child writes to a blocking pipe.
  ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
  Subprocess child;
  child.pid_ = pid;
  child.pidfd_ = OpenPidfd(pid);
  child.stdout_fd_ = pipe_fds[0];
  return child;
}

bool Subprocess::Poll() {
  if (pid_ <= 0) {
    return false;
  }
  if (exited_) {
    return true;
  }
  Drain();
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
  while (!Poll() && running()) {
    WaitAny({this}, std::numeric_limits<double>::infinity());
  }
}

void Subprocess::Kill() {
  if (running()) {
    ::kill(pid_, SIGKILL);
  }
}

void Subprocess::WaitAny(const std::vector<const Subprocess*>& children,
                         double max_wait_s) {
  std::vector<pollfd> fds;
  fds.reserve(2 * children.size());
  for (const Subprocess* child : children) {
    if (!child->running()) {
      continue;
    }
    if (child->pidfd_ < 0) {
      max_wait_s = std::min(max_wait_s, kPollFallbackSeconds);
    } else {
      fds.push_back(pollfd{child->pidfd_, POLLIN, 0});
    }
    if (child->stdout_fd_ >= 0) {
      fds.push_back(pollfd{child->stdout_fd_, POLLIN, 0});
    }
  }
  const int timeout_ms = PollTimeoutMs(max_wait_s);
  if (fds.empty() && timeout_ms < 0) {
    return;
  }
  ::poll(fds.data(), fds.size(), timeout_ms);
}

void Subprocess::Drain() {
  while (stdout_fd_ >= 0) {
    char buffer[1 << 16];
    const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
    if (n > 0) {
      output_.append(buffer, static_cast<size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      // EOF, or a read error: nothing more will arrive.
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }
}

void Subprocess::MarkReaped(int status, bool have_status) {
  exited_ = true;
  if (have_status) {
    RecordStatus(status, &exit_code_, &term_signal_);
  } else {
    exit_code_ = -1;
    term_signal_ = 0;
  }
  CloseIfOpen(pidfd_);
  pidfd_ = -1;
  // Everything the child wrote before it exited is in the pipe now. Read it
  // and close without waiting for an EOF: a process the child passed its
  // stdout on to could hold the pipe open indefinitely.
  Drain();
  CloseIfOpen(stdout_fd_);
  stdout_fd_ = -1;
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
