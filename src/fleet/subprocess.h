// A minimal POSIX child-process handle for the fleet supervisor: spawn an
// argv with its stdout captured through a pipe and its stderr appended to a
// log file, drain that pipe while the child runs, poll or await its exit,
// sleep until any of several children exits or writes, and SIGKILL a child
// that overstays its deadline. Deliberately tiny — one pipe (stdout), no
// shells (posix_spawn with no PATH search, so worker arguments are never
// re-parsed), no threads, no signal handlers: each child is watched through
// a Linux pidfd, which becomes readable when it exits, and WaitAny poll()s
// those descriptors and the stdout pipes — because the supervisor's whole
// failure model is "the child is a black box that either produces a
// verifiable document or gets retried".
//
// A child that cannot be started is a spawn-time error (SpawnError), never
// an exit status, so no exit code is reserved: a child that exits 126 or
// 127 on its own is reported as exactly that.

#ifndef LONGSTORE_SRC_FLEET_SUBPROCESS_H_
#define LONGSTORE_SRC_FLEET_SUBPROCESS_H_

#include <sys/types.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace longstore {

// Subprocess::Spawn could not start the child. what() names the step and
// the path: "cannot open log file '<path>': Is a directory".
class SpawnError : public std::runtime_error {
 public:
  enum class Step {
    kLogOpen,  // the log file could not be opened; no process was started
    kPipe,     // the stdout pipe could not be created
    kExec,     // the binary is missing or not runnable: ENOENT, EACCES,
               // ENOEXEC or ENOTDIR from the exec
    kSpawn,    // posix_spawn failed otherwise: a process or memory limit
               // (EAGAIN, ENOMEM) or an argv too long for the exec (E2BIG)
  };

  SpawnError(Step step, const std::string& message, int error_number)
      : std::runtime_error(message), step_(step), error_number_(error_number) {}

  Step step() const { return step_; }
  int error_number() const { return error_number_; }  // the errno

 private:
  Step step_;
  int error_number_;
};

class Subprocess {
 public:
  Subprocess() = default;
  // A still-running child is killed and reaped on destruction so a throwing
  // supervisor can never leak zombies or orphaned workers.
  ~Subprocess();
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;

  // posix_spawns argv (argv[0] is the binary path; no PATH search, no
  // shell). The child's stdout is a pipe whose bytes collect in output();
  // its stderr is appended to `log_path` (empty = inherited). Throws
  // SpawnError when `log_path` cannot be opened (before any process
  // starts), when the pipe cannot be made, or when posix_spawn fails (glibc
  // reports the exec's errno and reaps the failed child); the step tells a
  // bad binary path (kExec) from any other failure (kSpawn). The log file,
  // the pipe and the pidfd are all close-on-exec, so no later child
  // inherits them. The pidfd is opened right after the spawn: nobody else
  // can reap the child before then, so its pid cannot have been reused.
  static Subprocess Spawn(const std::vector<std::string>& argv,
                          const std::string& log_path);

  bool started() const { return pid_ > 0; }
  bool running() const { return pid_ > 0 && !exited_; }

  // Non-blocking: reads what the stdout pipe holds, then reaps; returns true
  // once the child has exited (repeat calls after that stay true and are
  // free). On the exit it reads what is still buffered and closes the pipe
  // without waiting for an EOF, which a descriptor the child passed on could
  // withhold.
  bool Poll();
  // Blocking reap; drains the stdout pipe while it waits, so a child never
  // blocks on a full pipe.
  void Await();
  // SIGKILL — the escalation of last resort for hung workers. Idempotent;
  // the caller still needs Poll/Await to reap. No-op after exit.
  void Kill();

  // Sleeps until one of `children` exits or writes to its stdout, or
  // `max_wait_s` seconds have passed, whichever is first; +infinity waits
  // for an exit or output alone. The bound is rounded up to whole
  // milliseconds, so a caller waiting for a deadline wakes after it, and
  // saturates instead of overflowing. Returns early on a signal. Reads and
  // reaps nothing: follow with Poll. A running child whose pidfd could not
  // be opened (ENOSYS before Linux 5.3, EPERM under a seccomp filter,
  // EMFILE) caps the wait at 2 ms, so its exit is still noticed by polling.
  // With no running child and no finite bound it returns at once rather
  // than sleep forever.
  static void WaitAny(const std::vector<const Subprocess*>& children,
                      double max_wait_s);

  // The bytes the child has written to its stdout so far; complete once
  // Poll/Await reported the exit.
  const std::string& output() const { return output_; }

  // Valid after Poll/Await returned true.
  bool exited_cleanly() const { return exited_ && term_signal_ == 0 && exit_code_ == 0; }
  int exit_code() const { return exit_code_; }      // -1 when signaled
  int term_signal() const { return term_signal_; }  // 0 when exited normally
  pid_t pid() const { return pid_; }

  // "exit status 1", "signal 9 (Killed)" — for retry-log messages.
  std::string DescribeExit() const;

 private:
  // Appends what the stdout pipe holds to output_ without blocking; closes
  // the pipe at EOF or on a read error.
  void Drain();
  // Records the exit, closes the pidfd, and drains and closes the pipe.
  void MarkReaped(int status, bool have_status);
  // Takes over `other`'s child and leaves it empty.
  void MoveFrom(Subprocess& other) noexcept;

  pid_t pid_ = -1;
  // Readable once the child exits; -1 if pidfd_open failed. Both
  // descriptors are open at most while running(), so reaping closes them,
  // and so does a destructor or move-assignment that kills and reaps a
  // running child.
  int pidfd_ = -1;
  // The read end of the child's stdout, non-blocking; -1 once closed (at
  // the exit, or earlier at an EOF).
  int stdout_fd_ = -1;
  std::string output_;
  bool exited_ = false;
  int exit_code_ = -1;
  int term_signal_ = 0;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_FLEET_SUBPROCESS_H_
