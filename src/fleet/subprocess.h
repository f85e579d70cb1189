// A minimal POSIX child-process handle for the fleet supervisor: spawn an
// argv with stdout/stderr captured to a file, poll or await its exit, sleep
// until any of several children exits, and SIGKILL a child that overstays
// its deadline. Deliberately tiny — no pipes, no shells (fork + execv, so
// worker arguments are never re-parsed), no threads, no signal handlers:
// each child is watched through a Linux pidfd, which becomes readable when
// it exits, and WaitAny poll()s those descriptors — because the
// supervisor's whole failure model is "the child is a black box that either
// produces a verifiable document or gets retried".

#ifndef LONGSTORE_SRC_FLEET_SUBPROCESS_H_
#define LONGSTORE_SRC_FLEET_SUBPROCESS_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace longstore {

class Subprocess {
 public:
  // Exit codes the child reserves for its own pre-exec failures. 127 is the
  // shell's convention for "command not found / exec failed"; 126 ("found
  // but not runnable" in shells) is reused here for "could not open the
  // output_path log file". Workers must not exit with these codes
  // themselves, or the supervisor will misclassify the failure.
  static constexpr int kLogOpenFailedExit = 126;
  static constexpr int kExecFailedExit = 127;

  Subprocess() = default;
  // A still-running child is killed and reaped on destruction so a throwing
  // supervisor can never leak zombies or orphaned workers.
  ~Subprocess();
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;

  // Forks and execs argv (argv[0] is the binary path; no PATH search, no
  // shell). The child's stdout and stderr are appended to `output_path`
  // (empty = inherit). Throws std::runtime_error if the fork itself fails;
  // an exec failure surfaces as exit code kExecFailedExit (127) on
  // Poll/Await, and a failure to open `output_path` as kLogOpenFailedExit
  // (126) — the child refuses to run with its logs discarded. The parent
  // opens the child's pidfd right after fork: nobody else can reap the
  // child before then, so its pid cannot have been reused. The pidfd is
  // close-on-exec, so no later child inherits it.
  static Subprocess Spawn(const std::vector<std::string>& argv,
                          const std::string& output_path);

  bool started() const { return pid_ > 0; }
  bool running() const { return pid_ > 0 && !exited_; }

  // Non-blocking reap; returns true once the child has exited (repeat calls
  // after that stay true and are free).
  bool Poll();
  // Blocking reap.
  void Await();
  // SIGKILL — the escalation of last resort for hung workers. Idempotent;
  // the caller still needs Poll/Await to reap. No-op after exit.
  void Kill();

  // Sleeps until one of `children` exits or `max_wait_s` seconds have
  // passed, whichever is first; +infinity waits for an exit alone. The
  // bound is rounded up to whole milliseconds, so a caller waiting for a
  // deadline wakes after it, and saturates instead of overflowing. Returns
  // early on a signal. Reaps nothing: follow with Poll. A running child
  // whose pidfd could not be opened (ENOSYS before Linux 5.3, EPERM under a
  // seccomp filter, EMFILE) caps the wait at 2 ms, so its exit is still
  // noticed by polling. With no running child and no finite bound it
  // returns at once rather than sleep forever.
  static void WaitAny(const std::vector<const Subprocess*>& children,
                      double max_wait_s);

  // Valid after Poll/Await returned true.
  bool exited_cleanly() const { return exited_ && term_signal_ == 0 && exit_code_ == 0; }
  int exit_code() const { return exit_code_; }      // -1 when signaled
  int term_signal() const { return term_signal_; }  // 0 when exited normally
  pid_t pid() const { return pid_; }

  // "exit status 1", "signal 9 (Killed)" — for retry-log messages.
  std::string DescribeExit() const;

 private:
  // Records the exit and closes the pidfd.
  void MarkReaped(int status, bool have_status);

  pid_t pid_ = -1;
  // Readable once the child exits. Open only while running(), so reaping
  // closes it, and so does a destructor or move-assignment that kills and
  // reaps a running child; -1 if pidfd_open failed.
  int pidfd_ = -1;
  bool exited_ = false;
  int exit_code_ = -1;
  int term_signal_ = 0;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_FLEET_SUBPROCESS_H_
