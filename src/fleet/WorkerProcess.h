//===- WorkerProcess.h - Forked charon_worker child handle --------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One fork/exec'd charon_worker child and its line-oriented pipe channel:
/// blocking writes into the child's stdin, buffered line reads from its
/// stdout with an optional timeout. EOF on the read side is how the
/// coordinator detects a dead worker — the precondition for replaying the
/// node it was expanding, so no subtree is ever lost to a crash. Callers
/// must ignore SIGPIPE (the coordinator and the worker main both install
/// SIG_IGN); a write into a dead child then fails with EPIPE instead of
/// killing the process.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_FLEET_WORKERPROCESS_H
#define CHARON_FLEET_WORKERPROCESS_H

#include <string>
#include <sys/types.h>
#include <vector>

namespace charon {

class WorkerProcess {
public:
  WorkerProcess() = default;
  ~WorkerProcess();

  WorkerProcess(const WorkerProcess &) = delete;
  WorkerProcess &operator=(const WorkerProcess &) = delete;

  /// Spawns `Binary Args...` with stdin/stdout piped (stderr inherited, so
  /// worker diagnostics land on the coordinator's stderr). False with a
  /// reason when the pipes, fork, or a pre-exec step fail; an exec failure
  /// surfaces as an immediate EOF.
  bool spawn(const std::string &Binary, const std::vector<std::string> &Args,
             std::string *Error = nullptr);

  /// Writes one protocol line (appends '\n'). False once the child is gone.
  bool sendLine(const std::string &Line);

  /// Reads the next line (without its '\n'), waiting up to
  /// \p TimeoutSeconds (< 0 waits forever). False on timeout or EOF; after
  /// EOF channelOpen() is false.
  bool readLine(std::string &Line, double TimeoutSeconds = -1.0);

  /// True while the channel is open (EOF not yet seen).
  bool channelOpen() const { return OutFd >= 0 && !SawEof; }

  pid_t pid() const { return Pid; }

  /// SIGKILL + reap. Idempotent.
  void kill();

  /// Polite shutdown: quit command, bounded wait, then kill().
  void shutdown(double GraceSeconds);

private:
  void closeFds();
  /// Blocks up to \p Seconds for the child to exit; reaps it on success.
  bool waitExit(double Seconds);

  pid_t Pid = -1;
  int InFd = -1;  ///< write end of the child's stdin
  int OutFd = -1; ///< read end of the child's stdout
  std::string Buf;
  bool SawEof = false;
};

} // namespace charon

#endif // CHARON_FLEET_WORKERPROCESS_H
