//===- WorkerProcess.cpp - Forked charon_worker child handle ------------------===//

#include "fleet/WorkerProcess.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string_view>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace charon;

WorkerProcess::~WorkerProcess() { kill(); }

void WorkerProcess::closeFds() {
  if (InFd >= 0)
    ::close(InFd);
  if (OutFd >= 0)
    ::close(OutFd);
  InFd = OutFd = -1;
}

bool WorkerProcess::spawn(const std::string &Binary,
                          const std::vector<std::string> &Args,
                          std::string *Error) {
  auto Fail = [&](const char *What) {
    if (Error)
      *Error = std::string(What) + ": " + std::strerror(errno);
    return false;
  };

  int ToChild[2], FromChild[2];
  if (::pipe(ToChild) != 0)
    return Fail("pipe");
  if (::pipe(FromChild) != 0) {
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    return Fail("pipe");
  }

  pid_t Child = ::fork();
  if (Child < 0) {
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    ::close(FromChild[0]);
    ::close(FromChild[1]);
    return Fail("fork");
  }

  if (Child == 0) {
    ::dup2(ToChild[0], STDIN_FILENO);
    ::dup2(FromChild[1], STDOUT_FILENO);
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    ::close(FromChild[0]);
    ::close(FromChild[1]);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Binary.c_str()));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execvp(Binary.c_str(), Argv.data());
    // Exec failed: the parent sees an immediate EOF and a 127 exit.
    _exit(127);
  }

  ::close(ToChild[0]);
  ::close(FromChild[1]);
  Pid = Child;
  InFd = ToChild[1];
  OutFd = FromChild[0];
  SawEof = false;
  Buf.clear();
  ::fcntl(InFd, F_SETFD, FD_CLOEXEC);
  ::fcntl(OutFd, F_SETFD, FD_CLOEXEC);
  ::fcntl(OutFd, F_SETFL, O_NONBLOCK);
  return true;
}

bool WorkerProcess::sendLine(const std::string &Line) {
  if (InFd < 0)
    return false;
  // Two writes instead of a copy with '\n' appended: load lines carry a
  // whole network. Only the seat's owner writes, so nothing interleaves.
  for (std::string_view Part :
       {std::string_view(Line), std::string_view("\n")})
    while (!Part.empty()) {
      ssize_t N = ::write(InFd, Part.data(), Part.size());
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false; // EPIPE et al.: the child is gone
      }
      Part.remove_prefix(static_cast<size_t>(N));
    }
  return true;
}

bool WorkerProcess::readLine(std::string &Line, double TimeoutSeconds) {
  auto Start = std::chrono::steady_clock::now();
  size_t Scanned = 0;
  char Chunk[1 << 16];
  while (true) {
    size_t Nl = Buf.find('\n', Scanned);
    if (Nl != std::string::npos) {
      Line.assign(Buf, 0, Nl);
      Buf.erase(0, Nl + 1);
      return true;
    }
    Scanned = Buf.size();
    if (!channelOpen())
      return false;
    ssize_t N = ::read(OutFd, Chunk, sizeof(Chunk));
    if (N > 0) {
      Buf.append(Chunk, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      SawEof = true;
      return false;
    }
    int WaitMs = -1;
    if (TimeoutSeconds >= 0) {
      double Left = TimeoutSeconds - std::chrono::duration<double>(
                                         std::chrono::steady_clock::now() -
                                         Start)
                                         .count();
      if (Left <= 0)
        return false;
      WaitMs = static_cast<int>(Left * 1000) + 1;
    }
    struct pollfd Pfd = {OutFd, POLLIN, 0};
    ::poll(&Pfd, 1, WaitMs);
  }
}

bool WorkerProcess::waitExit(double Seconds) {
  if (Pid < 0)
    return true;
  // Poll waitpid with a coarse sleep: shutdown paths only, never hot.
  const long StepUs = 10000;
  long Remaining = static_cast<long>(Seconds * 1e6);
  for (;;) {
    int Status = 0;
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid || (R < 0 && errno == ECHILD)) {
      Pid = -1;
      return true;
    }
    if (Remaining <= 0)
      return false;
    ::usleep(StepUs);
    Remaining -= StepUs;
  }
}

void WorkerProcess::kill() {
  if (Pid >= 0) {
    ::kill(Pid, SIGKILL);
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
      ;
    Pid = -1;
  }
  closeFds();
  SawEof = true;
}

void WorkerProcess::shutdown(double GraceSeconds) {
  if (Pid < 0) {
    closeFds();
    return;
  }
  sendLine("{\"cmd\":\"quit\"}");
  if (InFd >= 0) {
    ::close(InFd); // EOF on the worker's stdin also means quit
    InFd = -1;
  }
  if (!waitExit(GraceSeconds))
    kill();
  else
    closeFds();
}
