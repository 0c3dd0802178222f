#include "util/subprocess.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace bsp {
namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Drains whatever is currently readable from `fd` into `dst` (respecting
// `cap`; excess is discarded with `truncated` set). Returns false once the
// fd hits EOF or a hard error — i.e. every writer closed its end.
bool drain(int fd, std::string* dst, std::size_t cap, bool* truncated) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      const std::size_t room = dst->size() < cap ? cap - dst->size() : 0;
      if (room < static_cast<std::size_t>(n)) *truncated = true;
      dst->append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                             room));
      continue;
    }
    if (n == 0) return false;                       // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;                                   // hard error: give up
  }
}

SubprocessResult spawn_failure(std::string what) {
  SubprocessResult res;
  res.spawn_error = true;
  res.error = std::move(what) + ": " + std::strerror(errno);
  return res;
}

}  // namespace

SubprocessResult run_subprocess(const std::vector<std::string>& argv,
                                const SubprocessLimits& limits) {
  SubprocessResult res;
  if (argv.empty()) {
    res.spawn_error = true;
    res.error = "empty argv";
    return res;
  }

  // Everything the child needs is built here, before fork(): the child of a
  // multithreaded parent may only make async-signal-safe calls until exec,
  // and a heap allocation there can deadlock on an allocator lock another
  // parent thread held at the fork.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv)
    cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const std::string exec_failed = "exec failed: " + argv.front() + ": ";

  // O_CLOEXEC: a child another thread forks concurrently must not inherit
  // this child's pipe ends (dup2 onto stdout/stderr clears the flag on the
  // copies this child keeps).
  int out_pipe[2], err_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) return spawn_failure("pipe");
  if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
    const SubprocessResult r = spawn_failure("pipe");
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return r;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    const SubprocessResult r = spawn_failure("fork");
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    return r;
  }

  if (pid == 0) {
    // Child: wire the pipes to stdout/stderr, stdin from /dev/null, exec.
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    const int devnull = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::close(devnull);
    }
    ::execvp(cargv[0], cargv.data());
    // Only reached when exec failed; report through the stderr pipe and
    // die with the conventional 127 without running any parent atexit code.
    // strerrordesc_np reads a static table: no locale, no allocation.
    const char* why = ::strerrordesc_np(errno);
    if (!why) why = "unknown error";
    [[maybe_unused]] ssize_t n =
        ::write(STDERR_FILENO, exec_failed.data(), exec_failed.size());
    n = ::write(STDERR_FILENO, why, std::strlen(why));
    n = ::write(STDERR_FILENO, "\n", 1);
    ::_exit(127);
  }

  // Parent: read both pipes until EOF, enforcing the deadline; a child that
  // outlives it is SIGKILLed and then drained/reaped like any other.
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  set_nonblocking(out_pipe[0]);
  set_nonblocking(err_pipe[0]);

  const bool have_deadline = limits.timeout_sec > 0;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          have_deadline ? limits.timeout_sec : 0));
  constexpr std::size_t kErrCap = 64u << 10;
  bool err_truncated = false;
  bool out_open = true, err_open = true;
  bool killed = false, reaped = false;
  int status = 0;
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  // Pipe EOF alone is not a reliable end-of-child signal: a grandchild can
  // inherit the write ends and outlive a SIGKILLed child. So the loop polls
  // in bounded slices, reaps with WNOHANG, and once the child itself is
  // gone takes whatever is buffered and stops waiting.
  while (out_open || err_open) {
    if (have_deadline && !killed && Clock::now() >= deadline) {
      // Deadline expired: reclaim the core for real.
      ::kill(pid, SIGKILL);
      killed = true;
      res.timed_out = true;
    }
    int timeout_ms = 100;
    if (have_deadline && !killed) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      timeout_ms = static_cast<int>(
          std::min<long long>(100, std::max<long long>(0, left.count())));
    }
    struct pollfd fds[2];
    nfds_t nfds = 0;
    int out_idx = -1, err_idx = -1;
    if (out_open) {
      out_idx = static_cast<int>(nfds);
      fds[nfds++] = {out_pipe[0], POLLIN, 0};
    }
    if (err_open) {
      err_idx = static_cast<int>(nfds);
      fds[nfds++] = {err_pipe[0], POLLIN, 0};
    }
    const int rc = ::poll(fds, nfds, timeout_ms);
    if (rc < 0 && errno != EINTR) break;  // poll failure: reap and return
    if (rc > 0) {
      if (out_idx >= 0 &&
          (fds[out_idx].revents & (POLLIN | POLLHUP | POLLERR)))
        out_open = drain(out_pipe[0], &res.out, limits.max_output_bytes,
                         &res.out_truncated);
      if (err_idx >= 0 &&
          (fds[err_idx].revents & (POLLIN | POLLHUP | POLLERR)))
        err_open = drain(err_pipe[0], &res.err, kErrCap, &err_truncated);
    }
    if (!reaped && ::wait4(pid, &status, WNOHANG, &ru) == pid) reaped = true;
    if (reaped) {
      // The child is gone; everything it wrote is already in the pipe
      // buffers. Take it and stop — orphaned grandchildren holding the
      // write ends must not stall the campaign.
      if (out_open)
        drain(out_pipe[0], &res.out, limits.max_output_bytes,
              &res.out_truncated);
      if (err_open) drain(err_pipe[0], &res.err, kErrCap, &err_truncated);
      break;
    }
  }
  ::close(out_pipe[0]);
  ::close(err_pipe[0]);

  if (!reaped) {
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
  }
  if (WIFEXITED(status)) {
    res.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    res.signal = WTERMSIG(status);
  }
  res.max_rss_kb = ru.ru_maxrss;  // Linux reports ru_maxrss in KiB
  res.user_sec = static_cast<double>(ru.ru_utime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  res.sys_sec = static_cast<double>(ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  return res;
}

std::string signal_name(int sig) {
  switch (sig) {
    case SIGHUP: return "SIGHUP";
    case SIGINT: return "SIGINT";
    case SIGQUIT: return "SIGQUIT";
    case SIGILL: return "SIGILL";
    case SIGTRAP: return "SIGTRAP";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGPIPE: return "SIGPIPE";
    case SIGALRM: return "SIGALRM";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    case SIGXFSZ: return "SIGXFSZ";
    default: return "signal " + std::to_string(sig);
  }
}

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0 ? argv0 : "";
}

}  // namespace bsp
