// Minimal POSIX subprocess runner (fork/exec + pipes) for the campaign
// engine's process-isolation mode: run a command, capture stdout/stderr,
// enforce a wall-clock deadline with SIGKILL, and report how the child
// ended (exit code, terminating signal, or timeout) plus its rusage
// (peak RSS, user/sys CPU time).
//
// A timed-out child is SIGKILLed and reaped before run_subprocess()
// returns, so the core comes back and nothing outlives the call — C++ has
// no such kill for a thread, which is why the campaign scheduler runs every
// attempt under a deadline through here. A crashing child takes only
// itself down; the caller sees the signal instead of dying with it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace bsp {

struct SubprocessLimits {
  double timeout_sec = 0;  // wall clock; 0 = no deadline
  // Capture cap for stdout (a runaway child cannot exhaust the parent).
  // Bytes past the cap are read and discarded; `out_truncated` is set.
  std::size_t max_output_bytes = 64u << 20;
};

struct SubprocessResult {
  // How the child ended. Exactly one way:
  //  * spawn_error — fork/pipe plumbing failed, nothing ran (see `error`);
  //  * timed_out   — deadline hit: the child was SIGKILLed and reaped;
  //  * signal != 0 — killed by that signal (crash containment path);
  //  * otherwise   — exited normally with `exit_code`.
  bool spawn_error = false;
  bool timed_out = false;
  int signal = 0;
  int exit_code = -1;
  std::string error;  // spawn_error description

  std::string out;  // captured stdout (up to max_output_bytes)
  std::string err;  // captured stderr (capped at 64 KiB)
  bool out_truncated = false;

  // Child rusage from wait4(): zero when spawn_error.
  long max_rss_kb = 0;
  double user_sec = 0;
  double sys_sec = 0;

  bool exited(int code = 0) const {
    return !spawn_error && !timed_out && signal == 0 && exit_code == code;
  }
};

// Runs argv[0] with arguments argv[1..] (execvp, so PATH search applies)
// with stdin from /dev/null. Blocks until the child has been reaped — on
// timeout the child is SIGKILLed first, so no process (or core) leaks.
// An exec failure surfaces as exit code 127 with a message on stderr.
SubprocessResult run_subprocess(const std::vector<std::string>& argv,
                                const SubprocessLimits& limits = {});

// "SIGSEGV"-style name for common signals, "signal N" otherwise.
std::string signal_name(int sig);

// Absolute path of the running executable (/proc/self/exe), falling back
// to argv0 where /proc is unavailable. For self-re-exec worker protocols.
std::string self_exe_path(const char* argv0);

}  // namespace bsp
