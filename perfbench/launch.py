"""Run one command and write its own wall time, CPU time and peak RSS.

    python -I -S perfbench/launch.py RESULT STDOUT STDERR TIMEOUT PROGRAM [ARG...]

On exec, Linux copies the peak RSS of the address space being replaced into
the new program's `ru_maxrss`.  A command spawned straight from the
benchmark process would therefore report the benchmark's own peak (about
110 MB after building the graded-log inputs) whenever that is larger than
its own.  This launcher is a fresh interpreter without site packages, so the
floor it passes on is its own few MB, below any covertau command.

The command runs with this process's environment, stdout and stderr going to
the named files.  It is killed after TIMEOUT seconds, or when this launcher
gets SIGTERM, and is always reaped before the launcher exits.  RESULT gets
one JSON object: wall_s, cpu_s (user + sys), rss_mb and status (exit code,
or minus the signal number).
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    result, stdout, stderr, timeout, *argv = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    pid = None

    def kill(signum, frame):
        if pid is not None:
            os.kill(pid, signal.SIGKILL)

    # hold both signals until the pid is known, so neither can miss the command
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGALRM})
    signal.signal(signal.SIGTERM, kill)
    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions, setsigmask=mask)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    _, status, usage = os.wait4(pid, 0)  # retried after a handler runs (PEP 475)
    wall = time.perf_counter() - start
    pid = None
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(result, "w") as fh:
        json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "rss_mb": usage.ru_maxrss / 1024,
                   "status": os.waitstatus_to_exitcode(status)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
