"""Run one program; report its wall time, exit status and own peak RSS.

    python bench/launch.py TIMEOUT_S PROGRAM ARG...

The program inherits this process's environment, stdout and stderr.  It is
killed if it runs longer than TIMEOUT_S.  After it ends, one line starting
with ``MARKER`` goes to stderr, with JSON fields ``wall_s``, ``exit_code``,
``rss_mb`` (the program's ru_maxrss from os.wait4) and ``launcher_rss_mb``.

On Linux a process's ru_maxrss starts from the resident size of the process
it was forked from.  ``run.py`` holds outputs and the exact
oracle, so it does not fork the measured programs itself: this process,
which imports almost nothing, does.  ``launcher_rss_mb`` is this process's
own peak, which the program's figure must exceed to be the program's own.
"""

import json
import os
import resource
import signal
import sys
import time

MARKER = "@@stirval-launch "


def own_peak_mb() -> float:
    """Peak RSS of this process's own memory since exec (VmHWM).

    ru_maxrss of this process would also count ``run.py``, which it was forked
    from; the program started below inherits only this figure.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    timeout, program = float(argv[0]), argv[1:]
    own = own_peak_mb()
    start = time.perf_counter()
    pid = os.posix_spawn(program[0], program, os.environ)

    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # ended as the timer fired
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    sys.stderr.write(MARKER + json.dumps({
        "wall_s": wall,
        "exit_code": os.waitstatus_to_exitcode(status),
        "rss_mb": usage.ru_maxrss / 1024,
        "launcher_rss_mb": own,
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
