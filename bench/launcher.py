"""Child launcher for the rootcf benchmark.

The peak RSS that wait4 reports for a child starts at the peak RSS of the
process that spawned it: exec carries the old address space's high-water
mark over to the new program.  The harness grows as it reads outputs and
spans, so its children are spawned by this small process instead, which
stays at the size of a bare interpreter and imports nothing else.

Reads one JSON request per line on stdin, `[argv, stdout_path,
stderr_path, timeout_s]`, runs argv with its environment, and writes one
JSON result per line on stdout: wall and CPU seconds, peak RSS in MB, the
exit status and whether the timeout killed it.
"""
import json
import os
import select
import signal
import sys
import time


def spawn(argv: list, stdout: str, stderr: str, timeout: float) -> dict:
    """Run argv with stdout and stderr sent to files; kill it after timeout.

    The child is waited for with os.wait4, which gives its own CPU time
    and peak RSS, and watched through a pidfd so the timeout needs no
    polling that would blur the wall time.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    timed_out = False
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        fd = os.pidfd_open(pid)
        try:
            if not select.select([fd], [], [], max(timeout, 0.0))[0]:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
                timed_out = True
        finally:
            os.close(fd)
    finally:
        _, status, usage = os.wait4(pid, 0)
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "status": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(spawn(*json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
