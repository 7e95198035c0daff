"""Child launcher of the benchmark: runs each command it is sent, one JSON line
per request on stdin, and answers with its wall time and rusage.

The benchmark process loads numpy and bardina2d for its output checks and
the host-speed kernel.  Linux carries a process's peak resident set across
exec, so a child forked from that process would report the benchmark's own
footprint as its ru_maxrss.  This launcher imports nothing heavy, so the
children it forks report their own peak.
"""

import json
import os
import subprocess
import sys
import time


def run(argv, env, cwd, log_path):
    """Run one child to completion; wall time from spawn to reap, rusage via wait4."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def main():
    import signal

    # a terminated launcher stops its running child on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
