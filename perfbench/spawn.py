"""Run one command and report its wall time, exit code and own peak RSS.

    python3 perfbench/spawn.py RESULT.json LOG TIMEOUT_S -- ARGV...

A child's peak RSS as the kernel reports it (ru_maxrss) starts from the
peak of the process that spawned it, so the benchmark, which holds whole
corpora in memory, does not spawn the measured commands itself. This small
process does, and writes {"wall_s", "exit_code", "peak_rss_mb"} to
RESULT.json. A command still running after TIMEOUT_S seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    result_path, log_path, timeout = argv[0], argv[1], float(argv[2])
    command = argv[argv.index("--") + 1:]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "exit_code": proc.returncode,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
