"""Run one command to completion; print its wall time, peak RSS and exit code.

    python3 bench/launch.py TIMEOUT_S LOG_PATH -- PROGRAM ARGS...

The command's standard output and error go to LOG_PATH; it is killed after
TIMEOUT_S seconds. The last line of standard output is one JSON object
`{"wall_s", "peak_rss_kb", "returncode"}`.

bench/run.py starts every timed command through this small process. The
peak RSS that `wait4` reports for a child includes the memory of the
process it was forked from, so forking straight from the benchmark, which
holds numpy and the outputs it has checked, would inflate the figure.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        sys.exit("usage: launch.py TIMEOUT_S LOG_PATH -- PROGRAM ARGS...")
    timeout_s, log_path, command = float(argv[0]), argv[1], argv[3:]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall_s, "peak_rss_kb": usage.ru_maxrss, "returncode": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
