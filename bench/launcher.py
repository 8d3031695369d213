"""Starts and times the benchmark's children on behalf of run_bench.py.

Linux charges a child's ru_maxrss with the resident size of the process that
spawned it, so children are spawned from this small stdlib-only process
rather than from run_bench.py, which holds numpy and the checks' arrays.
Every qbm child imports numpy and outgrows this process, so the peak RSS
that wait4 reports is the child's own.

Protocol: one JSON request per stdin line, {"cmd", "env", "cwd", "stdout",
"stderr", "timeout"}; one JSON reply per stdout line, {"begin", "wall_s",
"peak_rss_mb", "code"}.  `begin` is time.perf_counter() just before the
spawn, on the same monotonic clock the children read.  A child still
running after `timeout` seconds is killed.  EOF on stdin ends the launcher.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            begin = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], env=req["env"], cwd=req["cwd"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"begin": begin, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
