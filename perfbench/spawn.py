"""Runs commands for run.py and reports each one's wall time and rusage.

run.py starts this process before it loads numpy, paydev or any input, so it
stays small. That matters because a child's ru_maxrss includes the memory it
shares with its parent at fork: children forked from the benchmark process
itself would report the benchmark's size as their peak.

Protocol: one JSON object per line on stdin,
{"argv", "cwd", "env", "stderr", "timeout"}, and one per line on stdout,
{"code", "wall_s", "cpu_s", "maxrss_kb"}. The child is killed after
`timeout` seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"], stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }
    print(json.dumps(result), flush=True)
