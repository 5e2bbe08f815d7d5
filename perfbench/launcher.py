"""Runs and times the measured processes of the benchmark.

On Linux a child's ru_maxrss starts from the peak of the process that
spawned it.  The benchmark process grows while it makes inputs and checks
outputs, so it hands every measured command to this process instead, which
imports nothing heavy and stays small: each reported peak is then the
command's own.

Protocol: one JSON request per line on stdin, ``{"steps": [{"argv", "cwd",
"stdout", "stderr"}, ...], "timeout": seconds}``; one JSON reply per line on
stdout, ``{"wall_s", "steps": [{"code", "cpu_s", "rss_mb"}, ...]}``.  The
steps of a request run one after another and ``wall_s`` runs from the first
spawn to the last exit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_step(step: dict, timeout: float) -> dict:
    with open(step["stdout"], "wb") as out, open(step["stderr"], "wb") as err:
        proc = subprocess.Popen(step["argv"], cwd=step["cwd"], stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return {
        "code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        start = time.perf_counter()
        steps = [run_step(step, request["timeout"]) for step in request["steps"]]
        reply = {"wall_s": time.perf_counter() - start, "steps": steps}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
