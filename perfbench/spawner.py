"""Start the benchmark's child processes from a small process of their own.

    python perfbench/spawner.py    (requests on stdin, replies on stdout, one JSON line each)

On Linux a child's ru_maxrss starts from the high-water RSS of the address
space it was spawned from, so a child started directly by the benchmark
process would report at least that process's peak.  This process imports
nothing heavy and stays near 13 MB, below any sparse-curves child, so the
ru_maxrss that os.wait4 returns for each child is that child's own peak.

Request: {"argv": [...], "cwd": DIR, "stdout": PATH, "stderr": PATH}.
Reply:   {"exit": CODE, "wall_s": SECONDS, "maxrss_kb": KB}.
Children run one at a time; the process ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"exit": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
