"""Start one command, wait for it, and write its resource usage as JSON.

Usage: python3 -I -S perfbench/spawn.py USAGE.json COMMAND...

A process's ``ru_maxrss`` starts at the resident high-water mark of the
process it was forked from: Linux folds the old memory map's peak into the
new image at exec. Children forked straight from the benchmark, which holds
outputs and check tables, would all report at least the benchmark's own
peak. This small interpreter forks the command instead, so the peak that
``os.wait4`` returns is the command's own (with its waited-for workers).

``start`` and ``end`` are ``perf_counter`` readings around the command's
lifetime; on Linux they share one monotonic clock with the caller.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    usage_path, command = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    child = subprocess.Popen(command)
    # The command holds the pipes now; the caller sees EOF when it exits.
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(devnull, 1)
    _, status, usage = os.wait4(child.pid, 0)
    end = time.perf_counter()
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(usage_path, "w", encoding="utf-8") as fh:
        json.dump({
            "start": start,
            "end": end,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "returncode": child.returncode,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
