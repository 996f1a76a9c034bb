"""Runs commands on request from a process that stays small.

A child's peak RSS, as ``getrusage`` reports it, starts from the peak RSS
of the process that spawned it (the child shares that memory until it
execs).  The benchmark holds whole datasets and reports, so its own
children would all read as large as the benchmark.  This launcher imports
nothing heavy; the benchmark starts it once and sends it one JSON request
per line (argv, env, timeout); it answers one JSON line per request with
the exit code, outputs, wall time and the peak RSS of every child so far.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                request["argv"],
                capture_output=True,
                text=True,
                env=request["env"],
                timeout=request["timeout"],
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = None, "", f"timed out after {exc.timeout} s"
        wall = time.perf_counter() - start
        reply = {
            "code": code,
            "stdout": out,
            "stderr": err,
            "wall_s": wall,
            "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
