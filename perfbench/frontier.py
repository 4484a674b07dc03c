#!/usr/bin/env python3
"""Frontier probe: the deepest exhaustive depth each target reaches in a budget.

Run from the root of a checkout::

    python3 perfbench/frontier.py

For every verification target that takes a depth and every bundled
fixture, depths 1, 2, ... up to ``MAX_DEPTH`` run one at a time.  Each
depth is one ``python -m gencluster verify <target> --seed <fixture>
--depth <d>`` child process, which is killed when ``BUDGET_S`` wall
seconds run out; the depth is then recorded as ``timeout``, never
dropped, and the probe moves on to the next fixture.  The probe prints
one JSON line per depth and a summary line, and writes
``perfbench/results/FRONTIER.json``.  It reports and gates nothing, and
is not part of the timed benchmark.
"""

import json
import os
import platform
import subprocess
import sys
import time

import run

TARGETS = ("hadamard", "double-constant", "laurent", "product-formula", "embedding")
FIXTURES = ("FIX-A", "FIX-B", "FIX-C")
#: Wall seconds allowed per depth.
BUDGET_S = 60.0
#: Deepest depth probed; every target reaches it on some fixture.
MAX_DEPTH = 10
#: ``verify`` exit codes, as the README documents them.
STATUS = {0: "ok", 1: "error", 2: "fail"}


def probe(target, fixture, depth):
    """Run one depth in a child process killed at ``BUDGET_S`` seconds."""
    command = [
        sys.executable, "-m", "gencluster", "verify", target,
        "--seed", fixture, "--depth", str(depth),
    ]
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=run.ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        status = "timeout"
    else:
        status = STATUS.get(proc.returncode, "error")
        if status != "ok":
            print(err, file=sys.stderr)
    return {
        "target": target,
        "fixture": fixture,
        "depth": depth,
        "status": status,
        "wall_s": time.perf_counter() - start,
    }


def main():
    if not (run.SRC / "gencluster" / "__init__.py").is_file():
        print(f"frontier: error: no library sources under {run.SRC}", file=sys.stderr)
        return 2
    rows, frontier = [], {}
    for target in TARGETS:
        for fixture in FIXTURES:
            deepest = 0
            for depth in range(1, MAX_DEPTH + 1):
                row = probe(target, fixture, depth)
                rows.append(row)
                print(json.dumps(row), flush=True)
                if row["status"] != "ok":
                    break
                deepest = depth
            frontier[f"{target}/{fixture}"] = deepest
    report = {
        "budget_s": BUDGET_S,
        "max_depth": MAX_DEPTH,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": run.git_sha(),
        "frontier": frontier,
        "depths": rows,
    }
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    (run.RESULTS / "FRONTIER.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"frontier": frontier}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
