#!/usr/bin/env python3
"""The gencluster benchmark: one workload, timed or traced, digest-gated.

Run from the root of a checkout::

    python3 perfbench/run.py --workload blocks --seed 1 --seconds 42 --trace 0

The harness imports the library from ``src/`` of the checkout,
generates the workload's units (see ``workloads.py``) and runs them in
the order the workload seed picks, for a fixed number of passes;
``--seconds`` only cuts the run short if the passes get that slow.
Every pass's records, together with the final states checked once per
run, must hash to the digest pinned in ``digests.json``, and every
verdict must be ``ok``; otherwise the run prints ``"correct": false``
with no metrics and exits 1.

``--trace 0`` reports the end-to-end metrics (tracing off).  The two
times are taken at a nominal host speed: each is scaled by the time a
fixed reference loop took alongside it (see ``reference_s``).

* ``verdict_s`` -- median over the passes of the time from the first
  unit to the last verdict;
* ``setup_s`` -- median over child processes, one after each pass, of
  the time to import the library and generate the units;
* ``peak_rss_mb`` -- peak resident memory of this process, in MiB.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py``.  The last line of standard
output is always one JSON object; a result file with the run's context
goes to ``perfbench/results/``.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
RESULTS = BENCH_DIR / "results"

WORKLOADS = ("growth", "blocks", "quotient", "battery")

#: Passes of an untraced run.  The count is fixed, so that the median is
#: over the same number of samples on every commit; ``--seconds`` only
#: cuts the run short if the passes get that slow.
PASSES = 11
#: Traced passes in a traced run, each after an untraced one.
TRACED_PASSES = 3
#: Units still running this long after start are cut off as timeouts,
#: so that a run ends well within three minutes whatever the code does.
RUN_LIMIT_S = 150.0
#: No single unit may run longer than this.
UNIT_LIMIT_S = 60.0
#: Iterations of the reference loop (see ``reference_s``).
REFERENCE_LOOPS = 200_000
#: A reference sample is taken at the start of every pass and again
#: whenever this much unit time has passed since the last one.
REFERENCE_EVERY_S = 0.25
#: The reference loop's typical time on a 2-vCPU cloud host (Intel Xeon
#: at 2.1 GHz, CPython 3.11.7).  Normalized times are in seconds at the
#: host speed this stands for.
REFERENCE_NOMINAL_S = 0.017


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, bad pins)."""


class UnitTimeout(Exception):
    """A unit ran past its time limit."""


def load_library():
    """Import the library from this checkout's ``src/`` and nowhere else."""
    package = SRC / "gencluster" / "__init__.py"
    if not package.is_file():
        raise BenchmarkError(f"no library sources at {package.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gencluster

    if Path(gencluster.__file__).resolve() != package.resolve():
        raise BenchmarkError(f"imported gencluster from {gencluster.__file__}")
    import workloads

    return workloads


def prepare(workload, size):
    """Import the library and generate the workload's units."""
    workloads = load_library()
    return workloads, workloads.generate(workload, size)


def probe_setup(args):
    """Child mode: time one set-up and print it as JSON."""
    start = time.perf_counter()
    _, units = prepare(args.workload, args.size)
    print(json.dumps({"setup_s": time.perf_counter() - start, "units": len(units)}))
    return 0


def time_setup(args):
    """Set-up time of one fresh child process."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--probe-setup",
        "--workload", args.workload, "--seed", "0", "--seconds", "0",
        "--size", args.size,
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=30, check=False
    )
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def reference_s():
    """Time of a fixed pure-Python loop that never touches the library.

    A shared host's speed drifts by tens of percent over seconds and
    minutes, and the loop's time follows that drift.  Dividing a time
    by the reference time taken alongside it gives a time at a fixed
    host speed, and a change to the library cannot move the loop.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def at_nominal_speed(seconds, reference):
    """``seconds`` measured while the reference loop took ``reference``."""
    return seconds * REFERENCE_NOMINAL_S / reference


class Pass:
    """Records, unit times and case tallies of one pass over the workload."""

    def __init__(self):
        self.records = []
        self.durations = {}
        self.reference_s = []
        self.attempted = 0
        self.failed = 0

    @property
    def verdict_s(self):
        return sum(self.durations.values())

    @property
    def normalized_s(self):
        """The pass time at the nominal host speed."""
        return at_nominal_speed(self.verdict_s, statistics.fmean(self.reference_s))


def _alarm(signum, frame):
    raise UnitTimeout()


def run_pass(workloads, order, run_limit_at, tracer=None):
    """Run every unit once; errors and timeouts fail all of a unit's cases."""
    result = Pass()
    clock = time.perf_counter
    signal.signal(signal.SIGALRM, _alarm)
    result.reference_s.append(reference_s())
    since_reference = 0.0
    for unit in order:
        remaining = min(UNIT_LIMIT_S, run_limit_at - clock())
        start = clock()
        if remaining <= 0:
            records = [workloads.failed_record(unit, "timeout",
                                               ["run time limit reached"])]
        else:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                if tracer is None:
                    records = workloads.run_unit(unit)
                else:
                    records = tracer.run_unit(workloads.run_unit, unit)
                signal.setitimer(signal.ITIMER_REAL, 0)
            except UnitTimeout:
                records = [workloads.failed_record(
                    unit, "timeout", [f"cut off after {remaining:.1f} s"])]
            except Exception as exc:  # a broken unit must not stop the run
                signal.setitimer(signal.ITIMER_REAL, 0)
                traceback.print_exc(file=sys.stderr)
                records = [workloads.failed_record(
                    unit, "error", [f"{type(exc).__name__}: {exc}"])]
        result.durations[unit.unit_id] = clock() - start
        since_reference += result.durations[unit.unit_id]
        if since_reference >= REFERENCE_EVERY_S:
            result.reference_s.append(reference_s())
            since_reference = 0.0
        result.records.extend(records)
        result.attempted += unit.cases
        verdicts = [r[4] for r in records]
        if "error" in verdicts or "timeout" in verdicts:
            result.failed += unit.cases
        else:
            result.failed += verdicts.count("fail")
    return result


def tally(passes):
    """(cases attempted, cases failed, errored or cut off) over ``passes``."""
    return sum(p.attempted for p in passes), sum(p.failed for p in passes)


def end_to_end_metrics(passes, setup_probes):
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "verdict_s": (statistics.median(p.normalized_s for p in passes), "s"),
        "setup_s": (statistics.median(at_nominal_speed(t, ref)
                                      for t, ref in setup_probes), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def git_sha():
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def expected_digest(size, workload):
    try:
        return json.loads(DIGESTS.read_text())[size][workload]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchmarkError(f"no pinned digest for {workload}/{size}: {exc}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload size; 'tiny' is for the self-test")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.probe_setup:
            return probe_setup(args)
        return measure(args)
    except BenchmarkError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2


def measure(args):
    """Run the passes, check them and print the result line."""
    process_start = time.perf_counter()
    expected = expected_digest(args.size, args.workload)
    workloads, units = prepare(args.workload, args.size)
    own_setup_s = time.perf_counter() - process_start

    run_limit_at = process_start + RUN_LIMIT_S
    measure_start = time.perf_counter()
    untraced, traced, counts, self_times, setup_probes = [], [], [], [], []
    tracer = None
    wanted = PASSES
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        wanted = 2 * TRACED_PASSES
    while len(untraced) + len(traced) < wanted:
        pass_start = time.perf_counter()
        order = workloads.run_order(units, args.seed, len(untraced) + len(traced))
        # A traced run alternates untraced and traced passes, so that
        # the tracing overhead compares passes run under the same drift.
        if tracer is not None and len(traced) < len(untraced):
            tracer.reset()
            tracer.install()
            try:
                latest = run_pass(workloads, order, run_limit_at, tracer)
            finally:
                tracer.uninstall()
            traced.append(latest)
            counts.append(tracer.counts())
            self_times.append(tracer.self_times())
        else:
            latest = run_pass(workloads, order, run_limit_at)
            untraced.append(latest)
        if tracer is None:
            # Set-up probes are spread over the run, between passes, so
            # that their median does not hang on one phase of a shared host.
            before = reference_s()
            probe = time_setup(args)
            setup_probes.append((probe, (before + reference_s()) / 2))
        if latest.failed:
            break
        # ``--seconds`` is a ceiling: stop early when another pass like
        # the last one would overrun it.
        now = time.perf_counter()
        if now + (now - pass_start) - measure_start > args.seconds and (
            tracer is None or traced
        ):
            break

    passes = untraced + traced
    attempted, failed = tally(passes)
    states = workloads.final_states(units)
    digests = [workloads.digest(p.records, states) for p in passes]
    problems = []
    if failed:
        bad = [r for p in passes for r in p.records if r[4] != "ok"]
        problems.append(f"{failed} of {attempted} cases did not pass, e.g. {bad[0]}")
    if any(d != expected for d in digests):
        problems.append(f"digest {digests[0]} differs from the pinned {expected}"
                        if digests[0] != expected
                        else "digests differ between passes")
    if any(c != counts[0] for c in counts):
        problems.append("traced work counts differ between passes")

    metrics = {}
    if not problems:
        if args.trace:
            metrics = tracing.per_layer_metrics(counts[0], self_times, traced, untraced)
        else:
            metrics = end_to_end_metrics(untraced, setup_probes)

    result = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "units": len(units),
        "cases": sum(unit.cases for unit in units),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_verdict_s": {
            "untraced": [p.verdict_s for p in untraced],
            "traced": [p.verdict_s for p in traced],
        },
        "pass_normalized_s": [p.normalized_s for p in untraced],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "digest": digests[0],
        "expected_digest": expected,
        "problems": problems,
        "setup_probes_s": setup_probes,
        "pass_reference_s": [p.reference_s for p in untraced],
        "own_setup_s": own_setup_s,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "metrics": metrics,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{args.workload}_{args.size}_seed{args.seed}_trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")

    for problem in problems:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
