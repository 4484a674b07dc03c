#!/usr/bin/env python3
"""Fast self-test of the benchmark, on the tiny workload sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that:

* every workload runs with ``--trace 0`` and ``--trace 1`` and prints
  exactly the metrics ``BENCHMARK.json`` names, each with its unit;
* ``failed`` and ``fail_frac`` count failed, errored and cut-off cases
  against the cases attempted;
* two traced runs with different seeds give identical work counts;
* the tracer puts every function it wrapped back;
* a corrupted pinned digest makes a run fail without reporting metrics;
* in a directory that holds only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits nonzero without printing a result.

The runs are made in this process through ``run.main``; only the last
check starts a separate process.  Exits 0 when every check holds.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORK_DIR = run.RESULTS / "selftest"
TIMED_SUFFIXES = ("self_s", "self_share", "verdict_s", "overhead_s")


def bench(workload, seed=1, trace=0):
    """Run the benchmark on a tiny size; returns (exit code, parsed last line)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.2", "--trace", str(trace),
                         "--size", "tiny"])
    return code, json.loads(stdout.getvalue().strip().splitlines()[-1])


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def check_metric_names():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in run.WORKLOADS:
            counts = []
            for seed in (1, 2) if trace else (1,):
                code, out = bench(workload, seed, trace)
                expect(code == 0 and out["correct"],
                       f"{workload} trace {trace} failed: {out}")
                got = {name: m["unit"] for name, m in out["metrics"].items()}
                expect(got == wanted, f"{workload} trace {trace} metrics differ "
                       f"from BENCHMARK.json: {set(got) ^ set(wanted)}")
                counts.append({
                    name: m["value"] for name, m in out["metrics"].items()
                    if not name.endswith(TIMED_SUFFIXES)
                })
            expect(counts[0] == counts[-1],
                   f"{workload}: traced counts differ between two runs")
        print(f"ok: trace {trace} metrics and units on every workload")
    print("ok: traced counts repeat exactly")


def check_fail_frac():
    result = json.loads(
        (run.RESULTS / "BENCH_blocks_tiny_seed1_trace0.json").read_text()
    )
    expect(result["attempted"] == result["cases"] * result["passes"]["untraced"],
           "attempted is not cases x passes")
    expect(result["fail_frac"] == result["failed"] / result["attempted"],
           "fail_frac is not failed / attempted")

    workloads, units = run.prepare("blocks", "tiny")
    cases = sum(unit.cases for unit in units)
    original = workloads.run_unit

    def flaky(unit):
        if unit.unit_id == 1:
            raise RuntimeError("injected error")
        records = original(unit)
        records[0][4] = "fail"
        return records

    workloads.run_unit = flaky
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            broken = run.run_pass(workloads, units, time.perf_counter() + 60)
    finally:
        workloads.run_unit = original
    cut_off = run.run_pass(workloads, units, time.perf_counter() - 1)
    attempted, failed = run.tally([broken, cut_off])
    expect(broken.failed == 1 + units[1].cases,
           "a failed case and an errored unit were not counted")
    expect(cut_off.failed == cases, "cut-off units were not counted")
    expect((attempted, failed) == (2 * cases, broken.failed + cases),
           "tally does not count failures against attempts")
    expect({r[4] for r in cut_off.records} == {"timeout"}, "cut-off verdicts")
    print("ok: failures, errors and timeouts count against attempts")


def check_restore():
    import gencluster
    import tracing

    def bindings():
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("gencluster") and m is not None]
        owners = modules + [gencluster.matrix_mutation.ExtendedExchangeMatrix,
                            gencluster.quotient_embedding.QuotientContext]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    patched = sum(before[key] is not value for key, value in bindings().items())
    tracer.uninstall()
    after = bindings()
    expect(patched > 0, "the tracer wrapped nothing")
    expect(all(after[key] is value for key, value in before.items()),
           "the tracer left a wrapper behind")
    print(f"ok: {patched} wrapped bindings restored")


def check_corrupted_digest():
    pins = json.loads(run.DIGESTS.read_text())
    pins["tiny"]["blocks"] = pins["tiny"]["blocks"][::-1]
    corrupted = WORK_DIR / "corrupted_digests.json"
    corrupted.write_text(json.dumps(pins))
    pinned, run.DIGESTS = run.DIGESTS, corrupted
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code, out = bench("blocks")
    finally:
        run.DIGESTS = pinned
    expect(code != 0, "a corrupted digest did not fail the run")
    expect(not out["correct"] and not out["metrics"],
           f"a corrupted digest still reported metrics: {out}")
    print("ok: a corrupted digest fails the run")


def check_bare_directory():
    bare = WORK_DIR / "bare"
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    command = [sys.executable, "perfbench/run.py", "--workload", "blocks",
               "--seed", "1", "--seconds", "0.2", "--size", "tiny"]
    done = subprocess.run(command, cwd=bare, capture_output=True, text=True,
                          timeout=170, check=False)
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"without sources the benchmark exited {done.returncode} "
           f"and printed {done.stdout!r}")
    print("ok: without library sources the benchmark fails without a result")


def main():
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    (WORK_DIR / "bare").mkdir(parents=True)
    try:
        check_metric_names()
        check_fail_frac()
        check_restore()
        check_corrupted_digest()
        check_bare_directory()
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
