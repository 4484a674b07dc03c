"""Smoke runs of the scripts under ``scripts/``, each in its own process."""

import ast
import hashlib
import json
import os
from pathlib import Path
import re
import shutil
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: SHA-256 of ``scripts/walkthrough.py`` stdout, pinned from a reference run.
WALKTHROUGH_SHA256 = (
    "8dfe6127b77a441f7966aa3921d16a0c6cfb02b51d0c9f72bb1fa1cfcaa35345"
)


def script_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=script_env(),
        cwd=ROOT,
    )


def test_walkthrough_stdout():
    result = run_script("walkthrough.py")
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == WALKTHROUGH_SHA256


#: Every suite of ``scripts/run_verification.py``, in the order it runs them.
SUITES = [
    "involution",
    "laurent",
    "hadamard+double-constant",
    "product-formula",
    "embedding",
    "subquotient",
    "random embedding",
    "random subquotient",
    "random product-formula",
    "root+homogeneity",
]


def test_run_verification_passes():
    # The small settings, the defaults, and the larger settings.
    for argv in ((), ("--cases", "8", "--depth", "3"),
                 ("--cases", "400", "--depth", "7", "--rng-seed", "5")):
        result = run_script("run_verification.py", *argv)
        assert result.returncode == 0, result.stdout + result.stderr
        lines = result.stdout.splitlines()
        names = [re.fullmatch(r"PASS (.+) \(\d+\.\d\ds\)", line) for line in lines]
        assert all(names), result.stdout
        assert [m[1] for m in names] == SUITES


def test_run_verification_refuses_negative_counts():
    # A negative count would leave the random suites nothing to check.
    for flag, word in (("--cases", "-3"), ("--depth", "-2")):
        result = run_script("run_verification.py", flag, word)
        assert (result.returncode, result.stdout) == (2, "")
        assert f"argument {flag}: must be at least 0: '{word}'" in result.stderr
    # Its integer flags are read as every ``gencluster`` flag is: a sign,
    # an underscore or a non-ASCII digit is not a canonical integer.
    for flag in ("--cases", "--depth", "--rng-seed"):
        for word in ("+2", "1_0", "\u0663"):
            result = run_script("run_verification.py", flag, word)
            assert (result.returncode, result.stdout) == (2, ""), (flag, word)
            assert f"argument {flag}: int value not in canonical form: {word!r}" in result.stderr


def assert_statements(source):
    """Line of every ``assert`` statement in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_statements_are_detected():
    source = "assert x\nif y:\n    assert y, 'y'\ncheck(z)\n"
    assert assert_statements(source) == [1, 3]


def test_scripts_check_without_assert():
    # ``python -O`` drops assert statements, and with them the checks.
    found = {
        path.name: assert_statements(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "scripts").rglob("*.py"))
    }
    assert found and all(lines == [] for lines in found.values()), found


#: Runs ``scripts/run_verification.py`` with the arguments after its path,
#: once ``PLANT`` has planted a fault, after checking that the
#: interpreter drops assert statements.
PLANTED_FAILURE = """
import importlib.util, sys
if sys.flags.optimize < 1:
    raise SystemExit("not optimized")
from gencluster import quotient_embedding
from gencluster.errors import Report
spec = importlib.util.spec_from_file_location("run_verification", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
PLANT
sys.argv[1:] = sys.argv[2:]
raise SystemExit(script.main())
"""


def run_planted(plant, *argv):
    """Exit code and non-``PASS`` lines of the script run under ``-O`` with ``plant``."""
    result = subprocess.run(
        [
            sys.executable, "-O", "-c", PLANTED_FAILURE.replace("PLANT", plant),
            str(ROOT / "scripts" / "run_verification.py"), *argv,
        ],
        capture_output=True,
        text=True,
        env=script_env(),
        cwd=ROOT,
    )
    lines = [line for line in result.stdout.splitlines() if not line.startswith("PASS ")]
    return result.returncode, lines or [result.stderr]


def test_run_verification_fails_under_optimization():
    plant = "script.root_formula_check = lambda seed, k: Report((k,))"
    assert run_planted(plant, "--cases", "0", "--depth", "0") == (
        1, ["FAIL root+homogeneity: CheckFailed: "]
    )


@pytest.mark.parametrize("plant, argv, failed, detail", [
    (
        "quotient_embedding.product_formula_check = (\n"
        "    lambda elimination, sigma, fm, k: Report(((k, 'residual'),)))",
        ("--cases", "4", "--depth", "0"),
        ["product-formula", "random product-formula"],
        "'residual')",
    ),
    (
        "def conditions(ctx, tracked, fm):\n"
        "    raise RuntimeError('planted')\n"
        "quotient_embedding._embedding_conditions_at = conditions",
        ("--cases", "0", "--depth", "0"),
        ["embedding"],
        "'RuntimeError: planted'",
    ),
], ids=["product-formula", "embedding"])
def test_walked_failures_fail_under_optimization(plant, argv, failed, detail):
    # The walker turns a residual or an exception into a failing verdict,
    # and the script must still fail on it.
    code, lines = run_planted(plant, *argv)
    assert code == 1, lines
    assert [line.partition(": ")[0] for line in lines] == [f"FAIL {name}" for name in failed]
    assert all(detail in line for line in lines), lines


def result_files(results):
    """Name and modification time of every file under ``results``."""
    if not results.is_dir():
        return {}
    return {
        str(path.relative_to(results)): path.stat().st_mtime_ns
        for path in results.rglob("*")
    }


def test_perfbench_selftest(tmp_path):
    # The benchmark's tracer wraps library functions by name, so renaming
    # one fails here rather than only in a benchmark run.  The self-test
    # writes its results beside the benchmark, so it runs on a copy.
    ignore = shutil.ignore_patterns("results", "__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    results = ROOT / "perfbench" / "results"
    before = result_files(results)
    result = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.rstrip().endswith("selftest passed")
    assert result_files(results) == before


def test_a_closed_stdout_ends_the_run_quietly():
    # The reader takes one line and closes the pipe, as ``| head -1`` does.
    # The 4 096 records overflow the pipe's buffer, so the run is still
    # writing: it ends with 128 + SIGPIPE and no traceback.
    child = subprocess.Popen(
        [sys.executable, "-m", "gencluster", "verify", "hadamard",
         "--seed", "FIX-A", "--depth", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=script_env(),
        cwd=ROOT,
    )
    first = child.stdout.readline()
    child.stdout.close()
    errors = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 141
    assert first == b"ok target=hadamard seed=FIX-A sequence=1,1,1,1,1,1,1,1,1,1,1,1\n"
    assert errors == b""


def test_bench_pairs_summarises_a_tiny_pair(tmp_path):
    # One pair of tiny runs of this checkout against itself: a line per
    # end-to-end metric.  A checkout without the benchmark fails the run.
    argv = ["--workload", "quotient", "--pairs", "1", "--seed", "3", "--size", "tiny"]
    result = run_script("bench_pairs.py", str(ROOT), str(ROOT), *argv)
    assert result.returncode == 0, result.stderr
    head, *lines = result.stdout.splitlines()
    assert head == "quotient, 1 pairs, seeds 3-3"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [line.split(":")[0] for line in lines] == [m["name"] for m in spec["end_to_end"]]
    assert all(re.search(r"parent quartiles \S+-\S+, change lower in [01]/1$", line)
               for line in lines)
    failed = run_script("bench_pairs.py", str(ROOT), str(tmp_path), *argv)
    assert failed.returncode == 1 and failed.stdout == ""
    assert "the change run is not correct" in failed.stderr
