"""Seed files and the command-line interface."""

import argparse
import hashlib
import io
import json
import random
import re
import shlex
import tracemalloc
from itertools import product
from pathlib import Path
from unittest.mock import Mock

import pytest

from conftest import group_mutate_sequence, mono_power, shared_factor_seeds
from gencluster import cli_io, gca_seed, laurent_kernel
from gencluster.cli_io import (
    parse_seed,
    parse_seed_text,
    run_command,
    walk_verdicts,
    _odometer,
    _seed_text,
    _walk,
)
from gencluster.errors import (
    GenClusterError,
    ParseError,
    Report,
    StructureViolation,
    ValidationError,
)
from gencluster.fixtures import FIXTURE_NAMES, fixture_seed
from gencluster.gca_seed import (
    CoefficientStrings,
    initial_seed,
    mutate_exchange_data,
    mutate_seed,
)
from gencluster.matrix_mutation import (
    DivisorVector,
    ExtendedExchangeMatrix,
    modify,
    mutate_sequence,
    write_matrix,
)
from gencluster import quotient_embedding
from gencluster.quotient_embedding import (
    QuotientContext,
    _embedding_conditions_at,
    product_formula_check,
    quotient_relations,
    subquotient_check,
)
from gencluster.randomgen import random_seed, random_sequence
from gencluster.unfolding import (
    build,
    double_constant_check,
    group_mutate,
    hadamard_check,
)
from evaluated_embedding import folded_initial_seed
from weighted_quiver import weighted_matrix_mutation

MUTATE_FIX_A_1 = (
    "B\n"
    "2 2\n"
    "0 -8 3 -5 ; 12 0 -38 7\n"
    "Bhat\n"
    "2 2\n"
    "0 -4 3 -5 ; 4 0 -38 7\n"
)

UNFOLD_FIX_C = "Bcal\n2 5\n0 0 2 1 0 -1 0 ; 0 0 2 0 1 0 -1\n"

ADJOIN_FIX_C = (
    "gca-seed v1\n"
    "N 1\n"
    "M 1\n"
    "divisors 2\n"
    "names x ; F\n"
    "matrix 0 4\n"
    "string 0 ; 4 ; 0\n"
)

#: Stdout digests of ``verify <target> --seed <fixture> --depth 10``: 1024
#: ok records each.
DEPTH_10_OUTPUTS = [
    ("embedding", "FIX-A", "46279fd453b313dbc68c0da0edbafba5bd3f2b5b96c5ddb1f679457bc94acbb8"),
    ("embedding", "FIX-B", "4aa60fb7efdc2c42a169db2103446b037c4c61420a2fa51ac2803af61159fdee"),
    ("product-formula", "FIX-A",
     "9032385539f59d2b2057cb12153befb28b1c657d8c3236d4ba4a9541edbe7b7f"),
    ("product-formula", "FIX-B",
     "cfe3e79c0cac3c69c1c339bf470c764052fe124c97ae65da2ad20228b475fbd2"),
]


def write_seed(seed, path):
    """Write ``seed`` to ``path`` in the canonical flat-file form.

    Only depth-zero seeds (cluster equal to the table variables) have a
    flat-file form; anything else raises
    :class:`~gencluster.errors.ValidationError`.
    """
    text = _seed_text(seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


BAD_SEED = (
    "gca-seed v1\n"
    "N 1\n"
    "M 1\n"
    "divisors x\n"
    "names a ; f\n"
    "matrix 0 2\n"
)


def run(*argv):
    buf = io.StringIO()
    code = run_command(list(argv), out=buf)
    return code, buf.getvalue()


class TestSeedFiles:
    def test_fixture_round_trips(self):
        for name in FIXTURE_NAMES:
            seed = fixture_seed(name)
            text = _seed_text(seed)
            assert parse_seed_text(text) == seed
            assert _seed_text(parse_seed_text(text)) == text

    def test_random_round_trips(self, rng):
        for _ in range(50):
            seed = random_seed(rng)
            text = _seed_text(seed)
            assert parse_seed_text(text) == seed
            assert _seed_text(parse_seed_text(text)) == text

    def test_bool_entries_round_trip_as_integers(self):
        # ``True`` is an integer to the matrix and divisor checks; both
        # store it as 1, so the file says 1 and parses back.
        seed = initial_seed(
            ExtendedExchangeMatrix.from_rows([[0, True]], m=1), DivisorVector((True,))
        )
        assert seed.matrix.rows == ((0, 1),)
        assert seed.divisors.entries == (1,)
        assert all(type(e) is int for e in seed.matrix.rows[0] + seed.divisors.entries)
        text = _seed_text(seed)
        assert "True" not in text
        assert parse_seed_text(text) == seed
        assert _seed_text(parse_seed_text(text)) == text

    def test_unknown_fixture_is_a_library_error(self):
        with pytest.raises(ValidationError, match="unknown fixture 'FIX-Z'"):
            fixture_seed("FIX-Z")

    def test_write_and_parse_file(self, tmp_path, fix_b):
        path = tmp_path / "b.seed"
        text = write_seed(fix_b, path)
        assert path.read_text(encoding="utf-8") == text
        assert parse_seed(path) == fix_b

    def test_only_depth_zero_seeds_have_files(self, tmp_path, fix_a):
        mutated = mutate_seed(fix_a, 0)
        with pytest.raises(ValidationError):
            write_seed(mutated, tmp_path / "no.seed")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_seed_text(BAD_SEED)
        assert info.value.line == 4
        assert info.value.column == 1
        assert str(info.value).startswith("line 4, column 1:")

    @pytest.mark.parametrize("divisor", ["1000003", "9999999999999999999993"])
    def test_incompatible_divisors_are_input_errors(self, fix_a, tmp_path, capsys, divisor):
        path = tmp_path / "a.seed"
        path.write_text(_seed_text(fix_a).replace("divisors 2 3", f"divisors 2 {divisor}"))
        code, out = run("mutate", "--seed-file", str(path), "--sequence", "1")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith(
            f"gencluster: error: divisor {divisor} does not divide principal entry"
        )

    def test_divisors_too_large_for_a_string_row_are_input_errors(self, tmp_path, capsys):
        path = tmp_path / "r.seed"
        path.write_text(f"gca-seed v1\nN 1\nM 0\ndivisors {2**64}\nnames x ;\nmatrix 0\n")
        code, out = run("mutate", "--seed-file", str(path), "--sequence", "1")
        assert (code, out) == (1, "")
        assert "too large for string rows" in capsys.readouterr().err

    def test_integers_must_be_canonical(self, fix_c, tmp_path):
        # Each word parses with int() but prints otherwise, so the file
        # would not write back byte for byte.
        text = _seed_text(fix_c)
        path = tmp_path / "bad.seed"
        for old, new, line, column in (
            ("N 1", "N +1", 2, 1),
            ("divisors 2", "divisors 0_2", 4, 1),
            ("divisors 2", "divisors 02", 4, 1),
            ("matrix 0 2", "matrix -0 2", 6, 1),
            ("matrix 0 2", "matrix 0 \u0662", 6, 2),
            ("string 0 ; 2 ; 0", "string 0 ; 2 ; +0", 7, 1),
        ):
            bad = text.replace(old, new)
            with pytest.raises(ParseError, match="canonical form") as info:
                parse_seed_text(bad)
            assert (info.value.line, info.value.column) == (line, column)
            path.write_text(bad, encoding="utf-8")
            code, out = run("verify", "laurent", "--seed-file", str(path))
            assert (code, out) == (1, "")

    def test_rank_zero_matrix_line_takes_no_rows(self, tmp_path, capsys):
        # A rank-0 seed writes a bare "matrix" line; rows there are
        # refused, not dropped.
        rank_0 = initial_seed(ExtendedExchangeMatrix(0, 1, ()), ())
        text = _seed_text(rank_0)
        assert "\nmatrix\n" in text and parse_seed_text(text) == rank_0
        path = tmp_path / "rank0.seed"
        for rows, count in (("7 8 ; 9", 2), ("7", 1), (";", 2)):
            bad = text.replace("\nmatrix\n", f"\nmatrix {rows}\n")
            with pytest.raises(ParseError, match=f"expected 0 matrix rows, got {count}"):
                parse_seed_text(bad)
            path.write_text(bad, encoding="utf-8")
            for argv in (("adjoin",), ("verify", "hadamard", "--depth", "0")):
                assert run(*argv, "--seed-file", str(path)) == (1, "")
                assert capsys.readouterr().err == (
                    f"gencluster: error: line 6: expected 0 matrix rows, got {count}\n"
                )

    def test_trailing_content_rejected(self, fix_c):
        with pytest.raises(ParseError):
            parse_seed_text(_seed_text(fix_c) + "extra\n")

    def test_bad_magic_rejected(self, fix_c):
        text = _seed_text(fix_c).replace("gca-seed v1", "gca-seed v2")
        with pytest.raises(ParseError):
            parse_seed_text(text)


class TestCommands:
    def test_mutate_golden(self):
        code, text = run("mutate", "--seed", "FIX-A", "--sequence", "1")
        assert code == 0
        assert text == MUTATE_FIX_A_1

    def test_mutate_from_file(self, tmp_path, fix_a):
        path = tmp_path / "a.seed"
        write_seed(fix_a, path)
        code, text = run("mutate", "--seed-file", str(path), "--sequence", "1")
        assert code == 0
        assert text == MUTATE_FIX_A_1

    def test_mutate_bhat_matches_the_weighted_rule(self, tmp_path):
        # Bhat is modify of the mutated matrix; the weighted rule walks
        # the scaled matrix itself.
        rng = random.Random(222)
        path = tmp_path / "r.seed"
        for _ in range(30):
            seed = random_seed(rng, max_rank=4, max_frozen=3, max_divisor=4, max_entry=8)
            write_seed(seed, path)
            for depth in range(7):
                sequence = random_sequence(rng, seed.rank, depth)
                expected = modify(seed.matrix, seed.divisors)
                for k in sequence:
                    expected = weighted_matrix_mutation(expected, seed.divisors, k)
                code, text = run(
                    "mutate", "--seed-file", str(path),
                    "--sequence", ",".join(str(k + 1) for k in sequence),
                )
                assert code == 0
                assert text.split("Bhat\n")[1] == write_matrix(expected)

    def test_unfold_golden(self):
        code, text = run("unfold", "--seed", "FIX-C")
        assert code == 0
        assert text == UNFOLD_FIX_C

    def test_adjoin_golden(self):
        code, text = run("adjoin", "--seed", "FIX-C")
        assert code == 0
        assert text == ADJOIN_FIX_C

    def test_adjoin_lcm_mode(self):
        code, text = run("adjoin", "--seed", "FIX-B", "--mode", "lcm")
        assert code == 0
        assert "divisors 3 2" in text

    def test_adjoin_output_is_a_valid_seed(self):
        code, text = run("adjoin", "--seed", "FIX-B")
        assert code == 0
        assert _seed_text(parse_seed_text(text)) == text

    def test_trace_deterministic(self):
        runs = [run("trace", "--seed", "FIX-B", "--sequence", "1,2") for _ in range(2)]
        assert runs[0] == runs[1]
        code, text = runs[0]
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("init digest=")
        assert lines[1].startswith("mutate k=1 digest=")
        assert lines[2].startswith("mutate k=2 digest=")
        for line in lines:
            digest = line.rsplit("=", 1)[1]
            assert len(digest) == 64
            int(digest, 16)

    def test_trace_mutates_no_cluster(self, monkeypatch):
        # The digest reads the matrix and the strings alone, so trace
        # never mutates a seed, whose cluster entries on FIX-A grow past
        # what a step can afford by depth 3.
        def refuse(seed, k):
            raise AssertionError("trace mutated a seed")

        monkeypatch.setattr(cli_io, "mutate_seed", refuse)
        monkeypatch.setattr(gca_seed, "mutate_seed", refuse)
        pinned = [(argv, digest) for argv, digest, _ in GOLDEN_OUTPUTS if argv[:5] == "trace"]
        assert len(pinned) == 2
        for argv, digest in pinned:
            code, text = run(*argv.split())
            assert code == 0
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
        code, text = run("trace", "--seed", "FIX-A", "--sequence", "1,2,1,2,1,2,1,2,1,2")
        assert code == 0 and len(text.splitlines()) == 11
        # Mutation is an involution on the matrix and the strings alike.
        code, text = run("trace", "--seed", "FIX-A", "--sequence", "1,2,2,1")
        lines = text.splitlines()
        assert lines[4].rsplit("=", 1)[1] == lines[0].rsplit("=", 1)[1]

    def test_trace_digest_depends_on_state(self):
        _, short = run("trace", "--seed", "FIX-B", "--sequence", "1")
        _, double = run("trace", "--seed", "FIX-B", "--sequence", "1,1")
        assert double.splitlines()[:2] == short.splitlines()
        # mutation is an involution, so the digest returns to the start
        lines = double.splitlines()
        assert lines[2].rsplit("=", 1)[1] == lines[0].rsplit("=", 1)[1]


class TestVerify:
    def test_single_target_passes(self):
        code, text = run(
            "verify", "laurent", "--seed", "FIX-C", "--depth", "4"
        )
        assert code == 0
        lines = text.splitlines()
        assert lines
        assert all(line.startswith("ok target=laurent seed=FIX-C") for line in lines)

    def test_all_fixtures_by_default(self):
        code, text = run("verify", "subquotient")
        assert code == 0
        seeds = [line.split("seed=")[1].split()[0] for line in text.splitlines()]
        assert seeds == list(FIXTURE_NAMES)

    def test_json_records(self):
        code, text = run("verify", "subquotient", "--seed", "FIX-B", "--json")
        assert code == 0
        for line in text.splitlines():
            record = json.loads(line)
            assert set(record) == {"failures", "ok", "seed", "sequence", "target"}
            assert record["ok"] is True
            assert record["seed"] == "FIX-B"

    def test_random_sequences_reproducible(self):
        argv = (
            "verify",
            "hadamard",
            "--seed",
            "FIX-A",
            "--depth",
            "3",
            "--sequences",
            "random:5",
            "--rng-seed",
            "7",
        )
        assert run(*argv) == run(*argv)
        code, text = run(*argv)
        assert code == 0
        assert len(text.splitlines()) == 5

    def test_repeated_runs_are_byte_identical(self):
        for argv in (
            ("verify", "hadamard", "--depth", "3"),
            ("verify", "double-constant", "--seed", "FIX-B", "--json"),
            ("verify", "laurent", "--seed", "FIX-C", "--depth", "5",
             "--sequences", "random:6", "--rng-seed", "2"),
        ):
            first, second = run(*argv), run(*argv)
            assert first == second
            assert first[0] == 0

    def test_failing_report_exits_two(self, monkeypatch):
        monkeypatch.setattr(
            "gencluster.quotient_embedding.product_formula_check",
            lambda elimination, sigma, fm, k: Report(((k, "residual"),)),
        )
        code, text = run(
            "verify", "product-formula", "--seed", "FIX-C", "--depth", "1"
        )
        assert code == 2
        assert all(line.startswith("FAIL") for line in text.splitlines())
        assert "residual" in text

    def test_structural_error_exits_two(self, monkeypatch):
        def boom(elimination, sigma, fm, k):
            raise StructureViolation("synthetic break")

        monkeypatch.setattr(
            "gencluster.quotient_embedding.product_formula_check", boom
        )
        code, text = run(
            "verify", "product-formula", "--seed", "FIX-C", "--depth", "1"
        )
        assert code == 2
        assert "StructureViolation" in text

    def test_negative_placeholder_power_exits_two(self, monkeypatch):
        # Invert every tracked string entry, so the quotient's image of
        # an interior entry meets a negative placeholder power: a
        # mismatch, not bad input.
        built = quotient_embedding.QuotientContext.__init__

        def init(self, adjoined):
            built(self, adjoined)
            rows = [[mono_power(entry, -1) for entry in row] for row in self.tracked.strings.rows]
            self.tracked = self.tracked._trusted_replace(strings=CoefficientStrings(rows))

        monkeypatch.setattr(quotient_embedding.QuotientContext, "__init__", init)
        code, text = run("verify", "embedding", "--seed", "FIX-C", "--depth", "1")
        assert code == 2
        assert "InexactDivision: negative placeholder power" in text

    def test_embedding_builds_one_exchange_context_per_check(self, monkeypatch):
        # The (i)-(iii) checks of one (state, direction) read one
        # ExchangeContext: FIX-B's depth-6 walk checks 13 distinct states
        # in each of its 2 directions.
        built = []
        init = gca_seed.ExchangeContext.__init__

        def counting(self, seed, k):
            built.append(k)
            init(self, seed, k)

        monkeypatch.setattr(gca_seed.ExchangeContext, "__init__", counting)
        code, text = run("verify", "embedding", "--seed", "FIX-B", "--depth", "6")
        assert code == 0
        assert len(built) == 26

    @pytest.mark.parametrize("target", ["product-formula", "embedding"])
    def test_a_walk_across_wider_key_fields_passes(self, tmp_path, target):
        # The folded shared frozen entry is 2**45, so the product
        # formula's r = 2 shell holds an exponent of 2**46 at depth 0, past
        # the first two rungs of key fields.
        path = tmp_path / "big.seed"
        path.write_text(
            "gca-seed v1\nN 1\nM 1\ndivisors 2\nnames x ; f\n"
            f"matrix 0 {2**45}\nstring 0 ; 2 ; 0\n"
        )
        code, text = run("verify", target, "--seed-file", str(path), "--depth", "3")
        assert code == 0
        assert text.splitlines() == [f"ok target={target} seed={path} sequence=1,1,1"]

    def test_product_formula_widens_mid_walk(self, monkeypatch):
        # FIX-A's folded exponents pass 2**22, the first rung's limit, at
        # depth 6: results move up a rung after some records are written
        # and before the last, and the bytes are pinned from a build whose
        # tables started on 48-bit fields, where this walk never widens.
        # (At depth 5 only the loose bound of an elimination pass crossed
        # the limit; the product formula now eliminates exponent vectors.)
        out = io.StringIO()
        written_at_widening = []
        fit = laurent_kernel._Layout.fit

        def spy(layout, amp):
            wider = fit(layout, amp)
            if wider is not layout:
                written_at_widening.append(out.getvalue().count("\n"))
            return wider

        monkeypatch.setattr(laurent_kernel._Layout, "fit", spy)
        argv = ["verify", "product-formula", "--seed", "FIX-A", "--depth", "6"]
        assert run_command(argv, out=out) == 0
        assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == (
            "f7e55018906410b46945e6f61dce95bb2f579ff3eddecc852f9b75d977421ebe"
        )
        assert written_at_widening
        assert 0 < min(written_at_widening) and max(written_at_widening) < 64

    @pytest.mark.parametrize(
        "target, seed, digest", DEPTH_10_OUTPUTS, ids=[f"{t}-{s}" for t, s, _ in DEPTH_10_OUTPUTS]
    )
    def test_depth_10_walks_are_pinned(self, monkeypatch, target, seed, digest):
        # FIX-A's folded exponents pass 2**22 at depth 6, so both of its
        # walks widen their key fields after the first records are written
        # and before the last; FIX-B's stay on the first rung.
        out = io.StringIO()
        written_at_widening = []
        fit = laurent_kernel._Layout.fit

        def spy(layout, amp):
            wider = fit(layout, amp)
            if wider is not layout:
                written_at_widening.append(out.getvalue().count("\n"))
            return wider

        monkeypatch.setattr(laurent_kernel._Layout, "fit", spy)
        argv = ["verify", target, "--seed", seed, "--depth", "10"]
        assert run_command(argv, out=out) == 0
        assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest
        if seed == "FIX-A":
            assert 0 < min(written_at_widening) and max(written_at_widening) < 1023
        else:
            assert written_at_widening == []

    def test_product_formula_walks_past_the_first_rung(self):
        # FIX-A's folded exponents pass 2**46, the second rung's limit, at
        # depth 13.
        code, text = run("verify", "product-formula", "--seed", "FIX-A", "--depth", "16")
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 65536 and all(line.startswith("ok ") for line in lines)


class TestUsageErrors:
    def test_missing_seed(self):
        assert run("mutate")[0] == 1

    def test_both_seed_flags(self, tmp_path, fix_a):
        path = tmp_path / "a.seed"
        write_seed(fix_a, path)
        code, _ = run(
            "mutate", "--seed", "FIX-A", "--seed-file", str(path)
        )
        assert code == 1

    def test_unknown_fixture(self, capsys):
        for command in ("mutate", "verify laurent"):
            code, text = run(*command.split(), "--seed", "NOPE")
            assert (code, text) == (1, "")
            err = capsys.readouterr().err
            assert err.startswith("gencluster: error: unknown seed 'NOPE'")
            assert err.count("\n") == 1

    def test_missing_file(self, capsys, tmp_path):
        undecodable = tmp_path / "latin1.seed"
        undecodable.write_bytes(b"gca-seed v1\n\xff\xfe\n")
        # A missing file, a directory, and bytes that are not UTF-8.
        for path in (tmp_path / "missing.seed", tmp_path, undecodable):
            for command in ("mutate", "verify laurent"):
                code, text = run(*command.split(), "--seed-file", str(path))
                assert (code, text) == (1, "")
                err = capsys.readouterr().err
                assert err.startswith("gencluster: error: cannot read seed file")
                assert err.count("\n") == 1

    def test_internal_key_error_is_not_bad_input(self, monkeypatch):
        # A KeyError raised inside a case is a fault of that case, not
        # bad input: it is recorded as the case's failure and exits 2.
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(
            "gencluster.quotient_embedding.product_formula_check", broken
        )
        monkeypatch.setattr("gencluster.cli_io.group_mutate", broken)
        for target in ("product-formula", "hadamard"):
            code, text = run("verify", target, "--seed", "FIX-C", "--depth", "1")
            assert code == 2
            lines = text.splitlines()
            assert len(lines) == 1 and lines[0].startswith("FAIL")
            assert "KeyError: " in lines[0] and "internal" in lines[0]

    def test_out_of_range_direction(self):
        assert run("mutate", "--seed", "FIX-A", "--sequence", "9")[0] == 1

    def test_zero_direction(self):
        assert run("mutate", "--seed", "FIX-A", "--sequence", "0")[0] == 1

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.seed"
        path.write_text(BAD_SEED, encoding="utf-8")
        assert run("mutate", "--seed-file", str(path))[0] == 1

    # ``subquotient`` walks the empty sequence alone, but its flags are
    # validated like every other target's.
    FLAG_TARGETS = ("hadamard", "subquotient")

    def test_bad_sequences_spec(self):
        for target in self.FLAG_TARGETS:
            for spec in ("bogus", "random:x"):
                argv = ("verify", target, "--seed", "FIX-C", "--sequences", spec)
                assert run(*argv)[0] == 1

    def assert_usage_error(self, capsys, *argv):
        assert run(*argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("gencluster: error: ")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("argv", [
        ("trace", "--seed", "FIX-C", "--sequence", "\u0662"),
        ("trace", "--seed", "FIX-A", "--sequence", "2,\u0661"),
        ("mutate", "--seed", "FIX-A", "--sequence", "+1"),
        ("unfold", "--seed", "FIX-B", "--sequence", "1,01"),
        ("mutate", "--seed", "FIX-A", "--sequence", "0_1"),
        ("verify", "laurent", "--seed", "FIX-C", "--sequences", "random:0_2", "--depth", "1"),
        ("verify", "laurent", "--seed", "FIX-C", "--sequences", "random:+2", "--depth", "1"),
        ("verify", "laurent", "--seed", "FIX-C", "--sequences", "random: 2", "--depth", "1"),
        ("verify", "hadamard", "--seed", "FIX-C", "--depth", "\u0662"),
        ("verify", "hadamard", "--seed", "FIX-C", "--depth", "02"),
        ("verify", "hadamard", "--seed", "FIX-C", "--depth", " 2"),
        ("verify", "hadamard", "--seed", "FIX-C", "--depth", "-0"),
        ("verify", "hadamard", "--seed", "FIX-C", "--sequences", "random:2", "--rng-seed", "1_0"),
        ("verify", "hadamard", "--seed", "FIX-C", "--sequences", "random:2", "--rng-seed", "+3"),
    ])
    def test_integer_flags_take_the_seed_file_form(self, capsys, argv):
        # Integers on the command line are written as ``str`` prints them,
        # as in a seed file; ``int`` alone would read each of these.
        self.assert_usage_error(capsys, *argv)

    @pytest.mark.parametrize("command, seed", [
        ("mutate", "FIX-A"), ("unfold", "FIX-B"), ("trace", "FIX-C"),
    ])
    @pytest.mark.parametrize("sequence", ["1,,1", ",1", "1,", ",", "1, ,1"])
    def test_an_empty_sequence_entry_is_refused(self, capsys, command, seed, sequence):
        err = self.assert_usage_error(
            capsys, command, "--seed", seed, "--sequence", sequence
        )
        assert f"sequence {sequence!r} has an empty entry" in err

    @pytest.mark.parametrize("command, seed", [
        ("mutate", "FIX-A"), ("unfold", "FIX-B"), ("trace", "FIX-C"),
    ])
    def test_sequences_without_empty_entries_run(self, command, seed):
        outputs = {run(command, "--seed", seed, "--sequence", text)
                   for text in ("1,1", "1 1", "1, 1", " 1 , 1 ")}
        assert len(outputs) == 1 and outputs.pop()[0] == 0
        assert run(command, "--seed", seed, "--sequence", "") == run(command, "--seed", seed)

    def test_canonical_integer_flags_run(self):
        assert run("trace", "--seed", "FIX-C", "--sequence", "1,1")[0] == 0
        for rng_seed in ("0", "-3", "12"):
            code, text = run(
                "verify", "hadamard", "--seed", "FIX-C", "--depth", "2",
                "--sequences", "random:3", "--rng-seed", rng_seed,
            )
            assert code == 0 and len(text.splitlines()) == 3

    def test_negative_depth(self, capsys):
        for target in self.FLAG_TARGETS:
            err = self.assert_usage_error(
                capsys, "verify", target, "--seed", "FIX-C", "--depth", "-3"
            )
            assert "--depth" in err

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_empty_random_sequence_space(self, capsys, count):
        for target in self.FLAG_TARGETS:
            err = self.assert_usage_error(
                capsys, "verify", target, "--seed", "FIX-C",
                "--sequences", f"random:{count}",
            )
            assert f"random:{count}" in err

    @pytest.mark.parametrize("argv, message", [
        (("verify", "subquotient", "--seed", ""), "unknown seed ''"),
        (("verify", "subquotient", "--seed-file", ""), "cannot read seed file ''"),
        (("mutate", "--seed", ""), "unknown seed ''"),
        (("trace", "--seed-file", ""), "cannot read seed file ''"),
        (("verify", "subquotient", "--seed", "FIX-A", "--seed-file", ""), "mutually exclusive"),
        (("mutate", "--seed", "", "--seed-file", "FIX-A"), "mutually exclusive"),
    ])
    def test_an_empty_seed_flag_is_given(self, capsys, argv, message):
        # An empty value neither falls back to the bundled seeds nor
        # slips past the exclusion of the two flags.
        assert message in self.assert_usage_error(capsys, *argv)

    def test_every_seed_is_checked_before_any_record(self, capsys, monkeypatch):
        err = self.assert_usage_error(capsys, "verify", "hadamard", "--depth", "-1")
        assert "--depth" in err
        # Only the last bundled seed is unusable, and nothing is written.
        rank_0 = initial_seed(ExtendedExchangeMatrix(0, 1, ()), ())
        monkeypatch.setattr(
            cli_io, "fixture_seed",
            lambda name: rank_0 if name == FIXTURE_NAMES[-1] else fixture_seed(name),
        )
        err = self.assert_usage_error(capsys, "verify", "hadamard", "--depth", "2")
        assert "rank-0" in err

    def test_random_sequences_of_a_rank_zero_seed(self, capsys, tmp_path):
        path = tmp_path / "rank0.seed"
        write_seed(initial_seed(ExtendedExchangeMatrix(0, 1, ()), ()), path)
        err = self.assert_usage_error(
            capsys, "verify", "hadamard", "--seed-file", str(path),
            "--sequences", "random:2", "--depth", "2",
        )
        assert "rank-0" in err

    def test_exhaustive_sequences_of_a_rank_zero_seed(self, capsys, tmp_path):
        path = tmp_path / "rank0.seed"
        write_seed(initial_seed(ExtendedExchangeMatrix(0, 1, ()), ()), path)
        for target, depth in (("hadamard", "3"), ("product-formula", "2")):
            err = self.assert_usage_error(
                capsys, "verify", target, "--seed-file", str(path), "--depth", depth
            )
            assert "rank-0" in err
        # Depth 0 still has its one empty sequence.
        code, text = run(
            "verify", "hadamard", "--seed-file", str(path), "--depth", "0"
        )
        assert (code, text) == (0, f"ok target=hadamard seed={path} sequence=-\n")

    def test_unknown_target(self):
        assert run("verify", "nonsense", "--seed", "FIX-C")[0] == 1

    def test_unknown_command(self):
        assert run("frobnicate")[0] == 1


def quotient_failures(target, seed, sequence, pf_check, conditions):
    """Failures of one quotient-target case, every prefix rebuilt."""
    failures = []
    if target == "product-formula":
        root = build(seed)
        table = folded_initial_seed(seed, root).table
        elimination, sigma = quotient_relations(table, root.layout)
        for depth in range(len(sequence) + 1):
            fm = group_mutate_sequence(root, sequence[:depth])
            for k in range(seed.matrix.n):
                report = pf_check(elimination, sigma, fm, k)
                failures += [repr((depth,) + f) for f in report.failures]
    elif target == "subquotient":
        failures = [repr(f) for f in subquotient_check(seed).failures]
    else:
        ctx = QuotientContext.create(seed)
        tracked, fm = ctx.tracked, ctx.root
        for depth in range(len(sequence) + 1):
            if depth:
                k = sequence[depth - 1]
                tracked, fm = mutate_exchange_data(tracked, k), group_mutate(fm, k)
            failures += [repr((depth,) + f) for f in conditions(ctx, tracked, fm)]
    return failures


def oracle_verdict(target, seed, sequence, step=group_mutate,
                   hadamard=hadamard_check, double_constant=double_constant_check,
                   pf_check=product_formula_check,
                   conditions=_embedding_conditions_at, errors=GenClusterError):
    """One case walked from the seed on its own, sharing nothing.

    Exceptions of type ``errors`` become the case's failure; any other
    propagates, so a library fault makes the comparing test error.
    """
    try:
        if target in ("product-formula", "embedding", "subquotient"):
            failures = quotient_failures(
                target, seed, sequence, pf_check, conditions
            )
            return not failures, failures
        if target == "laurent":
            state = seed
            for k in sequence:
                state = mutate_seed(state, k)
            return True, []
        fm, reference = build(seed), seed.matrix
        prefixes = [(fm, reference)]
        for k in sequence:
            fm = step(fm, k)
            reference = mutate_sequence(reference, (k,))
            prefixes.append((fm, reference))
        failures = []
        for depth, (fm, reference) in enumerate(prefixes):
            if target == "hadamard":
                report = hadamard(fm, reference)
                if not report.ok:
                    failures.append(repr((depth,) + tuple(report.failures)))
            else:
                double_constant(fm)
        return not failures, failures
    except errors as exc:
        return False, [repr(f"{type(exc).__name__}: {exc}")]


def oracle_records(target, seed, label, sequences, **fakes):
    records = []
    for sequence in sequences:
        ok, failures = oracle_verdict(target, seed, sequence, **fakes)
        records.append({
            "failures": failures,
            "ok": ok,
            "seed": label,
            "sequence": [k + 1 for k in sequence],
            "target": target,
        })
    return records


def walked_records(*argv):
    code, text = run("verify", *argv, "--json")
    records = [json.loads(line) for line in text.splitlines()]
    assert code == (0 if all(r["ok"] for r in records) else 2)
    return records


def exhaustive(rank, depth):
    return list(product(range(rank), repeat=depth))


def shared_prefix_scan(previous, sequence):
    """Length of the common prefix, by the ``zip`` scan."""
    common = 0
    for a, b in zip(previous, sequence):
        if a != b:
            break
        common += 1
    return common


def prefix_walk_verdicts(target, seed, sequences, mode="total"):
    """``verify``'s walk before states were shared by content key.

    Each distinct prefix is stepped and checked once, shared between the
    sequences that start with it, but equal states reached by different
    prefixes are stepped and checked again.  Errors rank as in the
    walker: a mutation error on the path, then a check error, then the
    failures in depth order.  ``subquotient`` checks the seed alone, in
    root mode ``mode`` as the walks of the other quotient targets are.
    """
    try:
        if target == "subquotient":
            failures = subquotient_check(seed, mode).failures
            return [(not failures, failures)] * len(sequences)
        root, step, check, _ = _walk(target, seed, mode)
    except Exception as exc:
        return [(False, (f"{type(exc).__name__}: {exc}",))] * len(sequences)
    path = []
    previous = ()
    verdicts = []
    for sequence in sequences:
        del path[shared_prefix_scan(previous, sequence) + 1:]
        for depth in range(len(path), len(sequence) + 1):
            if path:
                state, mutation_error, check_error, failures = path[-1]
                if mutation_error is None:
                    try:
                        state = step(state, sequence[depth - 1])
                    except Exception as exc:
                        state, mutation_error = None, f"{type(exc).__name__}: {exc}"
            else:
                state, mutation_error, check_error, failures = root, None, None, ()
            if mutation_error is None and check_error is None:
                try:
                    failures += tuple((depth,) + f for f in check(state))
                except Exception as exc:
                    check_error = f"{type(exc).__name__}: {exc}"
            path.append((state, mutation_error, check_error, failures))
        previous = sequence
        _, mutation_error, check_error, failures = path[-1]
        error = mutation_error or check_error
        verdicts.append((False, (error,)) if error else (not failures, failures))
    return verdicts


def prefix_walk_records(target, seed, label, sequences):
    return [
        {
            "failures": [repr(f) for f in failures],
            "ok": ok,
            "seed": label,
            "sequence": [k + 1 for k in sequence],
            "target": target,
        }
        for sequence, (ok, failures) in zip(
            sequences, prefix_walk_verdicts(target, seed, sequences)
        )
    ]


def prefix_walk_stdout(target, seed, label, sequences, as_json):
    """Exit code and stdout of the prefix walk's records, each rendered whole."""
    records = prefix_walk_records(target, seed, label, sequences)
    lines = []
    for record in records:
        if as_json:
            lines.append(json.dumps(record, sort_keys=True) + "\n")
            continue
        status = "ok" if record["ok"] else "FAIL"
        directions = ",".join(str(k) for k in record["sequence"]) or "-"
        shown = json.dumps(label) if re.search(r'[\s="\\]', label) else label
        line = f"{status} target={target} seed={shown} sequence={directions}"
        if not record["ok"]:
            line += f" detail={record['failures']!r}"
        lines.append(line + "\n")
    return (0 if all(r["ok"] for r in records) else 2), "".join(lines)


def sign_naming_check(threshold):
    """Synthetic product-formula check that names the group's identity sign.

    It fails group ``k`` when the row sum of its first member exceeds
    ``threshold``, and its failure text holds the sign of ``k``, so a
    walk that reaches the wrong state changes the records.
    """
    def pf_check(elimination, sigma, fm, k):
        row = fm.matrix.rows[fm.layout.group_range(k)[0]]
        bad = sum(row) > threshold
        failures = ((k, f"{row} sign {fm.identity_sign(k)}"),) if bad else ()
        return Report(failures)

    return pf_check


#: The fifth ``random_seed`` draw of ``random.Random(3)``.  Its groups 2
#: and 3 have one member each, and its product-formula walk reaches one
#: folded matrix by ``2,3,2,3,2`` and ``3,2,3,2,3``, with group 2 mutated
#: an odd number of times on one path and group 3 on the other.
RANK_3_SEED = (
    "gca-seed v1\n"
    "N 3\n"
    "M 0\n"
    "divisors 3 1 1\n"
    "names x1 x2 x3 ;\n"
    "matrix 0 3 0 ; -1 0 -1 ; 0 1 0\n"
)


class TestWalker:
    """The shared-prefix walk against a from-scratch walk of every case."""

    @pytest.mark.parametrize("target", ["hadamard", "double-constant"])
    def test_fixtures_exhaustive(self, target):
        for name in FIXTURE_NAMES:
            seed = fixture_seed(name)
            for depth in range(5):
                assert walked_records(
                    target, "--seed", name, "--depth", str(depth)
                ) == oracle_records(
                    target, seed, name, exhaustive(seed.matrix.n, depth)
                )

    def test_fixtures_laurent(self):
        # FIX-A grows doubly exponentially, so it stops at depth 2.
        for name, depths in (("FIX-A", 3), ("FIX-B", 5), ("FIX-C", 5)):
            seed = fixture_seed(name)
            for depth in range(depths):
                assert walked_records(
                    "laurent", "--seed", name, "--depth", str(depth)
                ) == oracle_records(
                    "laurent", seed, name, exhaustive(seed.matrix.n, depth)
                )

    def test_random_seeds(self, tmp_path):
        rng = random.Random(2504)
        for i in range(24):
            seed = random_seed(rng)
            path = str(tmp_path / f"r{i}.seed")
            write_seed(seed, path)
            for target, depth in (
                ("hadamard", 3), ("double-constant", 3), ("laurent", 2)
            ):
                assert walked_records(
                    target, "--seed-file", path, "--depth", str(depth)
                ) == oracle_records(
                    target, seed, path, exhaustive(seed.matrix.n, depth)
                )

    def test_random_sequences_with_repeats(self):
        for target, name, depth, count in (
            ("hadamard", "FIX-A", 2, 30),
            ("double-constant", "FIX-B", 3, 40),
            ("laurent", "FIX-C", 4, 5),
        ):
            seed = fixture_seed(name)
            rng = random.Random(11)
            sequences = [
                random_sequence(rng, seed.matrix.n, depth) for _ in range(count)
            ]
            assert any(a == b for a, b in zip(sequences, sequences[1:]))
            assert walked_records(
                target, "--seed", name, "--depth", str(depth),
                "--sequences", f"random:{count}", "--rng-seed", "11",
            ) == oracle_records(target, seed, name, sequences)

    def test_quotient_fixtures_exhaustive(self):
        for target, depths in (
            ("product-formula", {"FIX-A": 4, "FIX-B": 4, "FIX-C": 4}),
            ("embedding", {"FIX-A": 1, "FIX-B": 2, "FIX-C": 4}),
            ("subquotient", {"FIX-A": 0, "FIX-B": 0, "FIX-C": 0}),
        ):
            for name, max_depth in depths.items():
                seed = fixture_seed(name)
                for depth in range(max_depth + 1):
                    assert walked_records(
                        target, "--seed", name, "--depth", str(depth)
                    ) == oracle_records(
                        target, seed, name, exhaustive(seed.matrix.n, depth)
                    )

    def test_quotient_random_seeds(self, tmp_path):
        rng = random.Random(2504)
        for i in range(12):
            seed = random_seed(rng)
            path = str(tmp_path / f"r{i}.seed")
            write_seed(seed, path)
            for target, depth in (("product-formula", 2), ("subquotient", 0)):
                assert walked_records(
                    target, "--seed-file", path, "--depth", str(depth)
                ) == oracle_records(
                    target, seed, path, exhaustive(seed.matrix.n, depth)
                )

    def test_quotient_random_sequences_with_repeats(self):
        for target, name, depth, count in (
            ("product-formula", "FIX-A", 3, 30),
            ("product-formula", "FIX-C", 5, 4),
            ("embedding", "FIX-B", 2, 12),
        ):
            seed = fixture_seed(name)
            rng = random.Random(11)
            sequences = [
                random_sequence(rng, seed.matrix.n, depth) for _ in range(count)
            ]
            assert any(a == b for a, b in zip(sequences, sequences[1:]))
            assert walked_records(
                target, "--seed", name, "--depth", str(depth),
                "--sequences", f"random:{count}", "--rng-seed", "11",
            ) == oracle_records(target, seed, name, sequences)

    def test_quotient_failures_concatenate_in_depth_order(self, monkeypatch):
        # Synthetic checks that fail on some states and name the state,
        # so a walk that reaches the wrong state changes the records.
        pf_check = sign_naming_check(100)

        def conditions(ctx, tracked, fm):
            rows = tracked.matrix.rows
            bad = sum(rows[0]) > 10
            return [("synthetic", rows, fm.matrix.rows)] if bad else []

        monkeypatch.setattr(quotient_embedding, "product_formula_check", pf_check)
        monkeypatch.setattr(quotient_embedding, "_embedding_conditions_at", conditions)
        for target, name, depth in (
            ("product-formula", "FIX-A", 4), ("embedding", "FIX-B", 3)
        ):
            seed = fixture_seed(name)
            expected = oracle_records(
                target, seed, name, exhaustive(seed.matrix.n, depth),
                pf_check=pf_check, conditions=conditions,
            )
            assert {r["ok"] for r in expected} == {True, False}
            assert walked_records(
                target, "--seed", name, "--depth", str(depth)
            ) == expected

    @pytest.mark.parametrize("target", ["product-formula", "embedding"])
    def test_quotient_mutation_error_outranks_shallower_check_error(
        self, monkeypatch, target
    ):
        # After group 1 the check raises, and so does the next mutation.
        # Within depth 2 no other prefix reaches that folded matrix.
        after_1 = group_mutate(build(fixture_seed("FIX-B")), 0)

        def step(fm, k):
            if fm == after_1:
                raise StructureViolation("deep mutation")
            return group_mutate(fm, k)

        monkeypatch.setattr(quotient_embedding, "group_mutate", step)
        if target == "product-formula":

            def check(elimination, sigma, fm, k):
                if fm == after_1:
                    raise StructureViolation("shallow check")
                return product_formula_check(elimination, sigma, fm, k)

            monkeypatch.setattr(quotient_embedding, "product_formula_check", check)
        else:

            def check(ctx, tracked, fm):
                if fm == after_1:
                    raise StructureViolation("shallow check")
                return _embedding_conditions_at(ctx, tracked, fm)

            monkeypatch.setattr(quotient_embedding, "_embedding_conditions_at", check)
        deep = [repr("StructureViolation: deep mutation")]
        shallow = [repr("StructureViolation: shallow check")]
        records = walked_records(target, "--seed", "FIX-B", "--depth", "2")
        assert {tuple(r["sequence"]): r["failures"] for r in records} == {
            (1, 1): deep, (1, 2): deep, (2, 1): [], (2, 2): [],
        }
        records = walked_records(target, "--seed", "FIX-B", "--depth", "1")
        assert [r["failures"] for r in records] == [shallow, []]

    def test_unexpected_exception_fails_its_case_only(self, monkeypatch):
        # A check that is not a library error, raised after direction 2
        # only: those cases fail with its text, the others still pass.
        # Within depth 2 no other prefix reaches that folded matrix.
        after_2 = group_mutate(build(fixture_seed("FIX-B")), 1)

        def check(elimination, sigma, fm, k):
            if fm == after_2:
                raise RuntimeError("synthetic fault")
            return product_formula_check(elimination, sigma, fm, k)

        monkeypatch.setattr(quotient_embedding, "product_formula_check", check)
        fault = [repr("RuntimeError: synthetic fault")]
        records = walked_records("product-formula", "--seed", "FIX-B", "--depth", "2")
        assert {tuple(r["sequence"]): r["failures"] for r in records} == {
            (1, 1): [], (1, 2): [], (2, 1): fault, (2, 2): fault,
        }
        assert records == oracle_records(
            "product-formula", fixture_seed("FIX-B"), "FIX-B",
            exhaustive(2, 2), pf_check=check, errors=Exception,
        )
        code, text = run("verify", "product-formula", "--seed", "FIX-B", "--depth", "2")
        assert code == 2
        assert [line.split()[0] for line in text.splitlines()] == [
            "ok", "ok", "FAIL", "FAIL",
        ]

    def test_failures_concatenate_in_depth_order(self, monkeypatch):
        # A state-dependent value that the involution brings back on
        # returning paths, so failing and passing prefixes interleave.
        def value(fm):
            return fm.matrix.rows[0][5] + fm.matrix.rows[-1][5]

        def hadamard(fm, reference):
            bad = value(fm) > 0
            failures = (("synthetic", value(fm)),) if bad else ()
            return Report(failures)

        def double_constant(fm):
            if value(fm) < -100:
                raise StructureViolation(f"synthetic at {value(fm)}")

        monkeypatch.setattr("gencluster.cli_io.hadamard_check", hadamard)
        monkeypatch.setattr("gencluster.cli_io.double_constant_check", double_constant)
        seed = fixture_seed("FIX-A")
        for target in ("hadamard", "double-constant"):
            expected = oracle_records(
                target, seed, "FIX-A", exhaustive(2, 4),
                hadamard=hadamard, double_constant=double_constant,
            )
            assert {r["ok"] for r in expected} == {True, False}
            assert walked_records(
                target, "--seed", "FIX-A", "--depth", "4"
            ) == expected

    def test_mutation_error_outranks_shallower_check_error(self, monkeypatch):
        fix_a = fixture_seed("FIX-A")
        after_1 = group_mutate(build(fix_a), 0)
        after_12 = group_mutate(after_1, 1)

        def step(fm, k):
            if fm == after_12:
                raise StructureViolation("deep mutation")
            return group_mutate(fm, k)

        def double_constant(fm):
            if fm == after_1:
                raise StructureViolation("shallow check")
            return double_constant_check(fm)

        monkeypatch.setattr("gencluster.cli_io.group_mutate", step)
        monkeypatch.setattr("gencluster.cli_io.double_constant_check", double_constant)
        records = walked_records(
            "double-constant", "--seed", "FIX-A", "--depth", "3"
        )
        assert records == oracle_records(
            "double-constant", fix_a, "FIX-A", exhaustive(2, 3),
            step=step, double_constant=double_constant,
        )
        by_sequence = {tuple(r["sequence"]): r["failures"] for r in records}
        deep = [repr("StructureViolation: deep mutation")]
        shallow = [repr("StructureViolation: shallow check")]
        assert by_sequence[(1, 2, 1)] == by_sequence[(1, 2, 2)] == deep
        assert by_sequence[(1, 1, 1)] == shallow
        assert by_sequence[(2, 2, 2)] == []



class TestSequenceSpace:
    """Cases come in sequence order, each with the prefix it shares."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_cases_match_the_product_and_the_zip_scan(self, rank):
        seed = {
            1: fixture_seed("FIX-C"), 2: fixture_seed("FIX-A"), 3: parse_seed_text(RANK_3_SEED),
        }[rank]
        assert seed.matrix.n == rank
        for depth in range(6):
            for spec in ("exhaustive", "random:7"):
                args = argparse.Namespace(depth=depth, sequences=spec, rng_seed=9)
                cases = list(cli_io._sequence_space("hadamard", seed, args))
                if spec == "exhaustive":
                    sequences = list(product(range(rank), repeat=depth))
                else:
                    rng = random.Random(9)
                    sequences = [random_sequence(rng, rank, depth) for _ in range(7)]
                assert [sequence for sequence, _ in cases] == sequences
                assert [shared for _, shared in cases] == [
                    shared_prefix_scan(previous, sequence)
                    for previous, sequence in zip([()] + sequences, sequences)
                ]


class _Null:
    """A writer that counts the records written to it and keeps none."""

    def __init__(self):
        self.records = 0

    def write(self, text):
        self.records += text.count("\n")


class TestStreaming:
    """Records are written as their verdicts are known."""

    def test_memory_does_not_grow_with_the_case_count(self):
        # Parser, fixture and import costs are paid before tracing starts.
        run_command(["verify", "hadamard", "--seed", "FIX-A", "--depth", "1"], _Null())
        out = _Null()
        tracemalloc.start()
        try:
            code = run_command(
                ["verify", "hadamard", "--seed", "FIX-A", "--depth", "12"], out
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out.records) == (0, 2**12)
        assert peak < 1 << 20

    def test_first_record_is_written_before_the_last_step(self, monkeypatch):
        steps = []

        def step(fm, k):
            steps.append(k)
            return group_mutate(fm, k)

        class Writer:
            def __init__(self):
                self.steps_before = []

            def write(self, text):
                self.steps_before.append(len(steps))

        monkeypatch.setattr(cli_io, "group_mutate", step)
        out = Writer()
        assert run_command(
            ["verify", "hadamard", "--seed", "FIX-A", "--depth", "5"], out
        ) == 0
        assert len(out.steps_before) == 2**5
        assert out.steps_before[0] < len(steps) == out.steps_before[-1]


    def test_random_cases_are_drawn_as_they_are_walked(self, monkeypatch):
        drawn = []

        def counted(rng, rank, depth):
            drawn.append(1)
            return random_sequence(rng, rank, depth)

        monkeypatch.setattr(cli_io, "random_sequence", counted)
        seed = fixture_seed("FIX-A")
        args = argparse.Namespace(depth=6, sequences="random:1000", rng_seed=4)
        cases = cli_io._sequence_space("hadamard", seed, args)
        assert len(drawn) == 0
        next(cases)
        assert len(drawn) == 1

        class Writer:
            def __init__(self):
                self.drawn_before = []

            def write(self, text):
                self.drawn_before.append(len(drawn))

        drawn.clear()
        out = Writer()
        assert run_command(
            ["verify", "hadamard", "--seed", "FIX-A", "--sequences", "random:50"], out
        ) == 0
        assert out.drawn_before == list(range(1, 51))

    @pytest.mark.parametrize("target, rng_seed, count, depth", [
        ("hadamard", 0, 1, 0),
        ("hadamard", 3, 25, 4),
        ("hadamard", 17, 60, 7),
        ("double-constant", 40, 9, 9),
        ("product-formula", 8, 12, 3),
    ])
    def test_random_records_match_the_list_form(self, target, rng_seed, count, depth):
        for as_json in (False, True):
            code, stdout = 0, ""
            for name in FIXTURE_NAMES:
                seed = fixture_seed(name)
                rng = random.Random(rng_seed)
                sequences = [
                    random_sequence(rng, seed.rank, depth) for _ in range(count)
                ]
                seed_code, text = prefix_walk_stdout(
                    target, seed, name, sequences, as_json
                )
                code, stdout = max(code, seed_code), stdout + text
            argv = [
                "verify", target, "--depth", str(depth), "--sequences",
                f"random:{count}", "--rng-seed", str(rng_seed),
            ]
            assert run(*argv, *(["--json"] if as_json else [])) == (code, stdout)


class TestSharedStates:
    """The walk shares each state by its content key."""

    @pytest.mark.parametrize("target", ["product-formula", "embedding", "subquotient"])
    def test_lcm_walks_match_the_prefix_walk(self, monkeypatch, target):
        # On these seeds the lcm root is smaller than the total one, and
        # every root the walks build must be an lcm root.
        modes = []
        for name in ("root_multiplicity", "tau_tilde"):
            def spy(gca, mode, original=getattr(quotient_embedding, name)):
                modes.append(mode)
                return original(gca, mode)

            monkeypatch.setattr(quotient_embedding, name, spy)
        depth = 0 if target == "subquotient" else 2
        for seed in shared_factor_seeds():
            cases = _odometer(seed.rank, depth)
            walked = [v[1:] for v in walk_verdicts(target, seed, cases, mode="lcm")]
            sequences = exhaustive(seed.rank, depth)
            assert walked == prefix_walk_verdicts(target, seed, sequences, mode="lcm")
            assert all(ok for ok, _ in walked), (seed.divisors, walked)
        assert set(modes) == {"lcm"}

    @pytest.mark.parametrize("spec", ["exhaustive", "random:5"])
    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize(
        "target", ["hadamard", "double-constant", "laurent", "product-formula", "embedding"]
    )
    def test_rank_3_walks_match_the_prefix_walk(self, tmp_path, target, as_json, spec):
        # The label needs JSON escapes, so the record's prefix is pinned too.
        path = tmp_path / 'rank3 "\u00e9".seed'
        path.write_text(RANK_3_SEED, encoding="utf-8")
        seed = parse_seed_text(RANK_3_SEED)
        depth = 2 if target == "embedding" else 4
        if spec == "exhaustive":
            sequences = exhaustive(3, depth)
        else:
            rng = random.Random(4)
            sequences = [random_sequence(rng, 3, depth) for _ in range(5)]
        argv = ["verify", target, "--seed-file", str(path), "--depth", str(depth),
                "--sequences", spec, "--rng-seed", "4"] + ["--json"] * as_json
        assert run(*argv) == prefix_walk_stdout(
            target, seed, str(path), sequences, as_json
        )

    @pytest.mark.parametrize("name", ["rank 3.seed", "rank\n3.seed", "a=b.seed"])
    def test_text_records_quote_labels_that_break_fields(
        self, monkeypatch, tmp_path, name
    ):
        # Passing and failing records alike: every line splits into its
        # four (or five) fields, and the quoted label reads back as the path.
        path = tmp_path / name
        path.write_text(RANK_3_SEED, encoding="utf-8")
        monkeypatch.setattr(
            quotient_embedding, "product_formula_check", sign_naming_check(3)
        )
        code, out = run(
            "verify", "product-formula", "--seed-file", str(path), "--depth", "2"
        )
        lines = out.splitlines()
        assert code == 2 and len(lines) == 9
        assert {line.split(" ")[0] for line in lines} == {"ok", "FAIL"}
        for line in lines:
            fields = re.fullmatch(
                r'(ok|FAIL) target=product-formula seed=("(?:[^"\\]|\\.)*") '
                r"sequence=[0-9,]+( detail=.*)?",
                line,
            )
            assert fields and json.loads(fields[2]) == str(path)
            assert (fields[1] == "FAIL") == (fields[3] is not None)
        json_out = run(
            "verify", "product-formula", "--seed-file", str(path), "--depth", "2", "--json"
        )[1]
        assert {json.loads(line)["seed"] for line in json_out.splitlines()} == {str(path)}

    @pytest.mark.parametrize("as_json", [False, True])
    def test_failing_and_error_records_match_the_prefix_walk(
        self, monkeypatch, tmp_path, as_json
    ):
        # Passing records take the prefix/suffix route, failing and error
        # records the whole-record one; all three kinds interleave here.
        path = tmp_path / "rank3.seed"
        path.write_text(RANK_3_SEED, encoding="utf-8")
        seed = parse_seed_text(RANK_3_SEED)
        root = build(seed)

        def step(fm, k):
            if k == 2 and fm != root:
                raise RuntimeError(f"synthetic step fault at {fm.matrix.rows[0]}")
            return group_mutate(fm, k)

        monkeypatch.setattr(
            quotient_embedding, "product_formula_check", sign_naming_check(3)
        )
        monkeypatch.setattr(quotient_embedding, "group_mutate", step)
        expected = prefix_walk_stdout(
            "product-formula", seed, str(path), exhaustive(3, 3), as_json
        )
        lines = expected[1].splitlines()
        passing = [line for line in lines if ('"ok": true' if as_json else "ok ") in line]
        errors = [line for line in lines if "RuntimeError: synthetic step fault" in line]
        assert expected[0] == 2
        assert (len(lines), len(passing), len(errors)) == (27, 6, 13)
        argv = ["verify", "product-formula", "--seed-file", str(path), "--depth", "3"]
        assert run(*argv + ["--json"] * as_json) == expected

    def test_paths_apart_only_in_size_one_parities_share_a_key(
        self, monkeypatch, tmp_path
    ):
        # 2,3,2,3,2 mutates the one-member group 2 an odd number of times
        # and 3,2,3,2,3 group 3; no check reads those parities, so both
        # paths reach one key, and the real check passes on both.
        seed = parse_seed_text(RANK_3_SEED)
        root, step, check, key = _walk("product-formula", seed)
        ends = []
        for sequence in ((1, 2, 1, 2, 1), (2, 1, 2, 1, 2)):
            fm = root
            for k in sequence:
                fm = step(fm, k)
            assert check(fm) == ()
            ends.append(fm)
        assert key(ends[0]) == key(ends[1])
        # The exhaustive depth-5 walk checks 51 distinct states, one per key.
        path = tmp_path / "rank3.seed"
        path.write_text(RANK_3_SEED, encoding="utf-8")
        counter = Mock(wraps=quotient_embedding.product_formula_check)
        monkeypatch.setattr(quotient_embedding, "product_formula_check", counter)
        records = walked_records(
            "product-formula", "--seed-file", str(path), "--depth", "5"
        )
        assert all(r["ok"] for r in records)
        assert counter.call_count == 51 * seed.rank

    def test_key_holds_the_cluster_entries(self, monkeypatch, tmp_path):
        # Every mutation of this rank-2 seed negates its matrix, so 1,2
        # returns to the initial matrix with another cluster.  A step that
        # fails on a first entry of several terms, naming it, tells them apart.
        text = "gca-seed v1\nN 2\nM 0\ndivisors 1 1\nnames x y ;\nmatrix 0 1 ; -1 0\n"
        path = tmp_path / "a2.seed"
        path.write_text(text, encoding="utf-8")

        def step(seed, k):
            if k == 1 and len(seed.cluster[0]._keys) > 1:
                raise StructureViolation(str(seed.cluster[0]))
            return mutate_seed(seed, k)

        monkeypatch.setattr("gencluster.cli_io.mutate_seed", step)
        expected = prefix_walk_records(
            "laurent", parse_seed_text(text), str(path), exhaustive(2, 5)
        )
        assert len({tuple(r["failures"]) for r in expected}) > 2
        assert walked_records(
            "laurent", "--seed-file", str(path), "--depth", "5"
        ) == expected

    @pytest.mark.parametrize("argv, check, step, before, after", [
        ("hadamard --seed FIX-A --depth 7", (cli_io, "hadamard_check"),
         (cli_io, "group_mutate"), (255, 254), (15, 26)),
        ("product-formula --seed FIX-A --depth 5",
         (quotient_embedding, "product_formula_check"),
         (quotient_embedding, "group_mutate"), (126, 62), (22, 18)),
        ("embedding --seed FIX-B --depth 3",
         (quotient_embedding, "_embedding_conditions_at"),
         (quotient_embedding, "group_mutate"), (15, 14), (7, 10)),
    ])
    def test_each_distinct_state_is_checked_once(
        self, monkeypatch, argv, check, step, before, after
    ):
        target, _, name, _, depth = argv.split()
        counters = []
        for owner, attr in (check, step):
            counter = Mock(wraps=getattr(owner, attr))
            monkeypatch.setattr(owner, attr, counter)
            counters.append(counter)
        records = walked_records(*argv.split())
        assert tuple(c.call_count for c in counters) == after
        for counter in counters:
            counter.reset_mock()
        seed = fixture_seed(name)
        assert records == prefix_walk_records(
            target, seed, name, exhaustive(seed.matrix.n, int(depth))
        )
        assert tuple(c.call_count for c in counters) == before

    def test_each_step_and_check_runs_exactly_once(self, monkeypatch):
        # The walk reads a step or check already made off its state; none
        # is made twice, and every state a step reaches is checked.
        steps, checks, reached = [], [], set()

        def step(fm, k):
            steps.append((fm.matrix.rows, k))
            mutated = group_mutate(fm, k)
            reached.add(mutated.matrix.rows)
            return mutated

        def hadamard(fm, reference):
            checks.append(fm.matrix.rows)
            return hadamard_check(fm, reference)

        monkeypatch.setattr("gencluster.cli_io.group_mutate", step)
        monkeypatch.setattr("gencluster.cli_io.hadamard_check", hadamard)
        records = walked_records("hadamard", "--seed", "FIX-A", "--depth", "7")
        assert len(records) == 2 ** 7 and all(r["ok"] for r in records)
        assert len(steps) == len(set(steps)) == 26
        assert len(checks) == len(set(checks)) == 15
        assert set(checks) == reached | {build(fixture_seed("FIX-A")).matrix.rows}

    def test_errors_on_a_shared_state_fail_every_case_that_reaches_it(
        self, monkeypatch
    ):
        # The state after group 1 is reached by 1 and by 1,1,1, 2,2,1 and
        # 1,2,2; the state after 1,2 by 1,2 and by 1,1,1,2 and 2,2,1,2.
        fix_a = fixture_seed("FIX-A")
        after_1 = group_mutate(build(fix_a), 0)
        after_12 = group_mutate(after_1, 1)
        raised = []

        def step(fm, k):
            if fm == after_12 and k == 1:
                raised.append("step")
                raise StructureViolation("step from a shared state")
            return group_mutate(fm, k)

        def hadamard(fm, reference):
            if fm == after_1:
                raised.append("check")
                raise StructureViolation("check of a shared state")
            return hadamard_check(fm, reference)

        monkeypatch.setattr("gencluster.cli_io.group_mutate", step)
        monkeypatch.setattr("gencluster.cli_io.hadamard_check", hadamard)
        records = walked_records("hadamard", "--seed", "FIX-A", "--depth", "5")
        assert sorted(raised) == ["check", "step"]
        assert records == oracle_records(
            "hadamard", fix_a, "FIX-A", exhaustive(2, 5),
            step=step, hadamard=hadamard,
        )
        by_sequence = {tuple(r["sequence"]): r["failures"] for r in records}
        step_error = [repr("StructureViolation: step from a shared state")]
        check_error = [repr("StructureViolation: check of a shared state")]
        for sequence in ((1, 2, 2, 1, 1), (1, 1, 1, 2, 2), (2, 2, 1, 2, 2)):
            assert by_sequence[sequence] == step_error
        for sequence in ((1, 1, 1, 1, 1), (2, 2, 1, 1, 2), (1, 2, 1, 2, 1)):
            assert by_sequence[sequence] == check_error
        assert by_sequence[(2, 1, 2, 1, 2)] == by_sequence[(2, 2, 2, 2, 2)] == []


#: SHA-256 of stdout and the exit code of one in-process invocation per
#: case, pinned from a reference run, so that byte-identical output is a
#: tier-1 check rather than something compared by hand.
GOLDEN_OUTPUTS = [
    ("verify hadamard --seed FIX-A --depth 5 --json",
     "9305f2421c5b53ae8b20bddfc3984091565fd8a848b7391c9d11acc988bff346", 0),
    ("verify hadamard --seed FIX-B --depth 5 --json",
     "cbfdb654a8cf3e72b79af72e816db6f74523d833adca52156f97d0f8f5d5c8e4", 0),
    ("verify hadamard --seed FIX-C --depth 5 --json",
     "44cf2afe3f75303b5796391cec71c616e282dede90e02e85556fde00260ac901", 0),
    ("verify double-constant --seed FIX-A --depth 5 --json",
     "dd13f6641c7d188cfa7af317b63edf0a4194b4b5351853d1759cf0a7f9463076", 0),
    ("verify double-constant --seed FIX-B --depth 5 --json",
     "aaf69e1e9083374ff92adb1e1736199189c069faaa51324bebbeba3ff7f36dd5", 0),
    ("verify double-constant --seed FIX-C --depth 5 --json",
     "caa54ed26d252b0239fa1eecaba94f4cf29bf46125ca45ea0b58fa03e42936c7", 0),
    ("verify laurent --seed FIX-A --depth 1",
     "aac3d6c2b5185ee74a60c9bde4a88bed366820aa070748b5f8afbe859ce7924c", 0),
    ("verify laurent --seed FIX-B --depth 3",
     "f943a404a55c9c5810f6371476f4f183a315575b5f6eed0187668efe7f4f6410", 0),
    ("verify laurent --seed FIX-C --depth 4",
     "527c4bb08c4ce49803979acaea5ec4a24c1b0b31283c4eaf69f959ef85f05338", 0),
    ("verify product-formula --seed FIX-A --depth 3",
     "81adfa6be0067eec310dc5b146c012348b95077f080b99cae7f2e5dc46a74dec", 0),
    ("verify product-formula --seed FIX-B --depth 3",
     "c342de27c07692878e723f2f52b40c520afc05a022e3dcc4d5e642458d66a409", 0),
    ("verify product-formula --seed FIX-C --depth 4",
     "301e3901b0ac57d3e91463681e6371a56866189a572fe1d95c133d0d13fe0aad", 0),
    ("verify embedding --seed FIX-A --depth 1",
     "44fe28e253ca81054842d8a81c4741d8ccab560bcd285706eed4a71451628aaf", 0),
    ("verify embedding --seed FIX-B --depth 2",
     "1e16b2458f2ec824b53303ac1570fa9329928fd6f57c4174d6ee0bdbb3e25e06", 0),
    ("verify embedding --seed FIX-C --depth 4",
     "6290da76347b21ae73f694b4c713ea97c2b38ac6b277a7dd6dcfb5be875396c1", 0),
    ("verify subquotient --seed FIX-A",
     "03c7527356566d1e083811d1a86b82f51faa5e13a30311685f9b26af310342ba", 0),
    ("verify subquotient --seed FIX-B",
     "316ad70e9bc867c4227ff794428fdeaaf392ea915e398c255c8457d4934d589e", 0),
    ("verify subquotient --seed FIX-C",
     "b06738b16cdb4507dbfc33b7ceb33e364b45423d34fa018e28635125fb358601", 0),
    # Valid sequence flags leave the depth-zero subquotient record as it is.
    ("verify subquotient --seed FIX-C --depth 3 --sequences random:4",
     "b06738b16cdb4507dbfc33b7ceb33e364b45423d34fa018e28635125fb358601", 0),
    ("mutate --seed FIX-A --sequence 1,2,1,2,1,2",
     "b1e7b477d413203c9219d74bcb2defe14ba9d65a85ecc60a20df082ba2c13fac", 0),
    ("mutate --seed FIX-B --sequence 1,2,2,1",
     "81709b746eb776ad3cd15f36217ae8e3b741ba592273768a2fa638c83494d5a6", 0),
    ("mutate --seed FIX-C --sequence 1,1",
     "a7fe411cdc3b662b38d23b467d3493bc3edf31026d99e13b8b188945bace5669", 0),
    ("unfold --seed FIX-A --sequence 1,2,1,2",
     "fd32421fbbd86d5fbf7bfde6c690ab0944d06f2358e8df8aa774e621b56dbe3b", 0),
    ("unfold --seed FIX-B --sequence 1,2,1,2",
     "71393934654757398b35caedc0d6540d59182b4f36b7228dbe6512854e1916ca", 0),
    ("unfold --seed FIX-C --sequence 1,1,1",
     "f3c89ca1a319817d9ea7a6e29747a8c006c4e56c366a928410ee2876624303dd", 0),
    ("trace --seed FIX-B --sequence 1,2,1",
     "f2ebb90a031126f2e1345a3bde862574115e51c2dc8e58670f6b9cc97baa7936", 0),
    ("trace --seed FIX-C --sequence 1,1",
     "75edba1984a36f71b603dc440958d56b1354a01271da7684a6ef575c1e3accbc", 0),
    ("adjoin --seed FIX-A",
     "e354dbde6969413df4ce08b7a6458131a9f6e60cb96ad565e5ab74d12e5be9db", 0),
    ("adjoin --seed FIX-B",
     "5ff38c0576b6133ddb6c70aa4399c187cdbacd488990a41eab242ed310a9e22f", 0),
    ("adjoin --seed FIX-C",
     "607933d64d167d9107dd0f730e452e0908bbea8de70dce95e5878555f251acf6", 0),
    # The bundled divisors are coprime, so ``lcm`` adjoins what ``total`` does.
    ("adjoin --seed FIX-A --mode lcm",
     "e354dbde6969413df4ce08b7a6458131a9f6e60cb96ad565e5ab74d12e5be9db", 0),
    ("adjoin --seed FIX-B --mode lcm",
     "5ff38c0576b6133ddb6c70aa4399c187cdbacd488990a41eab242ed310a9e22f", 0),
    ("adjoin --seed FIX-C --mode lcm",
     "607933d64d167d9107dd0f730e452e0908bbea8de70dce95e5878555f251acf6", 0),
    ("verify hadamard --depth 5 --sequences random:20 --rng-seed 3",
     "f658e8702dbdb8ffe6413d121a282b4413172ed68c7d8ce37531524e250e398e", 0),
    ("verify product-formula --depth 4 --sequences random:16 --rng-seed 5",
     "ffc580b0a7d857525b5cfdf05a2c76888655992b96494bd3dc5700e6ca7f6dd1", 0),
    ("verify embedding --seed FIX-B --depth 3",
     "b4988ec0ff0b954b417294b4d4be9ad547b9e4a7b769ddcc3e3be06951e6243a", 0),
    ("verify embedding --seed FIX-A --depth 2 --sequences random:6 --rng-seed 1",
     "c8f9abe2fdf0fe4dbb1c159a2dc8d5fc01512f8f0855da472204dd39116defa6", 0),
    ("verify product-formula --seed FIX-A --depth 2 --sequences random:8 --rng-seed 2",
     "b813086aa6c9cb4ec4543dcc67c05eb6b5c40d1e196020e4520a32f4a73d7ebd", 0),
    # Exponents pass 2**46, the second rung's limit, and every case passes.
    ("verify product-formula --seed FIX-A --depth 13",
     "989d857ab083706d663872955fcd554178b50cbc2c185c5b06de2c30672d5cd9", 0),
]

#: Stdout digests and exit codes of ``verify product-formula --seed-file
#: rank3.seed --depth 5`` on :data:`RANK_3_SEED`, whose groups 2 and 3
#: have one member each, in text and ``--json``.
RANK_3_PRODUCT_FORMULA_OUTPUTS = [
    ("", "170d48fd90360245ed6e7087ef4bcd4454fcb078308c3ac3828b925d5e78d5fd", 0),
    ("--json", "15696eabf5c122f58166a2a43c3ff947ae7e6fee98833cced16560e758e41e18", 0),
]


#: ``tests/data/rank3.seed``: the first draw of ``random_seed(random.Random(2504))``
#: of rank 3 with a non-trivial string entry (draw 2: divisors ``1 2 3``,
#: one frozen variable).  It is read by ``--seed-file`` and is not a fixture.
RANK_3_DRAW_FILE = Path(__file__).resolve().parent / "data" / "rank3.seed"

#: Stdout digests and exit codes of every ``verify`` target on
#: :data:`RANK_3_DRAW_FILE`, at depth 2 (``subquotient`` bare).
RANK_3_DRAW_OUTPUTS = [
    ("verify hadamard --seed-file rank3.seed --depth 2",
     "1272bdc72d758e6f4683e68d0c6e3b951e16bbccd725f5f3670fbe0aebc1be11", 0),
    ("verify double-constant --seed-file rank3.seed --depth 2",
     "ed235c0de319ba76bae661b7bd273f8032aa1cd14a67299b32a423dee15e6930", 0),
    ("verify laurent --seed-file rank3.seed --depth 2",
     "d424d78d2bbb30073f4018f1a0f7e9bc549f55d9a9bfe4757e1d6fa916bf26fb", 0),
    ("verify product-formula --seed-file rank3.seed --depth 2",
     "45cf893b54260c7806f8501cb418e06a80872c51902e3928c5224c867aa9edc5", 0),
    ("verify embedding --seed-file rank3.seed --depth 2",
     "755b8597f8ba6602ed3fef0e506c8ca60f019b12ed4a26900a9725aa83c042c4", 0),
    ("verify subquotient --seed-file rank3.seed",
     "593088cf39faf8c68fd4f06233ab26a39fc281a05951d4b225fecde7949a2ba0", 0),
]


class TestGoldenOutputs:
    def test_rank_3_draw_follows_its_rule(self):
        rng = random.Random(2504)
        draws = [random_seed(rng) for _ in range(3)]
        picked = next(
            seed for seed in draws
            if seed.rank == 3 and any(
                entry != entry.table.one() for row in seed.strings.rows for entry in row
            )
        )
        assert picked is draws[2] and picked.divisors.entries == (1, 2, 3)
        assert RANK_3_DRAW_FILE.read_text(encoding="utf-8") == cli_io._seed_text(picked)
        assert "rank3" not in FIXTURE_NAMES

    @pytest.mark.parametrize("argv, digest, code", RANK_3_DRAW_OUTPUTS)
    def test_rank_3_draw_bytes(self, monkeypatch, argv, digest, code):
        # The file is named relative to its folder, so the records' label
        # is the same wherever the repository is checked out.
        monkeypatch.chdir(RANK_3_DRAW_FILE.parent)
        got_code, text = run(*argv.split())
        assert got_code == code
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest, code", GOLDEN_OUTPUTS)
    def test_stdout_bytes(self, argv, digest, code):
        got_code, text = run(*argv.split())
        assert got_code == code
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("flags, digest, code", RANK_3_PRODUCT_FORMULA_OUTPUTS)
    def test_rank_3_product_formula_bytes(self, monkeypatch, tmp_path, flags, digest, code):
        # A relative file name keeps the record's label, and so the bytes,
        # the same wherever the file is written.
        monkeypatch.chdir(tmp_path)
        Path("rank3.seed").write_text(RANK_3_SEED, encoding="utf-8")
        argv = "verify product-formula --seed-file rank3.seed --depth 5 " + flags
        got_code, text = run(*argv.split())
        assert got_code == code
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def readme_examples():
    """``(argv, stdout lines)`` of each README block that starts with ``$ gencluster``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        command, *output = block.splitlines()
        if command.startswith("$ gencluster "):
            examples.append((shlex.split(command)[2:], output))
    return examples


class TestReadme:
    def test_examples_print_what_the_readme_shows(self):
        examples = readme_examples()
        assert [argv[0] for argv, _ in examples] == ["mutate", "verify", "trace"]
        for argv, output in examples:
            code, text = run(*argv)
            assert code == 0, argv
            assert text.splitlines() == output, argv
