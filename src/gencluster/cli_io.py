"""Seed files, trace logs, and the command-line surface.

The flat-file grammar captures exactly the data of a depth-zero seed:
rank, divisors, variable names, the extended exchange matrix, and the
frozen-exponent vectors of the interior coefficient-string entries.
The writer emits one canonical form, and the parser accepts precisely
that form plus insignificant surrounding whitespace, so writing after
parsing reproduces a canonical file byte for byte.

The command-line tool exposes the library operations as subcommands::

    mutate   print the exchange matrix and its modified companion
             after a mutation sequence
    unfold   print the unfolded exchange matrix after a sequence of
             group mutations
    adjoin   print the seed obtained by adjoining a root of every
             frozen variable, in seed-file form
    verify   run one verification target over mutation sequences and
             print one record per check
    trace    run a mutation sequence and print a digest per step

Exit codes: ``0`` all checks passed, ``1`` unusable input (bad flags,
malformed files, out-of-range indices), ``2`` a mathematical check
failed, ``141`` stdout closed by its reader.  All output is
deterministic for a fixed ``--rng-seed``; records never include
wall-clock fields, so identical invocations are byte-identical.  Every
``verify`` target keeps the states it reaches by their content: each
distinct state is checked once and each distinct (state, direction)
step is made once, however many prefixes of its sequences reach them.
Each record is written as soon as its verdict is known, in sequence
order, so memory grows with the distinct states a walk holds, not with
the number of cases, and an interrupted run leaves the records already
written.
"""

import argparse
import functools
import json
import os
import sys

from .errors import (
    GenClusterError,
    IndexOutOfRange,
    InvalidDivisors,
    NotSkewSymmetrizable,
    ParseError,
    UnknownSymbol,
    ValidationError,
)
from .fixtures import FIXTURE_NAMES, fixture_seed
from .gca_seed import (
    CoefficientStrings,
    GeneralizedSeed,
    initial_seed,
    mutate_exchange_data,
    mutate_seed,
)
from .laurent_kernel import VariableTable
from .matrix_mutation import (
    DivisorVector,
    ExtendedExchangeMatrix,
    modify,
    mutate,
    mutate_sequence,
    write_matrix,
)
from .randomgen import random_sequence
from .root_adjoin import tau_tilde
from .unfolding import (
    build,
    double_constant_check,
    group_mutate,
    hadamard_check,
)

_MAGIC = "gca-seed v1"

#: Errors that mean the input was unusable rather than mathematically
#: wrong; the CLI maps them to exit code 1.
_INPUT_ERRORS = (
    ParseError,
    ValidationError,
    InvalidDivisors,
    NotSkewSymmetrizable,
    IndexOutOfRange,
    UnknownSymbol,
)


# ---------------------------------------------------------------------------
# seed files


def _seed_text(seed):
    """Canonical flat-file text of a depth-zero seed."""
    table = seed.table
    n, m = seed.matrix.n, seed.matrix.m
    for i, pos in enumerate(table.cluster_indices):
        if seed.cluster[i] != table.variable(table.names[pos]):
            raise ValidationError(
                "only seeds whose cluster equals the table variables have a"
                " flat-file form"
            )
    cluster_names = [table.names[pos] for pos in table.cluster_indices]
    frozen_names = [table.names[pos] for pos in table.frozen_indices]
    lines = [
        _MAGIC,
        f"N {n}",
        f"M {m}",
        ("divisors " + " ".join(str(d) for d in seed.divisors.entries)).rstrip(),
        (f"names {' '.join(cluster_names)} ; {' '.join(frozen_names)}").rstrip(),
        (
            "matrix "
            + " ; ".join(" ".join(str(e) for e in row) for row in seed.matrix.rows)
        ).rstrip(),
    ]
    if any(
        any(e != 0 for e in entry.exponents)
        for row in seed.strings.rows
        for entry in row
    ):
        lines.extend(_string_lines(table, seed.strings.rows))
    return "\n".join(lines) + "\n"


def _string_lines(table, rows):
    """The ``string e ; e ; ...`` line of each coefficient row: frozen exponents."""
    frozen = table.frozen_indices
    for row in rows:
        groups = [" ".join(str(e.exponents[pos]) for pos in frozen) for e in row]
        yield ("string " + " ; ".join(groups)).rstrip()


class _Cursor:
    """Line-by-line reader that reports 1-based positions on errors."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def next_line(self, what):
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line, self.pos
        raise ParseError(f"unexpected end of file, expected {what}", line=self.pos)

    def peek_keyword(self):
        pos = self.pos
        while pos < len(self.lines):
            line = self.lines[pos].strip()
            if line:
                return line.split()[0]
            pos += 1
        return None


def _parse_ints(text, line_no, what):
    """The integers of ``text``, each word in the form :func:`str` prints.

    A sign ``+``, leading zeros, ``-0``, underscores and non-ASCII digits
    are refused, so a parsed file writes back byte for byte.
    """
    out = []
    for column, word in enumerate(text.split(), start=1):
        try:
            value = int(word)
        except ValueError:
            value = None
        if value is None or str(value) != word:
            form = "integers" if value is None else "integers in canonical form"
            raise ParseError(
                f"{what} must be {form}, got {word!r}", line=line_no, column=column
            )
        out.append(value)
    return out


def _expect(cursor, keyword):
    line, line_no = cursor.next_line(f"'{keyword}' line")
    head, _, rest = line.partition(" ")
    if head != keyword:
        raise ParseError(f"expected '{keyword}', got {head!r}", line=line_no)
    return rest.strip(), line_no


def parse_seed_text(text):
    """Parse flat-file text into a depth-zero seed."""
    cursor = _Cursor(text)
    magic, line_no = cursor.next_line("header")
    if magic != _MAGIC:
        raise ParseError(f"expected header {_MAGIC!r}", line=line_no)
    counts = []
    for keyword in ("N", "M"):
        text_value, line_no = _expect(cursor, keyword)
        values = _parse_ints(text_value, line_no, keyword)
        if len(values) != 1 or values[0] < 0:
            raise ParseError(
                f"{keyword} must be one non-negative integer", line=line_no
            )
        counts.append(values[0])
    n, m = counts

    div_text, line_no = _expect(cursor, "divisors")
    divisor_list = _parse_ints(div_text, line_no, "divisors")
    if len(divisor_list) != n:
        raise ParseError(
            f"expected {n} divisors, got {len(divisor_list)}", line=line_no
        )

    names_text, line_no = _expect(cursor, "names")
    left, sep, right = names_text.partition(";")
    if not sep:
        raise ParseError("names line needs a ';' separator", line=line_no)
    cluster_names = tuple(left.split())
    frozen_names = tuple(right.split())
    if len(cluster_names) != n or len(frozen_names) != m:
        raise ParseError(
            f"expected {n} cluster and {m} frozen names, got"
            f" {len(cluster_names)} and {len(frozen_names)}",
            line=line_no,
        )

    matrix_text, line_no = _expect(cursor, "matrix")
    rows = []
    # A rank-0 seed has a bare matrix line: any text on it is a row too many.
    row_texts = matrix_text.split(";") if n or matrix_text else []
    if len(row_texts) != n:
        raise ParseError(
            f"expected {n} matrix rows, got {len(row_texts)}", line=line_no
        )
    for row_text in row_texts:
        row = _parse_ints(row_text, line_no, "matrix entries")
        if len(row) != n + m:
            raise ParseError(
                f"matrix rows need {n + m} entries, got {len(row)}",
                line=line_no,
            )
        rows.append(tuple(row))
    matrix = ExtendedExchangeMatrix(n, m, tuple(rows))
    divisors = DivisorVector(tuple(divisor_list))

    strings = None
    if cursor.peek_keyword() == "string":
        table = VariableTable.make(cluster=cluster_names, frozen=frozen_names)
        string_rows = []
        for i in range(n):
            body, line_no = _expect(cursor, "string")
            groups = body.split(";")
            if len(groups) != divisor_list[i] + 1:
                raise ParseError(
                    f"string row {i + 1} needs {divisor_list[i] + 1} exponent"
                    f" groups, got {len(groups)}",
                    line=line_no,
                )
            row = []
            for group in groups:
                exps = _parse_ints(group, line_no, "string exponents")
                if len(exps) != m:
                    raise ParseError(
                        f"string exponent groups need {m} entries, got"
                        f" {len(exps)}",
                        line=line_no,
                    )
                row.append(
                    table.monomial(dict(zip(frozen_names, exps)))
                )
            string_rows.append(tuple(row))
        strings = CoefficientStrings(tuple(string_rows))

    extra = cursor.peek_keyword()
    if extra is not None:
        raise ParseError(f"unexpected trailing content {extra!r}", line=cursor.pos + 1)

    return initial_seed(
        matrix,
        divisors,
        strings=strings,
        cluster_names=cluster_names,
        frozen_names=frozen_names,
    )


def parse_seed(path):
    """Parse the seed file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_seed_text(handle.read())


# ---------------------------------------------------------------------------
# trace digests


def _digest(seed):
    """SHA-256 of a (possibly mutated) seed's matrix-and-strings text.

    Two traced runs agree exactly when every intermediate matrix and
    string table agrees.
    """
    # Only ``trace`` digests, so only it loads hashlib.
    import hashlib

    text = write_matrix(seed.matrix) + "".join(
        line + "\n" for line in _string_lines(seed.table, seed.strings.rows)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# shared CLI plumbing


class _UsageError(Exception):
    pass


def _flag_int(word):
    """The value of an integer flag, written as in a seed file (see :func:`_parse_ints`)."""
    try:
        value = int(word)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {word!r}") from None
    if str(value) != word:
        raise argparse.ArgumentTypeError(f"int value not in canonical form: {word!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _load_seed(args):
    """The seed named by ``--seed-file`` or ``--seed``, with its record label."""
    if args.seed_file is not None:
        try:
            return parse_seed(args.seed_file), args.seed_file
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise _UsageError(
                f"cannot read seed file {args.seed_file!r}: {reason}"
            ) from exc
    name = args.seed
    label = name.strip().upper()
    if label not in FIXTURE_NAMES:
        raise _UsageError(
            f"unknown seed {name!r}; choose from {', '.join(FIXTURE_NAMES)}"
        )
    return fixture_seed(name), label


def _parse_sequence(text, rank, *, what="direction"):
    """1-based comma/space separated indices -> 0-based tuple.

    Each index is written as in a seed file (see :func:`_parse_ints`);
    an empty entry (before, between or after commas) is refused.
    """
    if not text:
        return ()
    if "," in text and not all(entry.strip() for entry in text.split(",")):
        raise ParseError(f"{what} sequence {text!r} has an empty entry")
    words = text.replace(",", " ").split()
    out = []
    for word in words:
        (value,) = _parse_ints(word, None, "sequence entries")
        if not 1 <= value <= rank:
            raise IndexOutOfRange(
                f"{what} {value} out of range 1..{rank}"
            )
        out.append(value - 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_mutate(args, out):
    seed, _ = _load_seed(args)
    sequence = _parse_sequence(args.sequence, seed.matrix.n)
    matrix = mutate_sequence(seed.matrix, sequence)
    out.write("B\n")
    out.write(write_matrix(matrix))
    out.write("Bhat\n")
    out.write(write_matrix(modify(matrix, seed.divisors)))
    return 0


def _cmd_unfold(args, out):
    seed, _ = _load_seed(args)
    fm = build(seed)
    sequence = _parse_sequence(args.sequence, fm.layout.n_groups, what="group")
    for k in sequence:
        fm = group_mutate(fm, k)
    out.write("Bcal\n")
    out.write(write_matrix(fm.matrix))
    return 0


def _cmd_adjoin(args, out):
    seed, _ = _load_seed(args)
    adjoined = tau_tilde(seed, mode=args.mode)
    out.write(_seed_text(adjoined.seed))
    return 0


def _cmd_trace(args, out):
    seed, _ = _load_seed(args)
    sequence = _parse_sequence(args.sequence, seed.matrix.n)
    out.write(f"init digest={_digest(seed)}\n")
    # The digest reads no cluster entry, so only the exchange data are mutated.
    for k in sequence:
        seed = mutate_exchange_data(seed, k)
        out.write(f"mutate k={k + 1} digest={_digest(seed)}\n")
    return 0


#: Depth a target walks when ``--depth`` is not given.  A deeper
#: ``embedding`` default would change the bytes of a default run, so it
#: stays at 2, though the walk no longer evaluates cluster entries.
_DEFAULT_DEPTH = {
    "hadamard": 4,
    "double-constant": 4,
    "laurent": 6,
    "product-formula": 4,
    "embedding": 2,
    "subquotient": 0,
}


def _walk(target, seed, mode="total"):
    """Root state, step, check and state key of a ``verify`` target.

    A ``laurent`` state is the seed, which has no check of its own; a
    ``double-constant`` state is the unfolding; a ``hadamard`` state
    pairs the unfolding with the weighted reference it is checked
    against.  ``product-formula`` and ``embedding`` are the walks of
    :func:`~gencluster.quotient_embedding.product_formula_walk` and
    :func:`~gencluster.quotient_embedding.embedding_walk` in root mode
    ``mode``, which the other targets do not read.  A check returns the
    depth-free failures of one state.  The key of a state holds
    everything its step and its check read, compared exactly: states
    with equal keys step and check alike.
    """
    if target == "laurent":
        return seed, mutate_seed, lambda state: (), GeneralizedSeed.content_key
    if target == "product-formula":
        from .quotient_embedding import product_formula_walk

        return product_formula_walk(seed, mode)
    if target == "embedding":
        from .quotient_embedding import embedding_walk

        return embedding_walk(seed, mode)
    if target == "double-constant":
        def check(fm):
            double_constant_check(fm)
            return ()

        return build(seed), group_mutate, check, lambda fm: fm.matrix.rows

    def step(state, k):
        fm, reference = state
        return group_mutate(fm, k), mutate(reference, k)

    def check(state):
        report = hadamard_check(*state)
        return () if report.ok else (tuple(report.failures),)

    def key(state):
        fm, reference = state
        return fm.matrix.rows, reference.rows

    return (build(seed), seed.matrix), step, check, key


def _error_text(exc):
    return f"{type(exc).__name__}: {exc}"


class _State:
    """One distinct state of a walk, with its check and the steps made from it.

    ``outcome`` is ``None`` until a path needs the check, then
    ``(failures, error)``: the depth-free failures, or the text of the
    exception the check raised.  ``children`` maps each direction
    stepped so far to ``(state, error)``, the :class:`_State` it leads
    to or the text of the exception the step (or the key) raised.
    """

    __slots__ = ("value", "outcome", "children")

    def __init__(self, value):
        self.value = value
        self.outcome = None
        self.children = {}


def walk_verdicts(target, seed, cases, mode="total"):
    """Yield ``(sequence, ok, failures)`` of each case as soon as it is known.

    This is the one walker of mutation sequences: ``verify`` and the
    verification script both check the paper's identities through it.
    ``cases`` are ``(sequence, shared)`` pairs, as :func:`_sequence_space`
    makes them: ``shared`` is at most the length of the prefix a
    sequence shares with the one before it, and ``0`` walks the
    sequence from the root through the states already reached.  ``mode``
    is the root mode of the quotient targets (``total`` or ``lcm``, see
    :func:`~gencluster.root_adjoin.root_multiplicity`).
    States are kept by their content key (see :func:`_walk`), so each
    distinct state is checked once and each distinct (state, direction)
    step is made once, however many prefixes reach it; the walk holds
    one state per distinct key until it ends.  Mutation is an
    involution, so an exhaustive rank-2 walk to depth ``d`` reaches at most
    ``2d + 1`` distinct states.  Every new step is still computed: a
    step that broke the involution would give a new key, not a reused
    result.

    ``path[t]`` is the node of the current sequence's first ``t``
    directions: its state, the first mutation error on the path, the
    first check error on the path, and the check failures in depth
    order, each stamped with the depth of the prefix that met it.  Each
    sequence keeps the nodes it shares with the previous one and extends
    from there.  A mutation error anywhere on the path outranks a check
    error, which outranks the failures.

    Any exception, not only a library error, is the error of the case
    that raised it: it is recorded as ``Type: message`` and the walk goes
    on, so one faulty case cannot abort the others.  ``subquotient`` is
    a depth-zero check of the seed, whose failures carry no depth.
    """
    verdict = None
    try:
        if target == "subquotient":
            from .quotient_embedding import subquotient_check

            failures = subquotient_check(seed, mode).failures
            verdict = (not failures, failures)
        else:
            root, step, check, key = _walk(target, seed, mode)
            start = _State(root)
            seen = {key(root): start}
    except Exception as exc:
        verdict = (False, (_error_text(exc),))
    if verdict is not None:
        for sequence, _ in cases:
            yield (sequence, *verdict)
        return

    # Each makes a step or check once; the walk reads a made one off the state.
    def child(state, k):
        try:
            value = step(state.value, k)
            state.children[k] = (seen.setdefault(key(value), _State(value)), None)
        except Exception as exc:
            state.children[k] = (None, _error_text(exc))
        return state.children[k]

    def outcome(state):
        try:
            state.outcome = (tuple(check(state.value)), None)
        except Exception as exc:
            state.outcome = ((), _error_text(exc))
        return state.outcome

    found, check_error = outcome(start)
    path = [(start, None, check_error, tuple((0,) + f for f in found))]
    for sequence, shared in cases:
        del path[shared + 1:]
        for k in sequence[len(path) - 1:]:
            state, mutation_error, check_error, failures = path[-1]
            if mutation_error is None:
                state, mutation_error = state.children.get(k) or child(state, k)
            if mutation_error is None and check_error is None:
                found, check_error = state.outcome or outcome(state)
                if found:
                    failures += tuple((len(path),) + f for f in found)
            path.append((state, mutation_error, check_error, failures))
        _, mutation_error, check_error, failures = path[-1]
        error = mutation_error or check_error
        yield (sequence, False, (error,)) if error else (sequence, not failures, failures)


def _odometer(rank, depth):
    """Exhaustive cases in lexicographic order; ``shared`` is the digit that advanced."""
    digits, shared = [0] * depth, 0
    while shared >= 0:
        yield tuple(digits), shared
        shared = depth - 1
        while shared >= 0 and digits[shared] == rank - 1:
            digits[shared] = 0
            shared -= 1
        if shared >= 0:
            digits[shared] += 1


def _sequence_space(target, seed, args):
    """The ``(sequence, shared)`` cases a verify run walks for one seed.

    ``shared`` is the length of the prefix a sequence shares with the
    one before it.  The flags are validated for every target, before any
    case is walked; ``subquotient`` then walks the empty sequence alone.
    """
    depth = args.depth if args.depth is not None else _DEFAULT_DEPTH[target]
    if depth < 0:
        raise _UsageError(f"--depth must be non-negative, got {depth}")
    spec = args.sequences
    count = None
    if spec.startswith("random:"):
        try:
            count = _flag_int(spec.split(":", 1)[1])
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"bad --sequences value {spec!r}") from exc
        if count < 1:
            raise _UsageError(f"--sequences random:N needs N >= 1, got {spec!r}")
    elif spec != "exhaustive":
        raise _UsageError(f"--sequences must be 'exhaustive' or 'random:N', got {spec!r}")
    if target == "subquotient":
        return [((), 0)]
    rank = seed.matrix.n
    if depth and not rank:
        raise _UsageError(f"a rank-0 seed has no mutation sequences of depth {depth}")
    if count is None:
        return _odometer(rank, depth)
    import random  # only --sequences random:N draws, so only it loads random
    return _random_cases(random.Random(args.rng_seed), rank, depth, count)


def _random_cases(rng, rank, depth, count):
    """``count`` random cases, each sequence drawn as the walk takes it."""
    previous = ()
    for _ in range(count):
        sequence = random_sequence(rng, rank, depth)
        pairs = enumerate(zip(previous, sequence))
        yield sequence, next((i for i, (x, y) in pairs if x != y), len(previous))
        previous = sequence


def _text_label(label):
    """``label`` as a text record's ``seed`` field, quoted where it must be.

    A label holding whitespace, ``=``, ``"``, a backslash or a
    non-printable character is a JSON string, so the fields still split.
    """
    plain = label.isprintable() and not any(c in label for c in ' ="\\')
    return label if plain else json.dumps(label)


def _render_record(target, label, sequence, failures, as_json):
    """The line of a failing case."""
    record = {"target": target, "seed": label, "sequence": [k + 1 for k in sequence],
              "ok": False, "failures": [repr(f) for f in failures]}
    if as_json:
        return json.dumps(record, sort_keys=True) + "\n"
    directions = ",".join(str(k) for k in record["sequence"]) or "-"
    detail, label = record["failures"], _text_label(label)
    return f"FAIL target={target} seed={label} sequence={directions} detail={detail!r}\n"


def _cmd_verify(args, out):
    if args.seed_file is not None or args.seed is not None:
        seeds = [_load_seed(args)]
    else:
        seeds = [(fixture_seed(name), name) for name in FIXTURE_NAMES]
    spaces = [_sequence_space(args.target, seed, args) for seed, _ in seeds]

    # A passing line is a prefix and a suffix fixed per seed around the
    # directions: the bytes ``json.dumps`` and the text form would give.
    target = args.target
    separator, empty = (", ", "") if args.json else (",", "-")
    all_ok = True
    for (seed, label), cases in zip(seeds, spaces):
        if args.json:
            prefix = f'{{"failures": [], "ok": true, "seed": {json.dumps(label)}, "sequence": ['
            suffix = f'], "target": {json.dumps(target)}}}\n'
        else:
            prefix, suffix = f"ok target={target} seed={_text_label(label)} sequence=", "\n"
        names = [str(k + 1) for k in range(seed.matrix.n)]
        for sequence, ok, failures in walk_verdicts(target, seed, cases):
            if ok:
                out.write(prefix + (separator.join([names[k] for k in sequence]) or empty) + suffix)
            else:
                all_ok = False
                out.write(_render_record(target, label, sequence, failures, args.json))
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# entry points


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="gencluster",
        description="Exact mutations, unfoldings, and verification for"
        " generalized cluster structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed_options(p):
        p.add_argument(
            "--seed",
            help=f"built-in seed name ({', '.join(FIXTURE_NAMES)})",
        )
        p.add_argument("--seed-file", help="path to a seed file")

    p_mutate = sub.add_parser("mutate", help="mutate the exchange matrices")
    add_seed_options(p_mutate)
    p_mutate.add_argument(
        "--sequence",
        default="",
        help="1-based mutation directions, e.g. '1,2,1'",
    )
    p_mutate.set_defaults(func=_cmd_mutate)

    p_unfold = sub.add_parser("unfold", help="unfold and group-mutate")
    add_seed_options(p_unfold)
    p_unfold.add_argument(
        "--sequence",
        default="",
        help="1-based group directions, e.g. '1,2'",
    )
    p_unfold.set_defaults(func=_cmd_unfold)

    p_adjoin = sub.add_parser(
        "adjoin", help="adjoin a root of every frozen variable"
    )
    add_seed_options(p_adjoin)
    p_adjoin.add_argument(
        "--mode",
        choices=("total", "lcm"),
        default="total",
        help="root multiplicity: product of divisors, or their lcm",
    )
    p_adjoin.set_defaults(func=_cmd_adjoin)

    p_verify = sub.add_parser("verify", help="run a verification target")
    p_verify.add_argument(
        "target",
        choices=(
            "hadamard",
            "double-constant",
            "laurent",
            "product-formula",
            "embedding",
            "subquotient",
        ),
    )
    add_seed_options(p_verify)
    p_verify.add_argument(
        "--depth", type=_flag_int, default=None, help="mutation sequence length"
    )
    p_verify.add_argument(
        "--sequences",
        default="exhaustive",
        help="'exhaustive' or 'random:N'",
    )
    p_verify.add_argument(
        "--rng-seed", type=_flag_int, default=0, help="seed for random sequences"
    )
    p_verify.add_argument(
        "--json", action="store_true", help="one JSON object per record"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_trace = sub.add_parser("trace", help="digest every step of a mutation run")
    add_seed_options(p_trace)
    p_trace.add_argument(
        "--sequence",
        default="",
        help="1-based mutation directions, e.g. '1,2,1'",
    )
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def run_command(argv, out=None):
    """Run one CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is not None and args.seed_file is not None:
            raise _UsageError("--seed and --seed-file are mutually exclusive")
        if args.command != "verify" and args.seed is None and args.seed_file is None:
            raise _UsageError(f"{args.command} needs --seed or --seed-file")
        return args.func(args, out)
    except (_UsageError, *_INPUT_ERRORS) as exc:
        print(f"gencluster: error: {exc}", file=sys.stderr)
        return 1
    except GenClusterError as exc:
        print(f"gencluster: mismatch: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    """:func:`run_command` on stdout; a reader closing it early ends the run with 141."""
    try:
        return run_command(sys.argv[1:] if argv is None else argv)
    except BrokenPipeError:
        # 128 + SIGPIPE, as a killed process reports; stdout's rest goes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
