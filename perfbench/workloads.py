"""Pinned workloads: units of work, input generation and per-unit checks.

A workload is a fixed list of units.  The units of ``growth``,
``blocks`` and ``quotient`` are ``gencluster verify`` invocations, each
an exhaustive walk of one target over one bundled fixture, run through
:func:`gencluster.cli_io.run_command` exactly as the command line runs
them, so that the timing covers the CLI's own driver (sequence space,
per-case loop, record rendering) as well as the layers below it.  The
units of ``battery`` are random seeds drawn from
:func:`gencluster.randomgen.random_seed` with a pinned pool seed, each
checked the way ``scripts/run_verification.py`` checks root formula,
homogeneity and involution.  The workload seed given on the command
line sets the order in which the units run, a new order in every pass,
so that the same work is timed under different orders while the
verdicts stay pinned.

The library is always reached through module attributes
(``gca_seed.mutate_seed`` rather than a name bound at import time), so
the traced run sees every call the harness makes.
"""

import hashlib
import io
import json
import random

from gencluster import (
    cli_io,
    fixtures,
    gca_seed,
    matrix_mutation,
    randomgen,
    root_adjoin,
    unfolding,
)

#: ``verify`` invocations per workload and size: (target, fixture, depth).
EXHAUSTIVE = {
    "growth": {
        "full": (("laurent", "FIX-B", 4), ("laurent", "FIX-A", 2)),
        "tiny": (("laurent", "FIX-B", 2), ("laurent", "FIX-A", 1)),
    },
    "blocks": {
        "full": (
            ("hadamard", "FIX-A", 7),
            ("hadamard", "FIX-B", 7),
            ("double-constant", "FIX-A", 7),
            ("double-constant", "FIX-B", 7),
        ),
        "tiny": (("hadamard", "FIX-A", 3), ("double-constant", "FIX-B", 3)),
    },
    "quotient": {
        "full": (
            ("embedding", "FIX-A", 2),
            ("embedding", "FIX-B", 2),
            ("embedding", "FIX-B", 3),
            ("embedding", "FIX-C", 8),
            ("product-formula", "FIX-A", 4),
            ("product-formula", "FIX-A", 5),
            ("product-formula", "FIX-B", 4),
            ("product-formula", "FIX-B", 5),
            ("product-formula", "FIX-C", 8),
            ("subquotient", "FIX-A", 0),
            ("subquotient", "FIX-B", 0),
            ("subquotient", "FIX-C", 0),
        ),
        "tiny": (
            ("embedding", "FIX-B", 1),
            ("product-formula", "FIX-B", 3),
            ("subquotient", "FIX-C", 0),
        ),
    },
}

#: Battery size per workload size: (number of random seeds, walk depth).
BATTERY = {"full": (200, 6), "tiny": (12, 3)}

#: Seed of the random-seed pool the battery draws from.  Pinned so that
#: the battery's digest is pinned too.
BATTERY_POOL_SEED = 2504

#: Rank of each bundled fixture, for counting the cases of a ``verify`` run.
FIXTURE_RANKS = {"FIX-A": 2, "FIX-B": 2, "FIX-C": 1}


class Unit:
    """One unit of work: a ``verify`` run, or one battery seed.

    ``cases`` is how many verdicts the unit yields; an errored or
    cut-off unit counts that many failed cases.
    """

    __slots__ = ("unit_id", "target", "label", "depth", "seed", "sequence", "cases")

    def __init__(self, unit_id, target, label, depth, seed=None, sequence=()):
        self.unit_id = unit_id
        self.target = target
        self.label = label
        self.depth = depth
        self.seed = seed
        self.sequence = sequence
        if target in ("battery", "subquotient"):
            self.cases = 1
        else:
            self.cases = FIXTURE_RANKS[label] ** depth

    def verify_argv(self):
        argv = ["verify", self.target, "--seed", self.label, "--json"]
        if self.target != "subquotient":
            argv += ["--depth", str(self.depth)]
        return argv


def generate(workload, size):
    """The workload's units in canonical order (``unit_id`` ascending)."""
    if workload == "battery":
        count, depth = BATTERY[size]
        rng = random.Random(BATTERY_POOL_SEED)
        units = []
        for i in range(count):
            seed = randomgen.random_seed(rng)
            sequence = randomgen.random_sequence(rng, seed.matrix.n, depth)
            units.append(Unit(i, "battery", f"R{i}", depth, seed, sequence))
        return units
    return [
        Unit(i, target, fixture, depth)
        for i, (target, fixture, depth) in enumerate(EXHAUSTIVE[workload][size])
    ]


def run_order(units, workload_seed, pass_index=0):
    """The units shuffled by the workload seed, afresh for every pass."""
    order = list(units)
    random.Random(f"{workload_seed}/{pass_index}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# running a unit; each returns its digest records, in output order


def _verify(unit):
    out = io.StringIO()
    code = cli_io.run_command(unit.verify_argv(), out)
    records = [
        [unit.unit_id, r["target"], r["seed"], r["sequence"],
         "ok" if r["ok"] else "fail", r["failures"], ""]
        for r in map(json.loads, out.getvalue().splitlines())
    ]
    if code not in (0, 2) or len(records) != unit.cases:
        records.append(failed_record(unit, "error", [f"verify exited {code} "
                                                      f"after {len(records)} records"]))
    return records


def _battery(unit):
    current = root_adjoin.tau_tilde(unit.seed).seed
    for k in unit.sequence:
        current = gca_seed.mutate_seed(current, k)
    failures = []
    for k in range(current.matrix.n):
        if not gca_seed.root_formula_check(current, k).ok:
            failures.append((k, "root formula"))
        root_adjoin.homogeneity_check(current, k)
        back = gca_seed.mutate_seed(gca_seed.mutate_seed(current, k), k)
        if (
            back.matrix != current.matrix
            or back.cluster != current.cluster
            or back.strings != current.strings
        ):
            failures.append((k, "involution"))
    return [[
        unit.unit_id, "battery", unit.label, [k + 1 for k in unit.sequence],
        "fail" if failures else "ok", [repr(f) for f in failures],
        _sha256(state_text(current)),
    ]]


def run_unit(unit):
    """Run one unit; library errors propagate to the caller."""
    return _battery(unit) if unit.target == "battery" else _verify(unit)


def failed_record(unit, verdict, failures):
    """The record of a unit that errored or was cut off."""
    return [unit.unit_id, unit.target, unit.label, None, verdict, failures, ""]


# ---------------------------------------------------------------------------
# final states, checked once per run outside the timed passes


def _sequences(rank, depth):
    sequences = [()]
    for _ in range(depth):
        sequences = [s + (k,) for s in sequences for k in range(rank)]
    return sequences


#: Targets whose cases end in a state worth pinning: the seed reached by
#: ``laurent``, the unfolded matrix reached by the block targets.  The
#: quotient targets leave none.
STATEFUL = ("laurent", "hadamard", "double-constant")


def state_text(state):
    """Canonical text of a seed (matrix, cluster, strings) or a matrix."""
    if isinstance(state, matrix_mutation.ExtendedExchangeMatrix):
        return matrix_mutation.write_matrix(state)
    parts = [matrix_mutation.write_matrix(state.matrix)]
    parts.extend(str(entry) for entry in state.cluster)
    for row in state.strings.rows:
        parts.append(" ; ".join(str(entry) for entry in row))
    return "\n".join(parts) + "\n"


def final_states(units):
    """SHA-256 of the final state of every case of the ``verify`` units.

    ``verify laurent`` prints no state and the ``trace`` command digests
    no cluster, so the seeds are walked here, once per run and outside
    the timed passes.  The battery's states are part of its records.
    """
    states = []
    for unit in units:
        if unit.target not in STATEFUL:
            continue
        seed = fixtures.fixture_seed(unit.label)
        for sequence in _sequences(FIXTURE_RANKS[unit.label], unit.depth):
            if unit.target == "laurent":
                state = seed
                for k in sequence:
                    state = gca_seed.mutate_seed(state, k)
            else:
                fm = unfolding.build(seed)
                for k in sequence:
                    fm = unfolding.group_mutate(fm, k)
                state = fm.matrix
            states.append([unit.unit_id, [k + 1 for k in sequence],
                           _sha256(state_text(state))])
    return states


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(records, states):
    """SHA-256 over the records in canonical (unit, output) order and the states."""
    ordered = sorted(records, key=lambda r: r[0])
    return _sha256(json.dumps([ordered, states], separators=(",", ":")))
