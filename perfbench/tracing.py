"""Spans and work counts around the library's public entry points.

:class:`Tracer` replaces each traced function, in every ``gencluster``
module that binds it, with a wrapper that records a span (calls and
self time, that is the span's duration minus the time its child spans
cover) and exact work counts, and puts the original functions back when
it is uninstalled.  Nothing in ``src/`` changes; the wrappers live only
for the duration of a traced pass.

Counts that need to look at a result (term counts, coefficient sizes,
prefix bookkeeping) run outside the span; their cost is booked to
``tracing.hook`` so that no layer's self time includes it.
"""

import functools
import statistics
import sys
import time
import weakref

from gencluster import (
    errors,
    gca_seed,
    laurent_kernel,
    matrix_mutation,
    quotient_embedding,
    root_adjoin,
    unfolding,
)

LAYERS = (
    "laurent_kernel",
    "gca_seed",
    "matrix_mutation",
    "unfolding",
    "quotient_embedding",
    "root_adjoin",
)

#: The span around one unit of a workload: a whole ``verify`` run through
#: ``cli_io.run_command`` (its self time is the CLI's own driver: sequence
#: space, per-case loop, record rendering), or one battery seed.
DRIVER = "cli_io.driver"


class Stat:
    """Calls, self time and named counters of one span name."""

    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters = {}

    def add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount


class Lineage:
    """Distinct (state, direction) pairs among the calls of one mutation.

    A state produced by a traced call is identified by its parent's node
    and the direction; any other state is a root, identified by its
    content.  ``distinct / calls`` is the share of calls that computed a
    state no earlier call in the pass had computed.
    """

    def __init__(self, root_key):
        self._root_key = root_key
        self._by_object = {}
        self._nodes = {}
        self.calls = 0
        self.distinct = 0

    def _node(self, key):
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = len(self._nodes)
        return node

    def _node_of(self, obj):
        entry = self._by_object.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        node = self._node(("root", self._root_key(obj)))
        self._by_object[id(obj)] = (weakref.ref(obj), node)
        return node

    def record(self, parent, k, child):
        self.calls += 1
        key = (self._node_of(parent), k)
        if key not in self._nodes:
            self.distinct += 1
        self._by_object[id(child)] = (weakref.ref(child), self._node(key))

    def ratio(self):
        return self.distinct / self.calls if self.calls else 0.0


def _seed_key(seed):
    return (
        seed.table,
        seed.matrix,
        seed.divisors,
        seed.strings,
        tuple(str(entry) for entry in seed.cluster),
    )


def _folded_key(fm):
    return (fm.matrix, fm.group_sizes, fm.m_original)


#: Work counters reported per kernel span, besides calls and self time.
COUNTERS = {
    "laurent_kernel.poly_exact_div": ("quotient_terms", "elim_products", "inexact"),
    "laurent_kernel.poly_mul": ("term_products",),
    "laurent_kernel.poly_map_variables": ("terms_in",),
}


class Tracer:
    """In-memory spans and counts for one traced pass at a time."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.stats = {}
        self._stack = []
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.lineages = {
            "gca_seed.mutate_seed": Lineage(_seed_key),
            "unfolding.group_mutate": Lineage(_folded_key),
        }

    def stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        """Run ``fn`` as a span named ``name``; ``hook`` counts its work."""
        clock = time.perf_counter
        stack = self._stack
        stack.append(0.0)
        start = clock()
        try:
            result = fn(*args, **(kwargs or {}))
        except errors.InexactDivision:
            self.stat(name).add("inexact", 1)
            raise
        finally:
            elapsed = clock() - start
            children = stack.pop()
            stat = self.stat(name)
            stat.calls += 1
            stat.self_s += elapsed - children
            if stack:
                stack[-1] += elapsed
        if hook is not None:
            hook_start = clock()
            hook(self, name, args, result)
            hook_elapsed = clock() - hook_start
            self.stat("tracing.hook").self_s += hook_elapsed
            if stack:
                stack[-1] += hook_elapsed
        return result

    def _wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hook)

        return traced

    # -- counting hooks ----------------------------------------------------

    def observe(self, p):
        terms = p.terms
        if len(terms) > self.max_terms:
            self.max_terms = len(terms)
        if terms:
            bits = max(abs(c).bit_length() for c in terms.values())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    @staticmethod
    def _hook_result(tracer, name, args, result):
        tracer.observe(result)

    @staticmethod
    def _hook_mul(tracer, name, args, result):
        a, b = args[0], args[1]
        tracer.stat(name).add("term_products", len(a.terms) * len(b.terms))
        tracer.observe(result)

    @staticmethod
    def _hook_div(tracer, name, args, result):
        quotient_terms = len(result.terms)
        stat = tracer.stat(name)
        stat.add("quotient_terms", quotient_terms)
        stat.add("elim_products", quotient_terms * len(args[1].terms))
        tracer.observe(result)

    @staticmethod
    def _hook_map(tracer, name, args, result):
        tracer.stat(name).add("terms_in", len(args[0].terms))
        tracer.observe(result)

    @staticmethod
    def _hook_lineage(tracer, name, args, result):
        tracer.lineages[name].record(args[0], args[1], result)

    @staticmethod
    def _hook_cases(tracer, name, args, result):
        tracer.stat(name).add("cases", len(result))

    def run_unit(self, fn, unit):
        """Run one unit of the workload as the driver span, counting its cases."""
        return self.call(DRIVER, fn, (unit,), hook=self._hook_cases)

    # -- installation ------------------------------------------------------

    def targets(self):
        """(span name, owner, attribute, hook) for every traced entry point."""
        lk, gs, mm = laurent_kernel, gca_seed, matrix_mutation
        qe, ra, un = quotient_embedding, root_adjoin, unfolding
        return (
            ("laurent_kernel.poly_mul", lk, "poly_mul", self._hook_mul),
            ("laurent_kernel.poly_exact_div", lk, "poly_exact_div", self._hook_div),
            ("laurent_kernel.poly_map_variables", lk, "poly_map_variables",
             self._hook_map),
            ("laurent_kernel.poly_add", lk, "poly_add", self._hook_result),
            ("gca_seed.mutate_seed", gs, "mutate_seed", self._hook_lineage),
            ("gca_seed.exchange_polynomial", gs, "exchange_polynomial", None),
            ("gca_seed.root_formula_check", gs, "root_formula_check", None),
            ("matrix_mutation.construct", mm.ExtendedExchangeMatrix,
             "__post_init__", None),
            ("matrix_mutation.mutate", mm, "mutate", None),
            ("unfolding.build", un, "build", None),
            ("unfolding.group_mutate", un, "group_mutate", self._hook_lineage),
            ("unfolding.checks", un, "hadamard_check", None),
            ("unfolding.checks", un, "double_constant_check", None),
            ("quotient_embedding.context_mutate", qe.QuotientContext, "mutate", None),
            ("quotient_embedding.normal_form", qe.QuotientContext, "normal_form",
             None),
            ("quotient_embedding.group_mutate_seed", qe, "group_mutate_seed", None),
            ("quotient_embedding.product_formula_check", qe,
             "product_formula_check", None),
            ("quotient_embedding.entry", qe, "embedding_check", None),
            ("quotient_embedding.entry", qe, "product_formula_suite", None),
            ("quotient_embedding.entry", qe, "subquotient_check", None),
            ("root_adjoin.tau_tilde", ra, "tau_tilde", None),
            ("root_adjoin.homogeneity_check", ra, "homogeneity_check", None),
        )

    def install(self):
        """Wrap every target wherever the library binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "gencluster" or name.startswith("gencluster."))
        ]
        for name, owner, attr, hook in self.targets():
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                self._patch(owner, attr, self._wrapper(name, original, hook))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrapper(name, original, hook)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original function back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report ------------------------------------------------------------

    def counts(self):
        """Exact work counts of the pass (no times)."""
        out = {f"{name}.calls": self.stat(name).calls for name, *_ in self.targets()}
        for name, keys in COUNTERS.items():
            for key in keys:
                out[f"{name}.{key}"] = self.stat(name).counters.get(key, 0)
        out["laurent_kernel.max_terms"] = self.max_terms
        out["laurent_kernel.max_coeff_bits"] = self.max_coeff_bits
        for name, lineage in self.lineages.items():
            out[f"{name}.useful_ratio"] = lineage.ratio()
        out["cli_io.cases"] = self.stat(DRIVER).counters.get("cases", 0)
        return out

    def self_times(self):
        """Self time per span name, per layer, and of the driver around the layers."""
        out = {f"{name}.self_s": self.stat(name).self_s for name, *_ in self.targets()}
        for layer in LAYERS:
            spans = [s for name, s in self.stats.items() if name.startswith(layer + ".")]
            out[f"{layer}.self_s"] = sum((s.self_s for s in spans), 0.0)
        out[f"{DRIVER}.self_s"] = self.stat(DRIVER).self_s
        return out


#: Units of the per-layer metrics by name suffix.
UNITS = {
    "calls": "count",
    "self_s": "s",
    "quotient_terms": "count",
    "elim_products": "count",
    "inexact": "count",
    "term_products": "count",
    "terms_in": "count",
    "max_terms": "count",
    "max_coeff_bits": "bits",
    "useful_ratio": "ratio",
    "cases": "count",
    "self_share": "ratio",
    "overhead_s": "s",
    "verdict_s": "s",
}


def per_layer_metrics(counts, pass_self_times, traced_passes, untraced_passes):
    """Per-layer metrics of a traced run.

    ``counts`` are one pass's exact counts (identical on every pass);
    self times are medians over the traced passes.  Shares divide a
    self time by the median traced pass time, so the shares of the
    layers and the driver sum to one less the share of the counting
    hooks.  The traced and untraced pass times, and so the overhead,
    are at the nominal host speed, like ``verdict_s`` of an untraced run.
    """
    metrics = dict(counts)
    names = pass_self_times[0].keys()
    medians = {
        name: statistics.median(times[name] for times in pass_self_times)
        for name in names
    }
    metrics.update(medians)
    traced_raw = statistics.median(p.verdict_s for p in traced_passes)
    for layer in LAYERS + (DRIVER,):
        metrics[f"{layer}.self_share"] = medians[f"{layer}.self_s"] / traced_raw
    metrics["laurent_kernel.poly_exact_div.self_share"] = (
        medians["laurent_kernel.poly_exact_div.self_s"] / traced_raw
    )
    traced = statistics.median(p.normalized_s for p in traced_passes)
    untraced = statistics.median(p.normalized_s for p in untraced_passes)
    metrics["tracing.traced.verdict_s"] = traced
    metrics["tracing.untraced.verdict_s"] = untraced
    metrics["tracing.overhead_s"] = traced - untraced
    return {
        name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[1]]}
        for name, value in metrics.items()
    }
