"""Spans and counters around the public entry points of each holring layer.

The tracer lives entirely in the benchmark: it replaces the entry points
listed in TARGETS with thin wrappers, in every holring module namespace
that holds them (``from .x import f`` binds a second name for the same
function), and puts the originals back on ``restore``.  Spans are kept in
memory as ``[name, parent, start, end]`` rows with a parent stack, so
self time can be computed from the tree afterwards.  Counter-only targets
record a call count and no span.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

MODULES = (
    "groups", "cyclotomic", "chartable", "groupring", "lattice", "blocks",
    "rednorm", "dt", "reports", "verify", "cli",
)

_FAMILY_BUILDERS = (
    "cyclic", "dihedral", "symmetric", "alternating", "quaternion", "affine",
    "inversion", "metacyclic", "frob72", "direct_product", "from_generators",
    "from_spec",
)

# (defining module, attribute path, span name, kind); kind is "span" or "count"
TARGETS = (
    [("groups", f, "groups.build", "span") for f in _FAMILY_BUILDERS]
    + [
        ("groups", "FiniteGroup.classes", "groups.classes", "span"),
        ("cyclotomic", "CycloNum.minimal", "cyclotomic.minimal", "span"),
        ("cyclotomic", "CycloNum.galois", "cyclotomic.galois", "count"),
        ("chartable", "character_table", "chartable.character_table", "span"),
        ("groupring", "GroupRingElem.__mul__", "groupring.elem_mul", "span"),
        ("groupring", "GroupRingMatrix.__mul__", "groupring.matrix_mul", "span"),
        ("groupring", "CentralElement.to_class_coords", "groupring.to_class_coords", "span"),
        ("rednorm", "reduced_char_polys", "rednorm.reduced_char_polys", "span"),
        ("rednorm", "adjoint_and_norm", "rednorm.adjoint_and_norm", "span"),
        ("rednorm", "norm_ideal_probe", "rednorm.norm_ideal_probe", "span"),
        ("rednorm", "maximal_center_lattice", "rednorm.maximal_center_lattice", "span"),
        ("lattice", "PLattice.from_generators", "lattice.from_generators", "span"),
        ("blocks", "padic_blocks", "blocks.padic_blocks", "span"),
        ("blocks", "central_conductor", "blocks.central_conductor", "span"),
        ("dt", "dt_query", "dt.dt_query", "span"),
        ("reports", "conjecture_report", "reports.conjecture_report", "span"),
        ("verify", "regular_det", "verify.regular_det", "span"),
        ("cli", "main", "cli.main", "span"),
    ]
)

# per-layer metric -> (aggregate, span or counter name); aggregates are
# "incl" (outermost spans of the name), "self" (minus child spans) and "calls"
SPAN_METRICS = {
    "groups.build_s": ("incl", "groups.build"),
    "groups.classes_s": ("incl", "groups.classes"),
    "cyclotomic.minimal_calls": ("calls", "cyclotomic.minimal"),
    "cyclotomic.minimal_s": ("incl", "cyclotomic.minimal"),
    "cyclotomic.galois_calls": ("count", "cyclotomic.galois"),
    "chartable.character_table_s": ("self", "chartable.character_table"),
    "chartable.tables_built": ("count", "chartable.tables_built"),
    "groupring.elem_mul_calls": ("calls", "groupring.elem_mul"),
    "groupring.elem_mul_s": ("incl", "groupring.elem_mul"),
    "groupring.matrix_mul_calls": ("calls", "groupring.matrix_mul"),
    "groupring.matrix_mul_s": ("incl", "groupring.matrix_mul"),
    "groupring.to_class_coords_calls": ("calls", "groupring.to_class_coords"),
    "groupring.to_class_coords_s": ("incl", "groupring.to_class_coords"),
    "rednorm.reduced_char_polys_s": ("incl", "rednorm.reduced_char_polys"),
    "rednorm.adjoint_and_norm_s": ("self", "rednorm.adjoint_and_norm"),
    "rednorm.norm_ideal_probe_s": ("self", "rednorm.norm_ideal_probe"),
    "rednorm.maximal_center_lattice_s": ("incl", "rednorm.maximal_center_lattice"),
    "lattice.from_generators_s": ("incl", "lattice.from_generators"),
    "lattice.generator_rows": ("count", "lattice.generator_rows"),
    "blocks.padic_blocks_s": ("incl", "blocks.padic_blocks"),
    "blocks.central_conductor_s": ("incl", "blocks.central_conductor"),
    "dt.dt_query_s": ("incl", "dt.dt_query"),
    "reports.conjecture_report_s": ("incl", "reports.conjecture_report"),
    "verify.regular_det_s": ("incl", "verify.regular_det"),
    "cli.main_s": ("self", "cli.main"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = Counter()
        self.paused = False
        self._saved = []  # (owner, attribute, original object)

    # -- recording ------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooked(self, name, fn):
        """Wrappers for targets that also feed a ratio counter."""
        traced = self._span(name, fn)
        counts = self.counts
        if name == "chartable.character_table":

            def wrapper(group, method="auto"):
                if not self.paused:
                    hit = ("chartable", method) in group._cache
                    counts["chartable.cache_hits" if hit else "chartable.tables_built"] += 1
                return traced(group, method)

        elif name == "groupring.elem_mul":

            def wrapper(a, b):
                if not self.paused and (
                    _has_fraction(a.coeffs)
                    or isinstance(b, Fraction)
                    or _has_fraction(getattr(b, "coeffs", ()))
                ):
                    counts["groupring.fraction_operand_calls"] += 1
                return traced(a, b)

        elif name == "lattice.from_generators":

            def wrapper(p, dim, generators):
                generators = list(generators)
                out = traced(p, dim, generators)
                if not self.paused:
                    counts["lattice.generator_rows"] += sum(1 for v in generators if any(v))
                    counts["lattice.rank_sum"] += out.rank
                return out

        else:
            return traced
        return wrapper

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every target in every loaded holring namespace holding it."""
        mods = {m: importlib.import_module(f"holring.{m}") for m in MODULES}
        for mod_name, path, name, kind in TARGETS:
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._count(name, fn) if kind == "count" else self._hooked(name, fn)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            if outer:
                self._replace(owner, attr, raw, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("holring") and mod.__dict__.get(attr) is fn:
                    self._replace(mod, attr, fn, wrapped)

    def _replace(self, owner, attr, original, wrapped):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path, **header):
        """One JSON header line (counters plus ``header``), then one line per span."""
        with open(path, "w") as fh:
            json.dump({"counts": dict(self.counts), **header}, fh)
            fh.write("\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")

    def totals(self):
        return span_totals(self.spans, self.counts)


def _has_fraction(coeffs):
    return any(type(c) is Fraction for c in coeffs)


def span_totals(spans, counts=()):
    """Aggregate span rows into {"incl|self|calls|count:name": value}.

    incl sums only outermost spans of a name, so recursion is not counted
    twice; self subtracts the time covered by direct child spans.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = Counter()
    for i, (name, parent, start, end) in enumerate(spans):
        dur = end - start
        out[f"calls:{name}"] += 1
        out[f"self:{name}"] += dur - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            out[f"incl:{name}"] += dur
    for name, value in dict(counts).items():
        out[f"count:{name}"] += value
    return out


def layer_metrics(totals, import_times=()):
    """Per-layer metrics from summed span totals (see SPAN_METRICS)."""
    metrics = {
        key: float(totals.get(f"{agg}:{name}", 0)) for key, (agg, name) in SPAN_METRICS.items()
    }
    built = totals.get("count:chartable.tables_built", 0)
    hits = totals.get("count:chartable.cache_hits", 0)
    metrics["chartable.table_cache_hit_ratio"] = _ratio(hits, hits + built)
    metrics["groupring.fraction_operand_ratio"] = _ratio(
        totals.get("count:groupring.fraction_operand_calls", 0),
        totals.get("calls:groupring.elem_mul", 0),
    )
    metrics["lattice.useful_ratio"] = _ratio(
        totals.get("count:lattice.rank_sum", 0), totals.get("count:lattice.generator_rows", 0)
    )
    metrics["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0
