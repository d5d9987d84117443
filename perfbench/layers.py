"""In-process traced run: per-layer calls, self time and memo counters.

The wrappers live here, not in the program.  Each one is installed under
every name that refers to the wrapped object: the class attribute for
``Poly``/``Series`` methods, and every module namespace of the package for
functions, because ``verify``, ``cli`` and ``__init__`` bind them with
``from ... import``.  Everything is restored when the run ends.

A layer's self time is its calls' wall time minus the time of wrapped
calls made inside them.  The kernel takes hundreds of thousands of calls
per pass, so calls are aggregated per wrapped function and per layer; only
commands and identities are kept as individual spans.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
import tracemalloc
from fractions import Fraction

from workloads import IDENTITIES

# layer -> (module, names) of the functions it covers; "Poly."/"Series."
# names are methods patched on the class
LAYERS = {
    "algebra.init": ("algebra", ("Poly.__init__",)),
    "algebra.add": ("algebra", ("Poly.__add__", "Poly.__radd__", "Poly.__sub__", "Poly.__neg__")),
    "algebra.mul": ("algebra", ("Poly.__mul__", "Poly.__rmul__")),
    "algebra.eval": ("algebra", ("Poly.eval",)),
    "algebra.substitute": ("algebra", ("Poly.substitute",)),
    "algebra.render": ("algebra", ("Poly.__str__", "Poly.to_json")),
    "series.mul": ("series", ("Series.__mul__",)),
    "series.reciprocal": ("series", ("Series.reciprocal",)),
    "series.int_pow": ("series", ("Series.int_pow",)),
    "series.exp_of": ("series", ("exp_of", "deg_exp_of")),
    "series.splitting": ("series", ("exp_splitting_sides",)),
    "sequences.stirling2_deg": ("sequences", ("stirling2_deg",)),
    "sequences.families": (
        "sequences",
        ("bell_deg", "bell_fully_deg", "fubini_deg", "fubini_two_var_alpha"),
    ),
    "sequences.factorials": (
        "sequences",
        ("falling_factorial_deg", "falling_factorial", "rising_factorial", "unit_falling_factorial_deg"),
    ),
    "sequences.build_table": ("sequences", ("build_table",)),
    "classical": (
        "classical",
        (
            "stirling2",
            "bell_number",
            "ordered_bell_number",
            "bell_poly",
            "fubini_poly",
            "rising_factorial_int",
            "two_var_fubini_poly",
        ),
    ),
    "verify.run_identity": ("verify", ("run_identity",)),
    "cli": ("cli", ("main",)),
}

MODULES = ("algebra", "series", "sequences", "classical", "verify", "cli")

# The end-to-end metric each layer metric should move, and where; written
# with every traced run so a later change can be checked against it.
PREDICTIONS = {
    "algebra.mul": "cpu_s and wall_s on verify-symbolic, then verify-rational",
    "algebra.add": "cpu_s and wall_s on verify-symbolic, then verify-rational",
    "algebra.init": "cpu_s on verify-symbolic",
    "algebra.eval": "wall_s on verify-rational; about 0 on verify-symbolic",
    "algebra.substitute": "wall_s and cpu_s on verify-symbolic",
    "algebra.render": "wall_s on tables-series; about 0 on the verify workloads",
    "algebra.terms_max": "explains peak_rss_mib",
    "algebra.coeff_bits_max": "explains peak_rss_mib",
    "series": "wall_s on tables-series; about 0 on the verify workloads apart from exp-splitting",
    "sequences": "wall_s on verify-symbolic and tables-series",
    "classical": "wall_s on verify-symbolic only",
    "verify": "wall_s and items_per_s on the verify workloads; 0 on tables-series",
    "cli": "wall_s on tables-series",
    "memo": "wall_s on verify-rational and peak_rss_mib",
}


def _coeff_bits(poly) -> int:
    # _terms is Poly's private term map; read-only use keeps the wrappers cheap
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly._terms.values()),
        default=0,
    )


class Tracer:
    """Aggregates calls, inclusive and self time per wrapped function, plus kernel sizes."""

    def __init__(self, poly_type):
        self.stats: dict[str, list] = {}  # wrapped name -> [calls, inclusive_s, self_s]
        self.layer_of: dict[str, str] = {}
        self.term_products = 0
        self.terms_max = 0
        self.coeff_bits_max = 0
        self.spans: list[dict] = []
        self.command_span: int | None = None
        self.origin = time.perf_counter()
        self._poly = poly_type
        self._stack = [[0.0]]  # time of wrapped children, one slot per open call

    def wrap(self, layer, name, fn, observe=None):
        """A timed stand-in for fn.  observe(args, result) runs outside every
        layer's self time, since it is the tracer's own bookkeeping."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]
            if observe is not None:
                begin = clock()
                observe(args, result)
                stack[-1][0] += clock() - begin
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def observe_result(self, args, result):
        if isinstance(result, self._poly):
            size = len(result._terms)
            if size > self.terms_max:
                self.terms_max = size
            if size:
                bits = _coeff_bits(result)
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits

    def observe_mul(self, args, result):
        a, b = args
        if isinstance(b, self._poly):
            self.term_products += len(a._terms) * len(b._terms)
        elif isinstance(b, (int, Fraction)) and b:
            self.term_products += len(a._terms)
        self.observe_result(args, result)

    def layer_stats(self):
        """[calls, inclusive_s, self_s] summed per layer."""
        totals = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        for name, stat in self.stats.items():
            total = totals[self.layer_of[name]]
            for i, value in enumerate(stat):
                total[i] += value
        return totals

    def identity_span(self, fn):
        """run_identity stand-in that also keeps one span per identity."""
        timed = self.wrap("verify.run_identity", "run_identity", fn)

        def wrapper(identity, *args, **kwargs):
            start = time.perf_counter()
            report = timed(identity, *args, **kwargs)
            self.spans.append(
                {
                    "id": len(self.spans),
                    "parent": self.command_span,
                    "name": f"verify.id.{identity.value}",
                    "start": start - self.origin,
                    "end": time.perf_counter() - self.origin,
                    "cells": len(report.grid),
                }
            )
            return report

        wrapper.__wrapped__ = fn
        return wrapper


class Patches:
    """Installs replacements under every name bound to an object; undoes them."""

    def __init__(self, modules):
        self.modules = modules
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, name, replacement):
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def function(self, original, replacement):
        hits = 0
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    hits += 1
        if not hits:
            raise LookupError(f"{original!r} is bound in no module")

    def restore(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


def distinct_caches(modules):
    """Every functools cache in the package, once per cached function."""
    caches = {}
    for mod in modules:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and callable(
                getattr(value, "cache_info", None)
            ):
                caches[id(value)] = value
    return list(caches.values())


def install(tracer, patches, pkg):
    mods = {name: getattr(pkg, name) for name in MODULES}
    classes = {"Poly": mods["algebra"].Poly, "Series": mods["series"].Series}
    for layer, (module, names) in LAYERS.items():
        observe = None
        if layer == "algebra.mul":
            observe = tracer.observe_mul
        elif layer in ("algebra.add", "algebra.eval", "algebra.substitute"):
            observe = tracer.observe_result
        wrapped = {}  # aliases such as __radd__ = __add__ share one wrapper
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                cls = classes[cls_name]
                original = cls.__dict__[attr]
                if id(original) not in wrapped:
                    wrapped[id(original)] = tracer.wrap(layer, name, original, observe)
                patches.method(cls, attr, wrapped[id(original)])
            else:
                original = getattr(mods[module], name)
                if layer == "verify.run_identity":
                    replacement = tracer.identity_span(original)
                else:
                    replacement = tracer.wrap(layer, name, original)
                patches.function(original, replacement)


def _cold_pass(cli, caches, commands, before=None, after=None):
    """Runs main(argv) for each command with stdout captured, after clearing
    every cache.  Returns ([(exit code, text)], seconds inside main)."""
    outputs, total = [], 0.0
    for argv in commands:
        for fn in caches:
            fn.cache_clear()
        if before is not None:
            before(argv)
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        total += time.perf_counter() - start
        outputs.append((rc, buf.getvalue()))
        if after is not None:
            after(argv)
    return outputs, total


def traced_run(root, workload):
    """Three in-process passes over the workload: plain, with the layer
    wrappers, and under tracemalloc alone (whose own cost would distort
    the layer times).

    Returns (metrics, failed operations, layer-map problems, trace record,
    outputs of the plain pass); the trace record holds the per-function
    aggregates, the command and identity spans and the layer predictions.  Before every command each distinct functools cache is
    cleared, so each command does the work of a cold CLI child and the memo
    counters are per command.
    """
    os.environ.pop("DEGENBELL_WIDTH", None)  # children run without it too
    sys.path.insert(0, os.path.join(root, "src"))
    import degenbell
    import degenbell.cli

    modules = [degenbell] + [getattr(degenbell, name) for name in MODULES]
    caches = distinct_caches(modules)
    cli = degenbell.cli

    plain, plain_s = _cold_pass(cli, caches, workload.commands)

    tracer = Tracer(degenbell.algebra.Poly)
    memo = {"entries": 0, "hits": 0, "misses": 0}

    def open_span(argv):
        tracer.command_span = len(tracer.spans)
        tracer.spans.append(
            {
                "id": tracer.command_span,
                "parent": None,
                "name": "command",
                "argv": list(argv),
                "start": time.perf_counter() - tracer.origin,
            }
        )

    def close_span(argv):
        tracer.spans[tracer.command_span]["end"] = time.perf_counter() - tracer.origin
        for fn in caches:
            info = fn.cache_info()
            memo["entries"] += info.currsize
            memo["hits"] += info.hits
            memo["misses"] += info.misses

    patches = Patches(modules)
    try:
        install(tracer, patches, degenbell)
        traced, traced_s = _cold_pass(cli, caches, workload.commands, open_span, close_span)
    finally:
        patches.restore()

    peaks, base = [], [0]

    def mark(argv):
        tracemalloc.reset_peak()
        base[0] = tracemalloc.get_traced_memory()[0]

    def peak(argv):
        peaks.append(tracemalloc.get_traced_memory()[1] - base[0])

    tracemalloc.start()
    try:
        measured, _ = _cold_pass(cli, caches, workload.commands, mark, peak)
    finally:
        tracemalloc.stop()

    failures = [
        {"pass": "plain", "argv": list(argv), "error": error}
        for argv, error in zip(workload.commands, workload.check(plain))
        if error
    ]
    for name, outputs in (("traced", traced), ("tracemalloc", measured)):
        failures += [
            {"pass": name, "argv": list(argv), "error": "output differs from the plain pass"}
            for argv, a, b in zip(workload.commands, plain, outputs)
            if a != b
        ]
    out_bytes = sum(len(text.encode()) for _, text in plain)

    stats = tracer.layer_stats()
    problems = [f"layer {layer} shows no calls" for layer in workload.layers if not stats[layer][0]]
    id_seconds = {ident: 0.0 for ident in IDENTITIES}
    cells = 0
    for span in tracer.spans:
        if span["name"].startswith("verify.id."):
            id_seconds[span["name"][len("verify.id."):]] += span["end"] - span["start"]
            cells += span["cells"]
    if "verify.run_identity" in workload.layers:
        problems += [f"identity {i} never ran" for i, s in id_seconds.items() if not s]
        if cells != workload.items:
            problems.append(f"verified {cells} cells, expected {workload.items}")

    self_total = sum(stat[2] for stat in stats.values())
    metrics = {
        "algebra.mul.calls": (stats["algebra.mul"][0], "count"),
        "algebra.mul.self_s": (stats["algebra.mul"][2], "s"),
        "algebra.mul.term_products": (tracer.term_products, "count"),
        "algebra.add.calls": (stats["algebra.add"][0], "count"),
        "algebra.add.self_s": (stats["algebra.add"][2], "s"),
        "algebra.init.calls": (stats["algebra.init"][0], "count"),
        "algebra.init.self_s": (stats["algebra.init"][2], "s"),
        "algebra.eval.calls": (stats["algebra.eval"][0], "count"),
        "algebra.eval.self_s": (stats["algebra.eval"][2], "s"),
        "algebra.substitute.calls": (stats["algebra.substitute"][0], "count"),
        "algebra.substitute.self_s": (stats["algebra.substitute"][2], "s"),
        "algebra.render.self_s": (stats["algebra.render"][2], "s"),
        "algebra.terms_max": (tracer.terms_max, "count"),
        "algebra.coeff_bits_max": (tracer.coeff_bits_max, "bits"),
        "series.mul.calls": (stats["series.mul"][0], "count"),
        "series.mul.self_s": (stats["series.mul"][2], "s"),
        "series.reciprocal.self_s": (stats["series.reciprocal"][2], "s"),
        "series.int_pow.self_s": (stats["series.int_pow"][2], "s"),
        "series.exp_of.self_s": (stats["series.exp_of"][2], "s"),
        "series.splitting.self_s": (stats["series.splitting"][2], "s"),
        "sequences.stirling2_deg.calls": (stats["sequences.stirling2_deg"][0], "count"),
        "sequences.stirling2_deg.self_s": (stats["sequences.stirling2_deg"][2], "s"),
        "sequences.families.self_s": (stats["sequences.families"][2], "s"),
        "sequences.factorials.self_s": (stats["sequences.factorials"][2], "s"),
        "sequences.build_table.self_s": (stats["sequences.build_table"][2], "s"),
        "classical.self_s": (stats["classical"][2], "s"),
        "verify.cells": (cells, "count"),
        "verify.run_identity.self_s": (stats["verify.run_identity"][2], "s"),
        **{f"verify.id.{i}.s": (s, "s") for i, s in id_seconds.items()},
        "cli.self_s": (stats["cli"][2], "s"),
        "cli.output_bytes": (out_bytes, "bytes"),
        "memo.entries": (memo["entries"], "count"),
        "memo.hits": (memo["hits"], "count"),
        "memo.misses": (memo["misses"], "count"),
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
        "trace.covered_share": (self_total / traced_s, "ratio"),
        "trace.tracemalloc_peak_mib": (max(peaks) / 2**20, "MiB"),
    }
    record = {
        "plain_s": plain_s,
        "traced_s": traced_s,
        "predictions": PREDICTIONS,
        "functions": {
            name: {"layer": tracer.layer_of[name], "calls": c, "inclusive_s": i, "self_s": t}
            for name, (c, i, t) in tracer.stats.items()
        },
        "spans": tracer.spans,
    }
    return metrics, failures, problems, record, plain
