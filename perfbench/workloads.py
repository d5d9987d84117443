"""The benchmark's workloads: CLI command lists and the checks on their output.

Each workload is one pass of CLI commands, run the way a user runs them.
The checks never trust a count the program reports about itself: grid
sizes, row counts and classical reference values are worked out here.

verify-symbolic
    ``verify --all`` on a 5x5 grid in symbolic mode, the paper's main use.
    Ten identities share the functools memos of one process.  Loads the
    ``Poly`` kernel (mul, add, ``__init__``), ``substitute``, the family
    builders and ``classical``; ``series`` only through exp-splitting.
    No ``--bind``: symbolic mode drops a binding without saying so today.

verify-rational
    ``verify --all --mode rational`` on a 4x4 grid over the default spot
    grid, plus three single identities on a 5x5 grid at seed-drawn
    ``--bind`` points.
    ``Poly.eval`` is busy and the uncached side builders are rebuilt on
    every binding pass.  The points are rationals of height exactly 3, so
    cost does not depend on the seed.

The verify grids are sized so that no command takes much over a second
on a 2-core host: a shared host slows in bursts that the calibrations
around a longer command miss, and short commands give a run many
samples, whose calibrated median is what it reports (see run.py).

tables-series
    Large exact dumps: a 1891-entry degenerate Stirling table, two EGF
    dumps whose coefficients must equal the matching closed-form tables,
    and an l -> 0 limit against the classical Bell polynomials.  This is
    where ``series`` (reciprocal, int_pow, Series.__mul__, the dividing
    ``deg_exp_of``) and ``Poly`` rendering of MB-sized output do the work;
    ``verify`` does nothing.  Table sizes stay far below the n ~ 1000
    recursion depth of the memoized row builders.

No command uses ``--output``: a failed write there ends in a traceback.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

IDENTITIES = (
    "spivey-bell",
    "spivey-bell-poly",
    "deg-bell-spivey",
    "fully-deg-bell",
    "fully-deg-bell-poly",
    "deg-fubini-spivey",
    "fubini-spivey",
    "deg-vandermonde",
    "exp-splitting",
    "fubini-x-zero",
)

# Points in each identity's default rational spot grid: l ranges over four
# values and each of x, y, t over three (documented in degenbell.verify).
SPOT_POINTS = {
    "spivey-bell": 1,
    "spivey-bell-poly": 3,
    "deg-bell-spivey": 4 * 3,
    "fully-deg-bell": 4,
    "fully-deg-bell-poly": 4 * 3,
    "deg-fubini-spivey": 4 * 3,
    "fubini-spivey": 3,
    "deg-vandermonde": 4 * 3 * 3,
    "exp-splitting": 4,
    "fubini-x-zero": 4 * 3,
}

# Every reduced p/q with max(|p|, q) = 3: equal height keeps the cost of a
# bound pass independent of which points the seed draws.
HEIGHT_3 = ("3", "-3", "1/3", "-1/3", "2/3", "-2/3", "3/2", "-3/2")

Output = tuple[int, str]  # (exit code, stdout text) of one command
Check = Callable[[list[Output]], list[str | None]]


@dataclass(frozen=True)
class Workload:
    """One pass of commands, its correctness check and its negative control.

    ``check`` returns one error message (or None) per command.
    ``corrupt`` returns a copy of good outputs with one planted defect that
    ``check`` must report.  ``items`` counts the verified cells or emitted
    polynomial entries of one pass.  ``layers`` names the traced layers that
    must show calls on this workload.
    """

    name: str
    commands: tuple[tuple[str, ...], ...]
    items: int
    check: Check
    corrupt: Callable[[list[Output]], list[Output]]
    layers: tuple[str, ...]


def _grid_size(identity: str, n_max: int, m_max: int, points: int) -> int:
    if identity == "deg-vandermonde":
        cells = n_max + 1
    elif identity == "fubini-x-zero":
        cells = 2 * (n_max + 1) * (m_max + 1)
    else:
        cells = (n_max + 1) * (m_max + 1)
    return cells * points


def _verify_command(ident, n_max, m_max, mode, binds=()):
    argv = ["verify"] + (["--all"] if ident is None else ["--id", ident])
    argv += ["--n-max", str(n_max), "--m-max", str(m_max), "--mode", mode]
    for bind in binds:
        argv += ["--bind", bind]
    return tuple(argv + ["--format", "json"])


def _check_reports(text: str, expected: list[tuple[str, int]], single: bool) -> str | None:
    reports = json.loads(text)
    if single:
        reports = [reports]
    got = [(r["identity"], r["grid_size"]) for r in reports]
    if got != expected:
        return f"identities/grid sizes {got} != expected {expected}"
    for r in reports:
        if r["fail"] != 0 or r["pass"] != r["grid_size"] or r["first_counterexample"]:
            return f"{r['identity']}: pass {r['pass']} fail {r['fail']}"
    return None


def _verify_workload(name, specs, layers) -> Workload:
    """specs: (identity or None for --all, n_max, m_max, mode, binds) per command."""
    commands, expectations = [], []
    for ident, n_max, m_max, mode, binds in specs:
        commands.append(_verify_command(ident, n_max, m_max, mode, binds))
        idents = IDENTITIES if ident is None else (ident,)
        expectations.append(
            [
                (i, _grid_size(i, n_max, m_max, SPOT_POINTS[i] if mode == "rational" and not binds else 1))
                for i in idents
            ]
        )

    def check(outputs):
        errors = []
        for (rc, text), expected, spec in zip(outputs, expectations, specs):
            if rc != 0:
                errors.append(f"exit code {rc}")
                continue
            try:
                errors.append(_check_reports(text, expected, single=spec[0] is not None))
            except (ValueError, KeyError, TypeError) as exc:
                errors.append(f"unreadable report: {exc!r}")
        return errors

    def corrupt(outputs):
        # one cell of the first report turned from pass to fail
        rc, text = outputs[0]
        reports = json.loads(text)
        first = reports[0] if isinstance(reports, list) else reports
        first["pass"] -= 1
        first["fail"] += 1
        return [(rc, json.dumps(reports, indent=2) + "\n")] + outputs[1:]

    items = sum(size for expected in expectations for _, size in expected)
    return Workload(name, tuple(commands), items, check, corrupt, layers)


VERIFY_LAYERS = (
    "algebra.mul",
    "algebra.add",
    "algebra.init",
    "algebra.substitute",
    "series.splitting",
    "sequences.stirling2_deg",
    "sequences.families",
    "sequences.factorials",
    "classical",
    "verify.run_identity",
    "cli",
)


def verify_symbolic(seed: int) -> Workload:
    # A fixed grid: the seed has nothing to vary here.
    return _verify_workload("verify-symbolic", [(None, 5, 5, "symbolic", ())], VERIFY_LAYERS)


def verify_rational(seed: int) -> Workload:
    rng = random.Random(seed)
    l1, l2, t2, l3, x3 = (rng.choice(HEIGHT_3) for _ in range(5))
    specs = [
        (None, 4, 4, "rational", ()),
        ("fully-deg-bell", 5, 5, "rational", (f"l={l1}",)),
        ("deg-fubini-spivey", 5, 5, "rational", (f"l={l2}", f"t={t2}")),
        ("deg-bell-spivey", 5, 5, "rational", (f"l={l3}", f"x={x3}")),
    ]
    return _verify_workload("verify-rational", specs, VERIFY_LAYERS + ("algebra.eval",))


# -- tables-series ------------------------------------------------------------

STIRLING_N = 60
FUBINI_ORDER = 20
BELL_ORDER = 16
LIMIT_N = 40


def _classical_stirling_rows(n_max: int) -> list[list[int]]:
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] + k * prev[k] for k in range(1, n + 1)])
    return rows


def _bell_poly_text(row: list[int]) -> str:
    """phi_n(x) = sum_k S(n,k) x^k in the CLI's ascending-degree rendering."""
    if len(row) == 1:
        return "1"
    terms = []
    for k, c in enumerate(row):
        if k == 0 or not c:
            continue
        mono = "x" if k == 1 else f"x^{k}"
        terms.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(terms)


def _check_stirling_table(text: str) -> str | None:
    table = json.loads(text)
    classical = _classical_stirling_rows(STIRLING_N)
    want = [(n, k) for n in range(STIRLING_N + 1) for k in range(n + 1)]
    got = [(row["n"], row["k"]) for row in table["values"]]
    if got != want:
        return f"deg-stirling2 indices differ from the n <= {STIRLING_N} triangle"
    for row in table["values"]:
        n, k = row["n"], row["k"]
        at_zero = sum(Fraction(t["c"]) for t in row["poly"] if not t["m"])
        if set().union(*(t["m"] for t in row["poly"])) - {"l"}:
            return f"S2_l({n},{k}) has a variable other than l"
        if at_zero != classical[n][k]:
            return f"S2_l({n},{k}) at l=0 is {at_zero}, classical S({n},{k}) = {classical[n][k]}"
    return None


def _check_series_vs_table(series_text: str, table_text: str, order: int) -> str | None:
    series = json.loads(series_text)
    table = json.loads(table_text)
    coeffs = series["egf_coeffs"]
    if series["order"] != order or len(coeffs) != order + 1:
        return f"series order {series['order']} with {len(coeffs)} coefficients, want {order}"
    polys = [row["poly"] for row in table["values"]]
    if [row["n"] for row in table["values"]] != list(range(order + 1)):
        return "table rows are not n = 0..order"
    for n, (a, b) in enumerate(zip(coeffs, polys)):
        if a != b:
            return f"EGF coefficient {n} differs from the closed-form table"
    return None


def _check_limit(text: str) -> str | None:
    lines = text.rstrip("\n").split("\n")
    if lines[-1] != "all rows match":
        return f"last line {lines[-1]!r}"
    rows = []
    for line in lines[:-1]:  # wrapped rows continue on lines indented by four spaces
        if line.startswith("    ") and rows:
            rows[-1] += " " + line.strip()
        else:
            rows.append(line)
    classical = _classical_stirling_rows(LIMIT_N)
    if len(rows) != LIMIT_N + 1:
        return f"{len(rows)} limit rows, want {LIMIT_N + 1}"
    for n, row in enumerate(rows):
        want = _bell_poly_text(classical[n])
        if row != f"n={n}: {want} | classical: {want} | ok":
            return f"limit row {n} is not phi_{n}(x) on both sides"
    return None


def tables_series(seed: int) -> Workload:
    # Fixed sizes: the seed has nothing to vary here.
    commands = (
        ("table", "--kind", "deg-stirling2", "--n-max", str(STIRLING_N), "--format", "json"),
        ("series", "--gf", "two-var-fubini:2", "--order", str(FUBINI_ORDER), "--format", "json"),
        ("table", "--kind", "two-var-deg-fubini", "--alpha", "2", "--n-max", str(FUBINI_ORDER), "--format", "json"),
        ("series", "--gf", "fully-deg-bell", "--order", str(BELL_ORDER), "--format", "json"),
        ("table", "--kind", "fully-deg-bell", "--n-max", str(BELL_ORDER), "--format", "json"),
        ("limit", "--kind", "fully-deg-bell", "--n-max", str(LIMIT_N)),
    )

    def check(outputs):
        errors: list[str | None] = [f"exit code {rc}" if rc else None for rc, _ in outputs]
        texts = [text for _, text in outputs]
        checks = [
            (0, lambda: _check_stirling_table(texts[0])),
            (1, lambda: _check_series_vs_table(texts[1], texts[2], FUBINI_ORDER)),
            (3, lambda: _check_series_vs_table(texts[3], texts[4], BELL_ORDER)),
            (5, lambda: _check_limit(texts[5])),
        ]
        for index, run in checks:
            if errors[index] is None:
                try:
                    errors[index] = run()
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    errors[index] = f"unreadable output: {exc!r}"
        return errors

    def corrupt(outputs):
        # one EGF coefficient of the two-var Fubini series off by one
        rc, text = outputs[1]
        series = json.loads(text)
        term = series["egf_coeffs"][FUBINI_ORDER // 2][0]
        term["c"] = str(Fraction(term["c"]) + 1)
        return outputs[:1] + [(rc, json.dumps(series, indent=2) + "\n")] + outputs[2:]

    triangle = (STIRLING_N + 1) * (STIRLING_N + 2) // 2
    items = triangle + 2 * (FUBINI_ORDER + 1) + 2 * (BELL_ORDER + 1) + LIMIT_N + 1
    layers = (
        "algebra.mul",
        "algebra.add",
        "algebra.init",
        "algebra.eval",
        "algebra.render",
        "series.mul",
        "series.reciprocal",
        "series.int_pow",
        "series.exp_of",
        "sequences.stirling2_deg",
        "sequences.families",
        "sequences.factorials",
        "sequences.build_table",
        "classical",
        "cli",
    )
    return Workload("tables-series", commands, items, check, corrupt, layers)


WORKLOADS = {
    "verify-symbolic": verify_symbolic,
    "verify-rational": verify_rational,
    "tables-series": tables_series,
}
