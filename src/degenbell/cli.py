"""Command-line front end: tables, polynomial queries, series, verification.

Subcommands:

  table    render a family table up to a bound
  poly     print a single family polynomial
  series   dump the EGF coefficients of a named generating function
  verify   check one identity (or all) and report pass/fail per cell
  limit    pair each degenerate family with its l = 0 classical limit

All numbers are exact rationals; the deformation parameter is spelled
``l`` on the command line, and ``verify --bind`` applies in either mode.
Exit codes: 0 success / all cells pass, 1 identity or limit violation,
2 usage error or failed ``--output`` write.  Identical invocations produce
identical bytes.  The only environment knob is DEGENBELL_WIDTH, a width
hint for wrapping long polynomials in text output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import textwrap
from fractions import Fraction

from .algebra import Poly, Var, parse_rational, var_from_symbol
from .sequences import TABLE_KINDS, build_table, classical_counterpart, stirling2_deg
from .series import DEFAULT_ORDER, Series, deg_exp_of, exp_of
from .verify import Identity, run_identity

LIMIT_KINDS = (
    "deg-stirling2",
    "deg-bell",
    "fully-deg-bell",
    "deg-fubini",
    "two-var-deg-fubini",
    "deg-falling-factorial",
)


def _bind_pair(text: str) -> tuple[Var, Fraction]:
    try:
        name, _, raw = text.partition("=")
        return var_from_symbol(name.strip()), parse_rational(raw.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenbell",
        description="Exact tables and identity checks for degenerate Bell/Fubini families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json", "csv"), bind=True):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="write to this path instead of stdout")
        if bind:
            p.add_argument(
                "--bind",
                action="append",
                default=[],
                type=_bind_pair,
                metavar="VAR=RAT",
                help="bind a variable (l, x, y, t) to an exact rational, e.g. l=1/2",
            )

    p_table = sub.add_parser("table", help="render a family table")
    p_table.add_argument("--kind", choices=TABLE_KINDS, required=True)
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--k-max", type=int, help="cap the column index of triangular kinds")
    p_table.add_argument("--alpha", type=int, default=1, help="order for two-var-deg-fubini")
    add_common(p_table)

    p_poly = sub.add_parser("poly", help="print one family polynomial")
    p_poly.add_argument("--kind", choices=TABLE_KINDS, required=True)
    p_poly.add_argument("-n", type=int, required=True)
    p_poly.add_argument("-k", type=int, help="second index for triangular kinds")
    p_poly.add_argument("--alpha", type=int, default=1)
    add_common(p_poly, formats=("text", "json"))

    p_series = sub.add_parser("series", help="dump EGF coefficients")
    p_series.add_argument(
        "--gf",
        required=True,
        metavar="NAME",
        help="one of deg-exp, deg-bell, fully-deg-bell, deg-fubini, two-var-fubini:<alpha>",
    )
    p_series.add_argument("--order", type=int, default=DEFAULT_ORDER)
    add_common(p_series, formats=("text", "json"))

    p_verify = sub.add_parser("verify", help="check identities")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", choices=[i.value for i in Identity], dest="identity")
    group.add_argument("--all", action="store_true", help="run every identity")
    p_verify.add_argument("--n-max", type=int, default=6)
    p_verify.add_argument("--m-max", type=int, default=6)
    p_verify.add_argument("--mode", choices=("symbolic", "rational"), default="symbolic")
    add_common(p_verify, formats=("text", "json"))

    p_limit = sub.add_parser("limit", help="compare l = 0 limits against classical families")
    p_limit.add_argument("--kind", choices=LIMIT_KINDS, required=True)
    p_limit.add_argument("--n-max", type=int, default=8)
    p_limit.add_argument("--alpha", type=int, default=1)
    add_common(p_limit, bind=False)  # the limit is l = 0; nothing else is bound

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"degenbell: error: cannot write {output}: {exc.strerror or exc}\n")
            sys.exit(2)
    else:
        sys.stdout.write(text)


def _wrap_width() -> int:
    raw = os.environ.get("DEGENBELL_WIDTH", "")
    try:
        return max(int(raw), 20)
    except ValueError:
        return 100


def _wrap_line(line: str) -> str:
    width = _wrap_width()
    if len(line) <= width:
        return line
    return "\n".join(textwrap.wrap(line, width=width, subsequent_indent="    "))


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _apply_bindings(table, bindings):
    if not bindings:
        return table
    bound = dict(bindings)
    values = tuple((index, poly.eval(bound)) for index, poly in table.values)
    return type(table)(table.kind, table.bounds, table.provenance, values)


def _table_text(table) -> str:
    lines = []
    for index, poly in table.values:
        label = f"n={index[0]}" + (f" k={index[1]}" if len(index) > 1 else "")
        lines.append(_wrap_line(f"{label}: {poly}"))
    return "\n".join(lines) + "\n"


def _cmd_table(args, parser) -> int:
    try:
        table = build_table(args.kind, args.n_max, k_max=args.k_max, alpha=args.alpha)
    except ValueError as exc:
        parser.error(str(exc))
    table = _apply_bindings(table, args.bind)
    if args.format == "json":
        _emit(json.dumps(table.to_json(), indent=2) + "\n", args.output)
    elif args.format == "csv":
        _emit(_csv_text(table.to_csv_rows()), args.output)
    else:
        _emit(_table_text(table), args.output)
    return 0


def _cmd_poly(args, parser) -> int:
    from . import classical

    kind, n = args.kind, args.n
    if n < 0:
        parser.error("n must be nonnegative")
    if kind in ("deg-stirling2", "classical-stirling2"):
        if args.k is None:
            parser.error(f"kind {kind} needs -k")
        poly = (
            stirling2_deg(n, args.k)
            if kind == "deg-stirling2"
            else Poly.const(classical.stirling2(n, args.k))
        )
    else:
        if args.k is not None:
            parser.error(f"-k applies only to triangular kinds, not {kind}")
        table = build_table(kind, n, alpha=args.alpha)
        poly = table.values[-1][1]
    poly = poly.eval(dict(args.bind))
    if args.format == "json":
        _emit(json.dumps(poly.to_json(), indent=2) + "\n", args.output)
    else:
        _emit(_wrap_line(str(poly)) + "\n", args.output)
    return 0


def _named_series(name: str, order: int) -> Series:
    x = Poly.variable(Var.X)
    if name == "deg-exp":
        return Series.deg_exp(1, order)
    em1 = Series.deg_exp(1, order) - Series.unit(order)
    if name == "deg-bell":
        return exp_of(x * em1)
    if name == "fully-deg-bell":
        return deg_exp_of(x * em1)
    if name == "deg-fubini":
        return (Series.unit(order) - x * em1).reciprocal()
    if name.startswith("two-var-fubini:"):
        alpha = int(name.split(":", 1)[1])
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        recip = (Series.unit(order) - x * em1).reciprocal()
        return recip.int_pow(alpha) * Series.deg_exp(Poly.variable(Var.Y), order)
    raise ValueError(f"unknown generating function {name!r}")


def _cmd_series(args, parser) -> int:
    try:
        series = _named_series(args.gf, args.order)
    except ValueError as exc:
        parser.error(str(exc))
    if args.bind:
        series = Series([c.eval(dict(args.bind)) for c in series.coeffs])
    if args.format == "json":
        _emit(json.dumps(series.to_json(), indent=2) + "\n", args.output)
    else:
        lines = [_wrap_line(f"{n}: {series.coeff(n)}") for n in range(series.order + 1)]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _report_text(report) -> str:
    lines = [
        f"identity: {report.identity.value}",
        f"grid: {len(report.grid)}  pass: {report.pass_count}  fail: {report.fail_count}",
    ]
    if report.first_counterexample is not None:
        ce = report.first_counterexample
        cell = " ".join(f"{k}={v}" for k, v in ce.bindings.items())
        lines.append(f"first counterexample: {cell}")
        lines.append(_wrap_line(f"  lhs: {ce.lhs}"))
        lines.append(_wrap_line(f"  rhs: {ce.rhs}"))
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    identities = list(Identity) if args.all else [Identity(args.identity)]
    reports = [
        run_identity(ident, args.n_max, args.m_max, mode=args.mode, bindings=args.bind)
        for ident in identities
    ]
    if args.format == "json":
        payload = [r.to_json() for r in reports]
        _emit(json.dumps(payload[0] if not args.all else payload, indent=2) + "\n", args.output)
    else:
        _emit("".join(_report_text(r) for r in reports), args.output)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_limit(args) -> int:
    degenerate = build_table(args.kind, args.n_max, alpha=args.alpha)
    reference = classical_counterpart(args.kind, args.n_max, alpha=args.alpha)
    rows = []
    all_match = True
    for (index, poly), (_, ref) in zip(degenerate.values, reference.values):
        at_zero = poly.eval({Var.LAMBDA: 0})
        match = at_zero == ref
        all_match = all_match and match
        rows.append((index, at_zero, ref, match))
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "n_max": args.n_max,
            "all_match": all_match,
            "rows": [
                {
                    "n": index[0],
                    **({"k": index[1]} if len(index) > 1 else {}),
                    "limit": str(at_zero),
                    "classical": str(ref),
                    "match": match,
                }
                for index, at_zero, ref, match in rows
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        triangular = any(len(index) > 1 for index, *_ in rows)
        header = (["n", "k"] if triangular else ["n"]) + ["limit", "classical", "match"]
        body = [
            [str(i) for i in index] + [str(at_zero), str(ref), str(match).lower()]
            for index, at_zero, ref, match in rows
        ]
        _emit(_csv_text([header] + body), args.output)
    else:
        lines = []
        for index, at_zero, ref, match in rows:
            label = f"n={index[0]}" + (f" k={index[1]}" if len(index) > 1 else "")
            status = "ok" if match else "MISMATCH"
            lines.append(_wrap_line(f"{label}: {at_zero} | classical: {ref} | {status}"))
        lines.append("all rows match" if all_match else "LIMIT MISMATCH")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if all_match else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for attr in ("n_max", "m_max", "k_max", "alpha", "order"):
        value = getattr(args, attr, None)
        if value is not None and value < 0:
            parser.error(f"--{attr.replace('_', '-')} must be nonnegative")
    if hasattr(args, "bind"):  # limit takes no --bind
        args.bind = dict(args.bind)
    if args.command == "table":
        return _cmd_table(args, parser)
    if args.command == "poly":
        return _cmd_poly(args, parser)
    if args.command == "series":
        return _cmd_series(args, parser)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "limit":
        return _cmd_limit(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
