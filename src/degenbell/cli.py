"""Command-line front end: tables, polynomial queries, series, verification.

Subcommands:

  table    render a family table up to a bound
  poly     print a single family polynomial
  series   dump the EGF coefficients of a named generating function
  verify   check one identity (or all) and report pass/fail per cell
  limit    pair each degenerate family with its l = 0 classical limit

All numbers are exact rationals; the deformation parameter is spelled
``l`` on the command line.  A ``--bind`` must name, at most once, a
variable that the output contains (for ``verify``, one that the identity
contains; it then applies in either mode), or the command exits 2.  Exit
codes: 0 success / all cells pass, 1 identity or limit violation, 2 usage
error or failed write, of ``--output`` or of stdout.  Identical
invocations produce identical bytes, and JSON output is exactly
``json.dumps(data, indent=2)`` of the library's ``to_json()`` data,
although each polynomial in it is written straight from its term map.
The only environment knob is DEGENBELL_WIDTH, a width hint for wrapping
long polynomials in text output.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
from fractions import Fraction
from typing import NoReturn

try:  # the stdlib's C escaper, without loading the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import py_encode_basestring_ascii as _quote

from .algebra import Poly, Var, parse_rational, var_from_symbol
from .sequences import (
    KINDS,
    LIMIT_KINDS,
    TABLE_KINDS,
    build_table,
    classical_counterpart,
    index_names,
)
from .series import DEFAULT_ORDER, Series, deg_exp_of, exp_of
from .verify import Identity, free_vars, run_identity


def _bind_pair(text: str) -> tuple[Var, Fraction]:
    try:
        name, _, raw = text.partition("=")
        return var_from_symbol(name.strip()), parse_rational(raw.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help goes through `_emit`, so a help that
    cannot be written to stdout exits 2 as any other output does (argparse
    would fall back to stderr, or drop a failed write)."""

    def print_help(self, file=None):
        if file is None:
            _emit(self.format_help(), None)
        else:
            super().print_help(file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="degenbell",
        description="Exact tables and identity checks for degenerate Bell/Fubini families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json", "csv"), bind=True):
        # usage errors found after parsing go through the subcommand's parser,
        # so they print its usage line, as argparse's own errors do
        p.set_defaults(_parser=p)
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
    p_table.add_argument("--alpha", type=int, help="order for two-var-deg-fubini (default 1)")
    add_common(p_table)

    p_poly = sub.add_parser("poly", help="print one family polynomial")
    p_poly.add_argument("--kind", choices=TABLE_KINDS, required=True)
    p_poly.add_argument("-n", type=int, required=True)
    p_poly.add_argument("-k", type=int, help="second index for triangular kinds")
    p_poly.add_argument("--alpha", type=int, help="order for two-var-deg-fubini (default 1)")
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
    p_limit.add_argument("--alpha", type=int, help="order for two-var-deg-fubini (default 1)")
    add_common(p_limit, bind=False)  # the limit is l = 0; nothing else is bound

    return parser


def _write_failed(target: str, exc: OSError) -> int:
    """Report on stderr that writing to ``target`` failed; returns exit code 2."""
    try:
        sys.stderr.write(f"degenbell: error: cannot write {target}: {exc.strerror or exc}\n")
    except (AttributeError, OSError):
        pass  # stderr is closed too (None if fd 2 was): the exit code is all that is left
    return 2


def _emit(text: str, output: str | None) -> None:
    try:
        if output:
            with open(output, "w") as fh:
                fh.write(text)
        elif sys.stdout is None:  # the process started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
    except OSError as exc:
        sys.exit(_write_failed(output or "stdout", exc))


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(data, indent=2)``, byte for byte, for the JSON data the CLI
    emits: dicts with str keys, lists, tuples, str, int, bool and None, with
    `Poly` leaves standing for their ``to_json()``.  Anything else, a float
    included, raises TypeError.

    The stdlib encoder runs its C speedup only without an indent; this is
    one recursive pass that appends str pieces to one list, joined once, so
    no level copies the text of the levels below it.  A `Poly` appends its
    terms straight from its term map, so no dict is built per term.
    ``indent`` is the newline and indentation that precede the value's own
    line.
    """
    out: list[str] = []
    _json_parts(obj, indent, out)
    return "".join(out)


def _json_parts(obj, indent: str, out: list[str]) -> None:
    """Append the pieces of `_json_text` (obj, indent) to ``out``."""
    if type(obj) is Poly:
        obj._json_parts(indent, out)
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep, between = "{" + inner, "," + inner
        for key, value in obj.items():
            # _quote raises TypeError for a key that is not a str
            out += (sep, _quote(key), ": ")
            _json_parts(value, inner, out)
            sep = between
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep, between = "[" + inner, "," + inner
        for value in obj:
            out.append(sep)
            _json_parts(value, inner, out)
            sep = between
        out.append(indent + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"not JSON data: {obj!r} ({type(obj).__name__})")


def _emit_json(data, output: str | None) -> None:
    """`_emit` of `_json_text` (data) and a newline, joined in one pass."""
    out: list[str] = []
    _json_parts(data, "\n", out)
    out.append("\n")
    _emit("".join(out), output)


def _poly_leaf(poly: Poly) -> Poly:
    """The ``leaf`` for `to_json` that keeps each `Poly` for `_json_text`."""
    return poly


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
    import textwrap  # loaded only for a line that needs wrapping
    return "\n".join(textwrap.wrap(line, width=width, subsequent_indent="    "))


def _csv_text(rows) -> str:
    import csv  # loaded only for --format csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _check_bindings(parser, bindings, free, where: str) -> None:
    """Exit 2 naming every bound variable not in ``free``, so no --bind is ignored."""
    stray = ", ".join(v.symbol for v in bindings if v not in free)
    if stray:
        parser.error(f"--bind {stray}: no such variable in {where}")


def _apply_bindings(table, bindings):
    if not bindings:
        return table
    bound = dict(bindings)
    values = tuple((index, poly.eval(bound)) for index, poly in table.values)
    return type(table)(table.kind, table.bounds, table.provenance, values)


def _label(index) -> str:
    return " ".join(f"{name}={i}" for name, i in index_names(index).items())


def _table_text(table) -> str:
    lines = [_wrap_line(f"{_label(index)}: {poly}") for index, poly in table.values]
    return "\n".join(lines) + "\n"


def _cmd_table(args, parser) -> int:
    try:
        table = build_table(args.kind, args.n_max, k_max=args.k_max, alpha=args.alpha)
    except ValueError as exc:
        parser.error(str(exc))
    if args.bind:
        free = set().union(*(poly.variables() for _, poly in table.values))
        _check_bindings(parser, args.bind, free, args.kind)
    table = _apply_bindings(table, args.bind)
    if args.format == "json":
        _emit_json(table.to_json(leaf=_poly_leaf), args.output)
    elif args.format == "csv":
        _emit(_csv_text(table.to_csv_rows()), args.output)
    else:
        _emit(_table_text(table), args.output)
    return 0


def _cmd_poly(args, parser) -> int:
    kind, n, k = KINDS[args.kind], args.n, args.k
    if n < 0:
        parser.error("n must be nonnegative")
    if k is not None and k < 0:
        parser.error("-k must be nonnegative")
    if kind.triangular and k is None:
        parser.error(f"kind {kind.name} needs -k")
    if k is not None and not kind.triangular:
        parser.error(f"-k applies only to triangular kinds, not {kind.name}")
    try:
        alpha = kind.order(args.alpha)
    except ValueError as exc:
        parser.error(str(exc))
    index = (n, k) if kind.triangular else (n,)
    poly = kind.build(n, k if kind.triangular else alpha)
    _check_bindings(parser, args.bind, poly.variables(), f"{kind.name} {_label(index)}")
    poly = poly.eval(args.bind)
    if args.format == "json":
        _emit_json(poly, args.output)
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
        raw = name.split(":", 1)[1]
        try:  # what int() takes, as for --alpha
            alpha = int(raw)
        except ValueError:
            alpha = -1
        if alpha < 0:
            raise ValueError(f"two-var-fubini: alpha must be a nonnegative integer, got {raw!r}")
        # (f^alpha)^-1, not (f^-1)^alpha: see the `series` module docstring
        power = (Series.unit(order) - x * em1).int_pow(alpha)
        return power.reciprocal() * Series.deg_exp(Poly.variable(Var.Y), order)
    raise ValueError(f"unknown generating function {name!r}")


def _cmd_series(args, parser) -> int:
    try:
        series = _named_series(args.gf, args.order)
    except ValueError as exc:
        parser.error(str(exc))
    if args.bind:
        free = set().union(*(c.variables() for c in series.coeffs))
        _check_bindings(parser, args.bind, free, args.gf)
        series = Series([c.eval(args.bind) for c in series.coeffs])
    if args.format == "json":
        _emit_json(series.to_json(leaf=_poly_leaf), args.output)
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


def _cmd_verify(args, parser) -> int:
    identities = list(Identity) if args.all else [Identity(args.identity)]
    # a binding must act somewhere: with --all, in at least one identity
    free = set().union(*map(free_vars, identities))
    _check_bindings(parser, args.bind, free, args.identity or "any identity")
    reports = [
        run_identity(ident, args.n_max, args.m_max, mode=args.mode, bindings=args.bind)
        for ident in identities
    ]
    if args.format == "json":
        payload = [r.to_json() for r in reports]
        _emit_json(payload[0] if not args.all else payload, args.output)
    else:
        _emit("".join(_report_text(r) for r in reports), args.output)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_limit(args, parser) -> int:
    try:
        degenerate = build_table(args.kind, args.n_max, alpha=args.alpha)
    except ValueError as exc:
        parser.error(str(exc))
    at_zero = _apply_bindings(degenerate, {Var.LAMBDA: 0})
    reference = classical_counterpart(args.kind, args.n_max, alpha=args.alpha)
    rows = [
        (index, limit, ref, limit == ref)
        for (index, limit), (_, ref) in zip(at_zero.values, reference.values)
    ]
    all_match = all(match for *_, match in rows)
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "n_max": args.n_max,
            "all_match": all_match,
            "rows": [
                {**index_names(index), "limit": str(limit), "classical": str(ref), "match": match}
                for index, limit, ref, match in rows
            ],
        }
        _emit_json(payload, args.output)
    elif args.format == "csv":
        triangular = any(len(index) > 1 for index, *_ in rows)
        header = (["n", "k"] if triangular else ["n"]) + ["limit", "classical", "match"]
        body = [
            [str(i) for i in index] + [str(limit), str(ref), str(match).lower()]
            for index, limit, ref, match in rows
        ]
        _emit(_csv_text([header] + body), args.output)
    else:
        lines = [
            _wrap_line(f"{_label(i)}: {limit} | classical: {ref} | {'ok' if ok else 'MISMATCH'}")
            for i, limit, ref, ok in rows
        ]
        lines.append("all rows match" if all_match else "LIMIT MISMATCH")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if all_match else 1


def main(argv=None) -> int:
    args, unknown = _build_parser().parse_known_args(argv)
    parser = args._parser
    if unknown:  # argparse would report these with the top-level usage line
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    for attr in ("n_max", "m_max", "k_max", "alpha", "order"):
        value = getattr(args, attr, None)
        if value is not None and value < 0:
            parser.error(f"--{attr.replace('_', '-')} must be nonnegative")
    if hasattr(args, "bind"):  # limit takes no --bind
        symbols = [var.symbol for var, _ in args.bind]
        repeated = ", ".join(dict.fromkeys(s for s in symbols if symbols.count(s) > 1))
        if repeated:
            parser.error(f"--bind {repeated}: bound more than once")
        args.bind = dict(args.bind)
    commands = {
        "table": _cmd_table,
        "poly": _cmd_poly,
        "series": _cmd_series,
        "verify": _cmd_verify,
        "limit": _cmd_limit,
    }
    return commands[args.command](args, parser)


def run(argv=None) -> NoReturn:
    """The process entry point of ``python -m degenbell.cli`` and of the
    ``degenbell`` script: `main` (argv), then flush stdout and stderr and end
    the process with ``os._exit``, so no interpreter teardown frees what the
    OS reclaims anyway.

    A `SystemExit` maps to an exit code as the interpreter maps it: None to
    0, an int to itself, anything else is printed to stderr and gives 1.  A
    failed flush of stdout exits 2, as a failed write does.  Any other
    exception propagates, with its traceback and normal teardown.  Never
    call it in-process: it ends the process; call `main` there.
    """
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            code = 0
        elif not isinstance(code, int):
            sys.stderr.write(f"{code}\n")
            code = 1
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = _write_failed("stdout", exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
