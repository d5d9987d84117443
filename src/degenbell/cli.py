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
error or failed write, of ``--output`` or of stdout.  A ValueError from
the library is a usage error too (exit 2, with the subcommand's usage
line); any other exception still ends in a traceback and exit 1.
Identical invocations produce identical bytes.  JSON output is exactly
``json.dumps(data, indent=2)`` and a newline of the library's ``to_json()``
data, from the one writer `_json_text`, with every polynomial, a
counterexample's sides too, written straight from its term map.  The only
environment knob, DEGENBELL_WIDTH, read once per command as ``args.width``,
wraps long polynomials in text output at spaces, by a greedy fill
(`_wrap_line`): each line takes as many space-separated tokens as fit,
every line after the first starts with four spaces, and a token longer than
the width has a line of its own.  On the lines the CLI builds (tokens joined
by single spaces, at most a two-space lead before a short first token) that
is ``textwrap.wrap(line, width, subsequent_indent="    ",
break_long_words=False, break_on_hyphens=False)``, without loading textwrap.
Each ``_cmd_*`` returns its exit code and a renderer per ``--format``;
`main` emits the one asked for.

Importing this module loads no library module: `main` gives arguments only
to the subparser named on its command line, and that subparser and its
``_cmd_*`` import the library names they use.  So ``--help`` loads none, and
``table``, ``poly`` and ``limit`` load neither series nor verify.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
from typing import TYPE_CHECKING, NoReturn

try:  # the stdlib's C escaper, without loading the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import py_encode_basestring_ascii as _quote

if TYPE_CHECKING:  # the library loads per subcommand, in the functions that use it
    from fractions import Fraction
    from .algebra import Poly, Var
    from .series import Series


def _bind_pair(text: str) -> tuple[Var, Fraction]:
    from .algebra import parse_rational, var_from_symbol
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


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of ``argv``.  Argparse dispatches to a subcommand only when
    a token is its exact name, so only such subparsers get their arguments and
    import the library names they need; the others keep just their help."""
    parser = _Parser(
        prog="degenbell",
        description="Exact tables and identity checks for degenerate Bell/Fubini families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, formats=("text", "json", "csv"), bind=True):
        # usage errors found after parsing go through the subcommand's parser,
        # so they print its usage line, as argparse's own errors do
        p.set_defaults(_parser=p, _run=run)
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

    def table(p):
        from .sequences import TABLE_KINDS
        p.add_argument("--kind", choices=TABLE_KINDS, required=True)
        p.add_argument("--n-max", type=int, required=True)
        p.add_argument("--k-max", type=int, help="cap the column index of triangular kinds")
        p.add_argument("--alpha", type=int, help="order for two-var-deg-fubini (default 1)")
        add_common(p, _cmd_table)

    def poly(p):
        from .sequences import TABLE_KINDS
        p.add_argument("--kind", choices=TABLE_KINDS, required=True)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-k", type=int, help="second index for triangular kinds")
        p.add_argument("--alpha", type=int, help="order for two-var-deg-fubini (default 1)")
        add_common(p, _cmd_poly, formats=("text", "json"))

    def series(p):
        from .series import DEFAULT_ORDER
        p.add_argument(
            "--gf",
            required=True,
            metavar="NAME",
            help="one of deg-exp, deg-bell, fully-deg-bell, deg-fubini, two-var-fubini:<alpha>",
        )
        p.add_argument("--order", type=int, default=DEFAULT_ORDER)
        add_common(p, _cmd_series, formats=("text", "json"))

    def verify(p):
        from .verify import Identity
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--id", choices=[i.value for i in Identity], dest="identity")
        group.add_argument("--all", action="store_true", help="run every identity")
        p.add_argument("--n-max", type=int, default=6)
        p.add_argument("--m-max", type=int, default=6)
        p.add_argument("--mode", choices=("symbolic", "rational"), default="symbolic")
        add_common(p, _cmd_verify, formats=("text", "json"))

    def limit(p):
        from .sequences import LIMIT_KINDS
        p.add_argument("--kind", choices=LIMIT_KINDS, required=True)
        p.add_argument("--n-max", type=int, default=8)
        p.add_argument("--alpha", type=int, help="order for two-var-deg-fubini (default 1)")
        add_common(p, _cmd_limit, bind=False)  # the limit is l = 0; nothing else is bound

    for name, populate, text in (
        ("table", table, "render a family table"),
        ("poly", poly, "print one family polynomial"),
        ("series", series, "dump EGF coefficients"),
        ("verify", verify, "check identities"),
        ("limit", limit, "compare l = 0 limits against classical families"),
    ):
        p = sub.add_parser(name, help=text)
        if name in argv:
            populate(p)
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
        if output is not None:  # "" too: no file has that name
            with open(output, "w") as fh:
                fh.write(text)
        elif sys.stdout is None:  # the process started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
    except OSError as exc:
        sys.exit(_write_failed("stdout" if output is None else output or '""', exc))


def _json_text(data) -> str:
    """``json.dumps(data, indent=2)`` and a newline, byte for byte: the whole
    JSON document the CLI writes.  ``data`` is dicts with str keys, lists,
    tuples, str, int, bool and None, with `Poly` leaves standing for their
    ``to_json()``.  Anything else, a float included, raises TypeError.

    The stdlib encoder runs its C speedup only without an indent; this is
    one recursive pass that appends str pieces to one list, joined once, so
    no level copies the text of the levels below it.  A `Poly` appends its
    terms straight from its term map, so no dict is built per term.  `Poly`
    is imported here, once per document, and handed down to every node.
    """
    from .algebra import Poly
    out: list[str] = []
    _json_parts(data, "\n", out, Poly)
    out.append("\n")
    return "".join(out)


def _json_parts(obj, indent: str, out: list[str], poly: type[Poly]) -> None:
    """Append the pieces of ``json.dumps(obj, indent=2)``, nested at ``indent``,
    to ``out``; ``poly`` is the `Poly` class, whose instances write themselves."""
    if type(obj) is poly:
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
            _json_parts(value, inner, out, poly)
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
            _json_parts(value, inner, out, poly)
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


def _poly_leaf(poly: Poly) -> Poly:
    """The ``leaf`` for every `to_json` that keeps each `Poly` for `_json_text`."""
    return poly


def _wrap_width() -> int:
    """DEGENBELL_WIDTH, 100 if unset or empty; ValueError unless an integer >= 20."""
    raw = os.environ.get("DEGENBELL_WIDTH") or "100"
    try:  # what int() takes, as for --alpha
        if (width := int(raw)) >= 20:
            return width
    except ValueError:
        pass
    raise ValueError(f"DEGENBELL_WIDTH must be an integer of at least 20, got {raw!r}")


def _wrap_line(line: str, width: int) -> str:
    """``line`` filled greedily at ``width``, as the module docstring says."""
    if len(line) <= width:
        return line
    words = line.split(" ")
    lines, current = [], words[0]
    for word in words[1:]:
        if len(current) + 1 + len(word) <= width:
            current += " " + word
        else:
            lines.append(current)
            current = "    " + word
    lines.append(current)
    return "\n".join(lines)


def _csv_text(rows) -> str:
    import csv  # loaded only for --format csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _check_bindings(bindings, free, where: str) -> None:
    """ValueError naming every bound variable not in ``free``, so no --bind is ignored."""
    stray = ", ".join(v.symbol for v in bindings if v not in free)
    if stray:
        raise ValueError(f"--bind {stray}: no such variable in {where}")


def _bound(bindings, polys, where: str):
    """``polys`` at ``bindings``; ValueError if a bound variable is in none of them."""
    if not bindings:
        return polys
    _check_bindings(bindings, set().union(*(p.variables() for p in polys)), where)
    return [p.eval(bindings) for p in polys]


def _label(names: dict) -> str:
    """A table index as text, from its ``index_names``: ``n=3 k=1``."""
    return " ".join(f"{name}={i}" for name, i in names.items())


def _lines(lines, width: int) -> str:
    """Text output: each line wrapped at width, and a newline after each."""
    return "".join(_wrap_line(line, width) + "\n" for line in lines)


def _cmd_table(args):
    from .sequences import build_table, index_names
    table = build_table(args.kind, args.n_max, k_max=args.k_max, alpha=args.alpha)
    polys = _bound(args.bind, [poly for _, poly in table.values], args.kind)
    table = table._replace(values=tuple((i, p) for (i, _), p in zip(table.values, polys)))
    return 0, {
        "json": lambda: _json_text(table.to_json(leaf=_poly_leaf)),
        "csv": lambda: _csv_text(table.to_csv_rows()),
        "text": lambda: _lines(
            (f"{_label(index_names(i))}: {poly}" for i, poly in table.values), args.width
        ),
    }


def _cmd_poly(args):
    from .sequences import KINDS, index_names
    kind, n, k = KINDS[args.kind], args.n, args.k
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k is not None and k < 0:
        raise ValueError("-k must be nonnegative")
    if kind.triangular and k is None:
        raise ValueError(f"kind {kind.name} needs -k")
    if k is not None and not kind.triangular:
        raise ValueError(f"-k applies only to triangular kinds, not {kind.name}")
    alpha = kind.order(args.alpha)
    index = (n, k) if kind.triangular else (n,)
    poly = kind.build(n, k if kind.triangular else alpha)
    (poly,) = _bound(args.bind, [poly], f"{kind.name} {_label(index_names(index))}")
    return 0, {"json": lambda: _json_text(poly), "text": lambda: _lines([str(poly)], args.width)}


def _named_series(name: str, order: int) -> Series:
    from .algebra import X, Y
    from .series import Series, deg_exp_of, exp_of
    if name == "deg-exp":
        return Series.deg_exp(1, order)
    em1 = Series.deg_exp(1, order) - Series.unit(order)
    if name == "deg-bell":
        return exp_of(X * em1)
    if name == "fully-deg-bell":
        return deg_exp_of(X * em1)
    if name == "deg-fubini":
        return (Series.unit(order) - X * em1).reciprocal()
    if name.startswith("two-var-fubini:"):
        raw = name.split(":", 1)[1]
        try:  # what int() takes, as for --alpha
            alpha = int(raw)
        except ValueError:
            alpha = -1
        if alpha < 0:
            raise ValueError(f"two-var-fubini: alpha must be a nonnegative integer, got {raw!r}")
        # (f^alpha)^-1, not (f^-1)^alpha: see the `series` module docstring
        power = (Series.unit(order) - X * em1).int_pow(alpha)
        return power.reciprocal() * Series.deg_exp(Y, order)
    raise ValueError(f"unknown generating function {name!r}")


def _cmd_series(args):
    from .series import Series
    series = _named_series(args.gf, args.order)
    series = Series(_bound(args.bind, series.coeffs, args.gf))
    return 0, {
        "json": lambda: _json_text(series.to_json(leaf=_poly_leaf)),
        "text": lambda: _lines((f"{n}: {c}" for n, c in enumerate(series.coeffs)), args.width),
    }


def _report_text(report, width: int) -> str:
    lines = [
        f"identity: {report.identity.value}",
        f"grid: {len(report.grid)}  pass: {report.pass_count}  fail: {report.fail_count}",
    ]
    if report.first_counterexample is not None:
        ce = report.first_counterexample
        cell = " ".join(f"{k}={v}" for k, v in ce.bindings.items())
        lines.append(f"first counterexample: {cell}")
        lines.append(_wrap_line(f"  lhs: {ce.lhs}", width))
        lines.append(_wrap_line(f"  rhs: {ce.rhs}", width))
    return "\n".join(lines) + "\n"


def _cmd_verify(args):
    from .verify import Identity, free_vars, run_identity
    identities = list(Identity) if args.all else [Identity(args.identity)]
    # a binding must act somewhere: with --all, in at least one identity
    free = set().union(*map(free_vars, identities))
    _check_bindings(args.bind, free, args.identity or "any identity")
    reports = []
    for ident in identities:
        # the bindings of the identity's own variables, and None without --bind
        own = {v: c for v, c in args.bind.items() if v in free_vars(ident)} if args.bind else None
        reports.append(run_identity(ident, args.n_max, args.m_max, mode=args.mode, bindings=own))
    docs = [r.to_json(leaf=_poly_leaf) for r in reports]  # small: the sides stay Polys
    return 0 if all(r.ok for r in reports) else 1, {
        "json": lambda: _json_text(docs if args.all else docs[0]),
        "text": lambda: "".join(_report_text(r, args.width) for r in reports),
    }


def _cmd_limit(args):
    from .algebra import Var
    from .sequences import build_table, classical_counterpart, index_names
    degenerate = build_table(args.kind, args.n_max, alpha=args.alpha)
    reference = classical_counterpart(args.kind, args.n_max, alpha=args.alpha)
    limits = [poly.eval({Var.LAMBDA: 0}) for _, poly in degenerate.values]
    rows = [(i, limit, ref, limit == ref) for limit, (i, ref) in zip(limits, reference.values)]
    all_match = all(match for *_, match in rows)

    def rendered():
        # equal term maps print alike, so a matching row renders one polynomial
        for index, limit, ref, match in rows:
            text = str(limit)
            yield index, text, text if match else str(ref), match

    def csv_rows():
        triangular = any(len(index) > 1 for index, *_ in rows)
        yield (["n", "k"] if triangular else ["n"]) + ["limit", "classical", "match"]
        for index, limit, ref, match in rendered():
            yield [str(i) for i in index] + [limit, ref, str(match).lower()]

    def text_lines():
        for index, limit, ref, ok in rendered():
            label = _label(index_names(index))
            yield f"{label}: {limit} | classical: {ref} | {'ok' if ok else 'MISMATCH'}"
        yield "all rows match" if all_match else "LIMIT MISMATCH"

    return 0 if all_match else 1, {
        "json": lambda: _json_text({
            "kind": args.kind,
            "n_max": args.n_max,
            "all_match": all_match,
            "rows": [
                {**index_names(index), "limit": limit, "classical": ref, "match": match}
                for index, limit, ref, match in rendered()
            ],
        }),
        "csv": lambda: _csv_text(csv_rows()),
        "text": lambda: _lines(text_lines(), args.width),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, unknown = _build_parser(argv).parse_known_args(argv)
    parser = args._parser
    if unknown:  # argparse would report these with the top-level usage line
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    if hasattr(args, "bind"):  # limit takes no --bind
        symbols = [var.symbol for var, _ in args.bind]
        repeated = ", ".join(dict.fromkeys(s for s in symbols if symbols.count(s) > 1))
        if repeated:
            parser.error(f"--bind {repeated}: bound more than once")
        args.bind = dict(args.bind)
    try:  # the library's ValueError is a usage error; rendering is outside
        # read once, so a bad DEGENBELL_WIDTH is a usage error before any output
        args.width = _wrap_width()
        code, renderers = args._run(args)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(renderers[args.format](), args.output)
    return code


def run(argv=None) -> NoReturn:
    """The process entry point of ``python -m degenbell.cli`` and of the
    ``degenbell`` script: `main` (argv), then flush stdout and stderr and end
    the process with ``os._exit``, so no interpreter teardown frees what the
    OS reclaims anyway.

    A `SystemExit` maps to an exit code as the interpreter maps it: None to
    0, an int to itself, anything else is printed to stderr and gives 1.  A
    failed flush of stdout exits 2, as a failed write does.  Any other
    exception propagates, with its traceback and normal teardown.  Never
    call it in-process: it ends the process; call `main` there.  It lifts
    the interpreter's limit on int <-> str conversion, so an exact number
    of any length parses and prints; `main` leaves that setting to its host.
    """
    if hasattr(sys, "set_int_max_str_digits"):  # the limit, where there is one
        sys.set_int_max_str_digits(0)
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
