"""CLI contract: subcommands, exit codes, deterministic output, round-trips."""

import builtins
import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbell import algebra, cli, sequences
from degenbell.algebra import Poly, Var, X
from degenbell.cli import _json_text, _named_series, main
from degenbell.sequences import (
    KINDS,
    LIMIT_KINDS,
    LINEAR_KINDS,
    TABLE_KINDS,
    build_table,
    fubini_two_var_alpha,
)
from degenbell.series import Series
from degenbell.verify import Identity
from oracles import poly_from_json, series_from_json, table_from_json
from strategies import polys


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTable:
    def test_stirling_triangle_text(self, capsys):
        code, out = run_cli(capsys, "table", "--kind", "deg-stirling2", "--n-max", "3")
        assert code == 0
        assert out.splitlines() == [
            "n=0 k=0: 1",
            "n=1 k=0: 0",
            "n=1 k=1: 1",
            "n=2 k=0: 0",
            "n=2 k=1: 1 - l",
            "n=2 k=2: 1",
            "n=3 k=0: 0",
            "n=3 k=1: 1 - 3*l + 2*l^2",
            "n=3 k=2: 3 - 3*l",
            "n=3 k=3: 1",
        ]

    def test_fubini_with_bindings(self, capsys):
        code, out = run_cli(
            capsys, "table", "--kind", "deg-fubini", "--n-max", "2",
            "--bind", "l=0", "--bind", "x=1",
        )
        assert code == 0
        assert out.splitlines() == ["n=0: 1", "n=1: 1", "n=2: 3"]

    def test_fully_deg_bell_bound(self, capsys):
        code, out = run_cli(
            capsys, "table", "--kind", "fully-deg-bell", "--n-max", "2",
            "--bind", "x=1", "--bind", "l=0",
        )
        assert code == 0
        assert out.splitlines() == ["n=0: 1", "n=1: 1", "n=2: 2"]

    def test_json_round_trips(self, capsys):
        code, out = run_cli(
            capsys, "table", "--kind", "deg-stirling2", "--n-max", "4", "--format", "json"
        )
        assert code == 0
        table = table_from_json(json.loads(out))
        assert table.to_json() == json.loads(out)

    def test_csv(self, capsys):
        code, out = run_cli(
            capsys, "table", "--kind", "deg-bell", "--n-max", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "n,value"
        assert out.splitlines()[3] == "2,x - l*x + x^2"

    def test_unknown_kind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--kind", "nope", "--n-max", "2"])
        assert exc.value.code == 2

    def test_negative_bound_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--kind", "deg-bell", "--n-max", "-3"])
        assert exc.value.code == 2

    def test_k_max_caps_triangle(self, capsys):
        code, out = run_cli(
            capsys, "table", "--kind", "deg-stirling2", "--n-max", "3", "--k-max", "0"
        )
        assert code == 0
        assert out.splitlines() == ["n=0 k=0: 1", "n=1 k=0: 0", "n=2 k=0: 0", "n=3 k=0: 0"]

    def test_k_max_on_linear_kind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--kind", "deg-bell", "--n-max", "2", "--k-max", "0"])
        assert exc.value.code == 2
        assert "triangular" in capsys.readouterr().err

    def test_negative_k_max_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--kind", "deg-stirling2", "--n-max", "3", "--k-max", "-1"])
        assert exc.value.code == 2

    def test_bad_rational_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--kind", "deg-bell", "--n-max", "2", "--bind", "l=0.5"])
        assert exc.value.code == 2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out = run_cli(
            capsys, "table", "--kind", "deg-bell", "--n-max", "2",
            "--format", "json", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["kind"] == "deg-bell"

    def test_failed_output_write_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--id", "deg-vandermonde", "--n-max", "2", "--output", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(path) in captured.err

    def test_empty_output_path_is_a_failed_write(self, capsys):
        # no file is named "", and the text does not fall back to stdout
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--kind", "deg-bell", "-n", "2", "--output", ""])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f'degenbell: error: cannot write "": {os.strerror(errno.ENOENT)}\n'


class TestPoly:
    def test_triangular_kind(self, capsys):
        code, out = run_cli(capsys, "poly", "--kind", "deg-stirling2", "-n", "3", "-k", "1")
        assert code == 0
        assert out == "1 - 3*l + 2*l^2\n"

    def test_missing_k_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--kind", "deg-stirling2", "-n", "3"])
        assert exc.value.code == 2

    def test_k_on_linear_kind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--kind", "deg-bell", "-n", "3", "-k", "2"])
        assert exc.value.code == 2
        assert "triangular" in capsys.readouterr().err

    def test_linear_kind_json(self, capsys):
        code, out = run_cli(
            capsys, "poly", "--kind", "fully-deg-bell", "-n", "2", "--format", "json"
        )
        assert code == 0
        poly = poly_from_json(json.loads(out))
        from degenbell.sequences import bell_fully_deg

        assert poly == bell_fully_deg(2)

    def test_negative_k_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--kind", "deg-stirling2", "-n", "3", "-k", "-1"])
        assert exc.value.code == 2
        assert "-k must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    def test_linear_kind_is_last_table_row(self, capsys, kind):
        tail = ("--alpha", "2") if KINDS[kind].ordered else ()
        tail += ("--format", "json")
        _, poly_out = run_cli(capsys, "poly", "--kind", kind, "-n", "4", *tail)
        _, table_out = run_cli(capsys, "table", "--kind", kind, "--n-max", "4", *tail)
        assert json.loads(poly_out) == json.loads(table_out)["values"][-1]["poly"]


class TestSeries:
    def test_deg_exp(self, capsys):
        code, out = run_cli(capsys, "series", "--gf", "deg-exp", "--order", "2")
        assert code == 0
        assert out.splitlines() == ["0: 1", "1: 1", "2: 1 - l"]

    def test_fully_deg_bell_gf(self, capsys):
        code, out = run_cli(capsys, "series", "--gf", "fully-deg-bell", "--order", "2")
        assert code == 0
        assert out.splitlines() == ["0: 1", "1: x", "2: x - l*x + x^2 - l*x^2"]

    def test_two_var_alpha_zero_is_deg_exp_y(self, capsys):
        code, out = run_cli(
            capsys, "series", "--gf", "two-var-fubini:0", "--order", "3", "--format", "json"
        )
        assert code == 0
        series = series_from_json(json.loads(out))
        assert series == Series.deg_exp(algebra.Y, 3)

    def test_json_round_trip(self, capsys):
        code, out = run_cli(
            capsys, "series", "--gf", "deg-fubini", "--order", "4", "--format", "json"
        )
        data = json.loads(out)
        assert series_from_json(data).to_json() == data

    def test_huge_alpha_equals_closed_form_table(self, capsys):
        # alpha = 10**20 takes about 2 log2(alpha) series products, not alpha
        alpha = str(10**20)
        code, series = run_cli(capsys, "series", "--gf", f"two-var-fubini:{alpha}", "--order", "4",
                               "--format", "json")
        assert code == 0
        code, table = run_cli(capsys, "table", "--kind", "two-var-deg-fubini", "--alpha", alpha,
                              "--n-max", "4", "--format", "json")
        assert code == 0
        rows = json.loads(table)["values"]
        assert json.loads(series)["egf_coeffs"] == [row["poly"] for row in rows]

    @pytest.mark.parametrize("alpha", range(5))
    def test_two_var_fubini_equals_closed_form(self, alpha):
        # the series inverts (1 - x(e_l - 1))^alpha; the closed form sums S2_l entries
        series = _named_series(f"two-var-fubini:{alpha}", 10)
        assert series.coeffs == tuple(fubini_two_var_alpha(n, alpha) for n in range(11))

    def test_unknown_gf_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--gf", "mystery", "--order", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("alpha", ["x", "-1"])
    def test_bad_order_is_reported_plainly(self, capsys, alpha):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--gf", f"two-var-fubini:{alpha}", "--order", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: degenbell series ")
        assert err[-1] == (
            "degenbell series: error: "
            f"two-var-fubini: alpha must be a nonnegative integer, got '{alpha}'"
        )


class TestVerify:
    def test_single_identity(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--id", "fully-deg-bell", "--n-max", "6", "--m-max", "6"
        )
        assert code == 0
        assert "pass: 49" in out
        assert "fail: 0" in out

    def test_base_cell(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--id", "fully-deg-bell-poly", "--n-max", "0", "--m-max", "0"
        )
        assert code == 0
        assert "pass: 1" in out

    def test_json_report(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--id", "deg-vandermonde", "--n-max", "4", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["identity"] == "deg-vandermonde"
        assert data["pass"] == 5
        assert data["fail"] == 0
        assert data["first_counterexample"] is None

    def test_rational_mode_with_binding(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--id", "deg-fubini-spivey", "--n-max", "3", "--m-max", "3",
            "--mode", "rational", "--bind", "l=0", "--bind", "t=2",
        )
        assert code == 0

    def test_all_runs_every_identity(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--all", "--n-max", "2", "--m-max", "2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 10
        assert {entry["identity"] for entry in data} == {
            "spivey-bell", "spivey-bell-poly", "deg-bell-spivey", "fully-deg-bell",
            "fully-deg-bell-poly", "deg-fubini-spivey", "fubini-spivey",
            "deg-vandermonde", "exp-splitting", "fubini-x-zero",
        }

    def test_failure_exits_1(self, capsys, monkeypatch):
        from degenbell import verify
        from degenbell.verify import Identity, VerifyReport, Counterexample
        from degenbell.algebra import ONE, ZERO

        broken = VerifyReport(
            identity=Identity.SPIVEY_BELL,
            grid=({"n": 0, "m": 0},),
            pass_count=0,
            fail_count=1,
            first_counterexample=Counterexample({"n": 0, "m": 0}, ONE, ZERO),
        )
        monkeypatch.setattr(verify, "run_identity", lambda *a, **k: broken)
        code, out = run_cli(capsys, "verify", "--id", "spivey-bell")
        assert code == 1
        assert "first counterexample" in out

    def test_unknown_identity_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--id", "not-an-identity"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode", ["symbolic", "rational"])
    @pytest.mark.parametrize(
        "identity,binds,stray",
        [
            ("spivey-bell", ["t=2"], "t"),
            ("fully-deg-bell", ["l=1/2", "x=1"], "x"),
            ("deg-fubini-spivey", ["y=3", "l=-1/3", "t=2"], "y"),
            ("spivey-bell-poly", ["l=0", "x=2", "t=1"], "l, t"),
        ],
    )
    def test_bind_of_absent_variable_exits_2(self, capsys, mode, identity, binds, stray):
        argv = ["verify", "--id", identity, "--n-max", "1", "--m-max", "1", "--mode", mode]
        for bind in binds:
            argv += ["--bind", bind]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--bind {stray}: no such variable in {identity}" in captured.err

    def test_bind_with_all_needs_one_identity_to_contain_it(self, capsys):
        # l is absent from spivey-bell but free in others
        code, out = run_cli(
            capsys, "verify", "--all", "--n-max", "1", "--m-max", "1",
            "--bind", "l=1/2", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)) == 10

    def test_bind_of_variable_on_one_side_only(self, capsys):
        # x occurs only on the y = 0 side of fubini-x-zero, outside its spot grid
        code, out = run_cli(
            capsys, "verify", "--id", "fubini-x-zero", "--n-max", "2", "--m-max", "2",
            "--bind", "x=2", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["pass"] == 18


class TestBindOfAbsentVariable:
    # table, poly and series apply verify's rule to the polynomials they emit
    @pytest.mark.parametrize(
        "argv,message",
        [
            ("table --kind deg-bell --n-max 2 --bind y=3", "--bind y: no such variable in deg-bell"),
            (
                "table --kind deg-stirling2 --n-max 3 --format json --bind t=1 --bind l=0 --bind x=2",
                "--bind t, x: no such variable in deg-stirling2",
            ),
            (
                "poly --kind deg-stirling2 -n 3 -k 3 --bind l=1/2",
                "--bind l: no such variable in deg-stirling2 n=3 k=3",
            ),
            (
                "poly --kind two-var-deg-fubini -n 2 --alpha 2 --bind t=2 --format json",
                "--bind t: no such variable in two-var-deg-fubini n=2",
            ),
            ("series --gf deg-exp --order 3 --bind x=1", "--bind x: no such variable in deg-exp"),
            (
                "series --gf two-var-fubini:1 --order 2 --bind y=1 --bind t=0 --format json",
                "--bind t: no such variable in two-var-fubini:1",
            ),
        ],
    )
    def test_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_variable_in_some_rows_is_bound(self, capsys):
        # S2_l(n, n) = 1 has no l, but other rows of the table do
        code, out = run_cli(
            capsys, "table", "--kind", "deg-stirling2", "--n-max", "2", "--bind", "l=1/2"
        )
        assert code == 0
        assert out.splitlines()[-2:] == ["n=2 k=1: 1/2", "n=2 k=2: 1"]


class TestRepeatedBind:
    # a second value for one variable would silently replace the first
    @pytest.mark.parametrize(
        "argv,repeated",
        [
            ("table --kind deg-bell --n-max 2 --bind l=1/2 --bind x=1 --bind l=1/3", "l"),
            ("poly --kind deg-bell -n 2 --bind l=1/2 --bind l=1/3", "l"),
            ("poly --kind deg-bell -n 2 --bind x=2 --bind x=2 --format json", "x"),
            ("series --gf two-var-fubini:1 --order 2 --bind y=1 --bind x=0 --bind y=1", "y"),
            ("verify --id fully-deg-bell-poly --n-max 1 --m-max 1 --bind t=1 --bind t=2", "t"),
            (
                "verify --all --n-max 1 --m-max 1 --mode rational "
                "--bind x=1 --bind l=0 --bind x=2 --bind l=1",
                "x, l",
            ),
        ],
    )
    def test_exits_2_naming_the_variable(self, capsys, argv, repeated):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--bind {repeated}: bound more than once" in captured.err


class TestUsageLine:
    # an error the program finds after parsing prints the subcommand's usage
    # line, the same line as argparse's own errors for that subcommand
    @pytest.mark.parametrize(
        "argv",
        [
            "table --kind deg-bell --n-max -1",
            "poly --kind deg-stirling2 -n 3 -k -1",
            "series --gf deg-exp --order 3 --bind x=1",
            "verify --id fully-deg-bell-poly --n-max 1 --m-max 1 --bind t=1 --bind t=2",
            "limit --kind deg-bell --alpha 7",
            "verify --all --n-max -1",
            "series --gf deg-exp --order -1",
        ],
    )
    def test_first_stderr_line_is_the_subcommand_usage(self, capsys, argv):
        command = argv.split()[0]
        usage_lines = []
        for bad in (argv.split(), [*argv.split(), "--format", "nope"]):  # ours, then argparse's
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            usage_lines.append(captured.err.splitlines()[0])
        assert usage_lines[0].startswith(f"usage: degenbell {command} ")
        assert usage_lines[0] == usage_lines[1]

    @pytest.mark.parametrize(
        "argv",
        [
            "table --kind deg-bell --n-max 2 --bogus",
            "poly --kind deg-bell -n 2 --bogus",
            "series --gf deg-exp --order 3 --bogus",
            "verify --all --n-max 1 --m-max 1 --bogus",
            "limit --kind deg-bell --n-max 2 --bogus",
        ],
    )
    def test_unrecognized_argument_prints_the_subcommand_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: degenbell {argv.split()[0]} ")
        assert "unrecognized arguments: --bogus" in captured.err
        assert "Traceback" not in captured.err


class TestLibraryValueError:
    # a ValueError from the library, wherever a command meets it, is a usage
    # error: the subcommand's usage line and the message, exit 2, no traceback
    @pytest.mark.parametrize(
        "argv,module,builder",
        [
            ("table --kind deg-bell --n-max 2", "sequences", "build_table"),
            ("poly --kind deg-stirling2 -n 3 -k 1", "sequences", "stirling2_deg"),
            ("series --gf deg-exp --order 3", "cli", "_named_series"),
            ("verify --id spivey-bell --n-max 1 --m-max 1", "verify", "run_identity"),
            ("limit --kind deg-bell --n-max 2", "sequences", "classical_counterpart"),
        ],
    )
    def test_exits_2_with_the_subcommand_usage(self, capsys, monkeypatch, argv, module, builder):
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(f"degenbell.{module}.{builder}", boom)
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith(f"usage: degenbell {argv.split()[0]} ")
        assert lines[-1].endswith("boom")
        assert "Traceback" not in captured.err


class TestLimit:
    @pytest.mark.parametrize(
        "kind", ["deg-stirling2", "deg-bell", "fully-deg-bell", "deg-fubini",
                 "deg-falling-factorial", "two-var-deg-fubini"]
    )
    def test_all_kinds_match(self, capsys, kind):
        code, out = run_cli(capsys, "limit", "--kind", kind, "--n-max", "8")
        assert code == 0
        assert out.strip().endswith("all rows match")

    def test_json(self, capsys):
        code, out = run_cli(
            capsys, "limit", "--kind", "deg-fubini", "--n-max", "4", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_match"] is True
        assert len(data["rows"]) == 5

    def test_bind_is_not_accepted(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["limit", "--kind", "deg-bell", "--n-max", "2", "--bind", "l=1/2"])
        assert exc.value.code == 2

    def test_mismatched_row_in_every_format(self, capsys, monkeypatch):
        # a classical row other than the l = 0 limit: that row, and only it, fails
        real = sequences.classical_counterpart

        def one_row_off(kind, n_max, alpha=None):
            table = real(kind, n_max, alpha=alpha)
            values = list(table.values)
            index, ref = values[2]
            values[2] = index, ref + X
            return table._replace(values=tuple(values))

        monkeypatch.setattr(sequences, "classical_counterpart", one_row_off)
        argv = ["limit", "--kind", "deg-bell", "--n-max", "3"]
        limit = KINDS["deg-bell"].build(2, None).eval({Var.LAMBDA: 0})
        ref = real("deg-bell", 3).values[2][1] + X
        assert limit != ref

        code, out = run_cli(capsys, *argv)
        assert code == 1
        lines = out.splitlines()
        assert lines[2] == f"n=2: {limit} | classical: {ref} | MISMATCH"
        assert [line.rsplit(" | ", 1)[1] for line in lines[:4]] == ["ok", "ok", "MISMATCH", "ok"]
        assert lines[4:] == ["LIMIT MISMATCH"]

        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 1
        rows = out.splitlines()
        assert rows[3] == f"2,{limit},{ref},false"
        assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["true", "true", "false", "true"]

        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["all_match"] is False
        assert data["rows"][2] == {"n": 2, "limit": str(limit), "classical": str(ref), "match": False}
        assert [row["match"] for row in data["rows"]] == [True, True, False, True]


class TestAlpha:
    @pytest.mark.parametrize(
        "argv",
        [
            "table --kind deg-bell --alpha 5 --n-max 2",
            "table --kind deg-stirling2 --alpha 1 --n-max 2",
            "limit --kind deg-bell --alpha 7",
            "poly --kind deg-stirling2 -n 3 -k 1 --alpha 9",
            "poly --kind deg-fubini -n 3 --alpha 2",
        ],
    )
    def test_alpha_on_kind_without_order_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["table --n-max 4", "table --n-max 4 --format csv", "poly -n 4", "limit --n-max 4"]
    )
    def test_two_var_without_alpha_is_order_one(self, capsys, command):
        argv = [*command.split(), "--kind", "two-var-deg-fubini"]
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--alpha", "1")


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, "verify", "--id", "fully-deg-bell", "--n-max", "3",
                           "--m-max", "3", "--format", "json")
        _, second = run_cli(capsys, "verify", "--id", "fully-deg-bell", "--n-max", "3",
                            "--m-max", "3", "--format", "json")
        assert first == second

    def test_table_byte_identical(self, capsys):
        _, first = run_cli(capsys, "table", "--kind", "deg-stirling2", "--n-max", "5",
                           "--format", "csv")
        _, second = run_cli(capsys, "table", "--kind", "deg-stirling2", "--n-max", "5",
                            "--format", "csv")
        assert first == second

    # sha256 of stdout pinned from a known-good build; the reruns above
    # compare one build with itself and cannot see a change in rendering
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "verify --all --n-max 3 --m-max 3 --format json",
                "65fb6a9c1aceca784fa3bc0bb15400629e53b766d15416a244db78335118f675",
            ),
            (
                "verify --all --n-max 3 --m-max 3 --format json --mode rational",
                "4b39414c4491f56c8bc400b503366c589698990024c26e5c26907a8583ad7de5",
            ),
            (
                "verify --id deg-fubini-spivey --n-max 4 --m-max 4 --mode rational"
                " --bind l=-1/3 --bind t=3 --format json",
                "890ca69370ec0ec4627884eb91031022869f15b0d6c8ca1b3d2ca8fe7b50fbb3",
            ),
            (
                "verify --all --n-max 3 --m-max 3 --mode rational",
                "0ab66c85a68844ce40603164d748404ab3f78ed6ca12d81ad72e4e4768dbc257",
            ),
            (
                "series --gf two-var-fubini:2 --order 8 --format json",
                "1ba3778286e084da4dedff57279f23535c919e245811ce97b549540078fa8553",
            ),
            (
                "table --kind deg-stirling2 --n-max 6 --k-max 3 --format csv",
                "d911bbd3860261a3a592550bcfda2d2b86d8619d0cec4968b1d93706495fb6df",
            ),
            (
                "table --kind two-var-deg-fubini --alpha 2 --n-max 5 --format json",
                "26c9545de6c501797ca8a9194df73060065529a1af26e806c1920891a908eb26",
            ),
            (
                "poly --kind classical-stirling2 -n 9 -k 4",
                "be2c21586427c97175efb7084b94b795a65bbd2860e93587ca8aa24b22303b9f",
            ),
            (
                "limit --kind deg-stirling2 --n-max 5 --format json",
                "5eb7a9c4c57035bb803affef455119677ef5a38d1be923b4d784bf7eb4658919",
            ),
            (
                "limit --kind two-var-deg-fubini --alpha 2 --n-max 5 --format csv",
                "2806027c5cdb19d6cd716b3457086e2898cb4cfb35eeff52fa8592122ba9b17f",
            ),
            (
                "table --kind deg-stirling2 --n-max 20 --format json",
                "88d060cfe211d49018eb167c2e0bb8e29e477eeaac3b785400082f0b9cd6deb3",
            ),
            (
                "poly --kind two-var-deg-fubini --alpha 3 -n 6 --format json",
                "64d806042069e23b6c4521cc09e1e46e2dfb7e89dce0eb9cd4045d663e8c6a17",
            ),
            (
                "series --gf deg-fubini --order 8 --format json",
                "a0e50d69aaf5fd8c46a46fe426ca91041b51350a52b224696f05b4715689ac53",
            ),
            # Fraction coefficients in JSON
            (
                "table --kind fully-deg-bell --n-max 6 --bind l=1/3 --format json",
                "6289e99eaebbbb1897852f95b43aac087b42da155857bf966156bf31c0c5e48b",
            ),
            (
                "series --gf two-var-fubini:2 --order 6 --bind y=-1/2 --format json",
                "6b77b81b6d567aded7c8d45d6e2e1aaaed7e8608c2d55e49d4da4d88ece5a0fd",
            ),
            # wrapped text lines of the l -> 0 limit, which binds l = 0
            (
                "limit --kind fully-deg-bell --n-max 12",
                "22e3f37ee77a7e344a364c416c2d7e2e84b473db4d63d8916c620d896cb2b3af",
            ),
            # an odd power: series squares and a general product
            (
                "series --gf two-var-fubini:3 --order 8 --format json",
                "2b17934bb0defb91168031fb995c392624583424c73cad37d4872536f16c181d",
            ),
            (
                "series --gf two-var-fubini:0 --order 4",
                "fb59b578d8921fa9725b9375eb179754ab65a35dad9d06fc3460461da52c5a3d",
            ),
            # zero and nonzero bindings together
            (
                "table --kind fully-deg-bell --n-max 6 --bind l=0 --bind x=2/3 --format json",
                "a75144992a84feaaae37957edca1e6532f05fd5b51722d59daac7921628048d0",
            ),
            (
                "poly --kind two-var-deg-fubini -n 5 --alpha 2 --bind y=0",
                "fe086c7edbdb74692529d0b5a5b9f73355f1a4e18021c56ae616defe568a67ae",
            ),
            # the text render of table, series and limit, wrapped lines included
            (
                "table --kind fully-deg-bell --n-max 9",
                "9886f920bce7079fc6c466fb727769eebf726ac92120772708bb4086fb097b4f",
            ),
            (
                "series --gf fully-deg-bell --order 9",
                "5e9fd60d9a7d81fd258028466c15d401ded8db2af022d4830f565aa0dd3cbd96",
            ),
            (
                "limit --kind two-var-deg-fubini --alpha 2 --n-max 7",
                "da4ea32893c3a27e75e446ed656966b55249aeec7fb7b46b73a2a4602087e7e2",
            ),
        ],
    )
    def test_golden_stdout(self, capsys, monkeypatch, argv, digest):
        monkeypatch.delenv("DEGENBELL_WIDTH", raising=False)
        code, out = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_width_hint_wraps_text(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGENBELL_WIDTH", "30")
        code, out = run_cli(capsys, "poly", "--kind", "deg-fubini", "-n", "6")
        assert code == 0
        assert all(len(line) <= 30 for line in out.splitlines())

    def test_width_read_once_per_command(self, capsys, monkeypatch):
        # main's validating read is the width every text line is wrapped at
        calls, read = [], cli._wrap_width

        def counted():
            calls.append(None)
            return read()

        monkeypatch.setenv("DEGENBELL_WIDTH", "20")
        monkeypatch.setattr(cli, "_wrap_width", counted)
        code, out = run_cli(capsys, "table", "--kind", "deg-stirling2", "--n-max", "20")
        assert code == 0
        assert out.count("\n") > 231  # 231 entries, the long ones wrapped
        assert len(calls) == 1

    @pytest.mark.parametrize("width", [100, 20])
    def test_wrapping_splits_no_token(self, capsys, monkeypatch, width):
        # S2_l(140, 1) = (1)_{139,l} has coefficients longer than either width;
        # a line breaks only at a space, so joining the lines gives the polynomial
        poly = KINDS["deg-stirling2"].build(140, 1)
        assert max(map(len, str(poly).split())) > 100
        monkeypatch.setenv("DEGENBELL_WIDTH", str(width))
        code, out = run_cli(capsys, "poly", "--kind", "deg-stirling2", "-n", "140", "-k", "1")
        assert code == 0
        assert " ".join(line.strip() for line in out.splitlines()) == str(poly)

    @pytest.mark.parametrize("width", ["abc", "5", "-3", "1.5"])
    def test_bad_width_is_a_usage_error(self, capsys, monkeypatch, width):
        # found before anything is written, in every format
        monkeypatch.setenv("DEGENBELL_WIDTH", width)
        for fmt in ("text", "json"):
            with pytest.raises(SystemExit) as exc:
                main(["poly", "--kind", "deg-fubini", "-n", "6", "--format", fmt])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: degenbell poly ")
            assert f"DEGENBELL_WIDTH must be an integer of at least 20, got {width!r}" in captured.err

    @pytest.mark.parametrize("width", ["", "20", "100"])
    def test_width_20_and_up_or_empty(self, capsys, monkeypatch, width):
        # deg-fubini n=6 wraps at the width, and at 100 if the value is empty
        argv = ("poly", "--kind", "deg-fubini", "-n", "6")
        monkeypatch.delenv("DEGENBELL_WIDTH", raising=False)
        _, unset = run_cli(capsys, *argv)
        monkeypatch.setenv("DEGENBELL_WIDTH", width)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert (out == unset) == (width != "20")
        assert max(map(len, out.splitlines())) <= int(width or 100)


# The line shapes the CLI wraps: tokens with no whitespace joined by single
# spaces, some longer than any width, with at most a two-space lead before a
# short first token (a counterexample's "  lhs: ..." lines).
_no_space = st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"))
_short_tokens = st.text(_no_space, min_size=1, max_size=8)
_tokens = _short_tokens | st.integers(1, 160).map(lambda n: "9" * n)


@st.composite
def cli_lines(draw):
    lead = draw(st.booleans())
    first = draw(_short_tokens if lead else _tokens)
    rest = draw(st.lists(_tokens, max_size=60))
    return ("  " if lead else "") + " ".join([first, *rest])


class TestWrapLine:
    @given(line=cli_lines(), width=st.integers(20, 140))
    @settings(max_examples=300, deadline=None)
    def test_equals_textwrap(self, line, width):
        # textwrap is the reference here only: the CLI does not load it
        reference = textwrap.wrap(
            line, width, subsequent_indent="    ", break_long_words=False, break_on_hyphens=False
        )
        assert cli._wrap_line(line, width) == "\n".join(reference)


# Strings that exercise every escape: quotes, backslashes, control, DEL and
# non-ASCII characters, including one outside the basic multilingual plane.
json_strings = st.text() | st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600a ')
)
json_data = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | json_strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=24,
)


# Trees with Poly leaves: the zero polynomial, constants, negative and
# Fraction coefficients, all four variables and multi-digit exponents.
poly_trees = st.recursive(
    polys(max_terms=5, max_exp=11) | st.integers() | json_strings | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=12,
)


def _to_json_leaves(data):
    if isinstance(data, Poly):
        return data.to_json()
    if isinstance(data, dict):
        return {key: _to_json_leaves(value) for key, value in data.items()}
    if isinstance(data, list):
        return [_to_json_leaves(value) for value in data]
    return data


class TestJsonText:
    @given(data=json_data)
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps_indent_2(self, data):
        assert _json_text(data) == json.dumps(data, indent=2) + "\n"

    @given(data=poly_trees)
    @settings(max_examples=300, deadline=None)
    def test_poly_leaf_equals_its_to_json(self, data):
        assert _json_text(data) == json.dumps(_to_json_leaves(data), indent=2) + "\n"

    def test_library_to_json_is_unchanged(self):
        # the default leaf is Poly.to_json, so library callers get plain JSON data
        assert build_table("deg-stirling2", 2).to_json() == {
            "kind": "deg-stirling2",
            "bounds": {"n_max": 2},
            "provenance": "recurrence",
            "values": [
                {"n": 0, "k": 0, "poly": [{"m": {}, "c": "1"}]},
                {"n": 1, "k": 0, "poly": []},
                {"n": 1, "k": 1, "poly": [{"m": {}, "c": "1"}]},
                {"n": 2, "k": 0, "poly": []},
                {"n": 2, "k": 1, "poly": [{"m": {}, "c": "1"}, {"m": {"l": 1}, "c": "-1"}]},
                {"n": 2, "k": 2, "poly": [{"m": {}, "c": "1"}]},
            ],
        }
        series = Series([Fraction(-1, 2), 0, Poly({(1, 0, 0, 0): 3, (0, 2, 1, 0): Fraction(2, 3)})])
        assert series.to_json() == {
            "order": 2,
            "egf_coeffs": [
                [{"m": {}, "c": "-1/2"}],
                [],
                [{"m": {"l": 1}, "c": "3"}, {"m": {"x": 2, "y": 1}, "c": "2/3"}],
            ],
        }

    @pytest.mark.parametrize(
        "argv,document",
        [
            ("table --kind two-var-deg-fubini --alpha 2 --n-max 5 --format json",
             lambda: build_table("two-var-deg-fubini", 5, alpha=2)),
            ("series --gf two-var-fubini:2 --order 8 --format json",
             lambda: _named_series("two-var-fubini:2", 8)),
        ],
    )
    def test_cli_output_is_dump_of_library_to_json(self, capsys, argv, document):
        _, out = run_cli(capsys, *argv.split())
        assert out == json.dumps(document().to_json(), indent=2) + "\n"

    def test_one_poly_at_two_depths(self):
        # the term heads are kept per indent in the store, so each depth gets its own
        algebra._kept.cache_clear()
        p = Poly({(0, 0, 0, 0): Fraction(-1, 2), (1, 2, 0, 3): 5, (2, 0, 1, 0): 1})
        data = {"top": p, "nested": [{"deeper": [p, Poly()]}], "again": p}
        assert _json_text(data) == json.dumps(_to_json_leaves(data), indent=2) + "\n"

    def test_no_import_per_node(self, monkeypatch):
        # the writer resolves Poly once per document, not at each of its nodes
        table = build_table("deg-stirling2", 23)
        assert len(table.values) == 300
        data, expected = table.to_json(leaf=cli._poly_leaf), json.dumps(table.to_json(), indent=2)
        calls, real = [], builtins.__import__

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counted)
        assert _json_text(data) == expected + "\n"
        assert len(calls) <= 1

    def test_empty_and_nested_containers(self):
        data = {"a": [], "b": {}, "c": [[], {}, ()], "": [{"": None}]}
        assert _json_text(data) == json.dumps(data, indent=2) + "\n"

    @pytest.mark.parametrize(
        "data",
        [1.5, 0.0, float("nan"), [1, 2.5], {"c": {"d": -0.0}}, {1: "x"}, {None: 1},
         {("n", "k"): 1}, {"a": {1: 2}}, object(), [Fraction(1, 2)], {"s": {1, 2}}, b"bytes"],
    )
    def test_other_data_raises_type_error(self, data):
        with pytest.raises(TypeError):
            _json_text(data)


# Option values for the fuzz test: (valid, malformed).  Bounds stay at most 3.
INTS = (["0", "1", "2", "3"], ["-1", "x", ""])
BINDS = (["l=1/2", "l=-1/3", "x=2", "y=0", "t=3/2"], ["l=", "q=1", "l=0.5", "l=1/0", "=3", "l"])
GFS = (
    ["deg-exp", "deg-bell", "fully-deg-bell", "deg-fubini", "two-var-fubini:2"],
    ["two-var-fubini:-1", "two-var-fubini:x", "nope"],
)


@st.composite
def cli_argv(draw):
    """argv from the documented subcommands and flags, each optional flag
    drawn or left out.  At most one value is malformed, so that a usage
    error on one flag never hides the path another value takes."""
    bad_slot = draw(st.integers(min_value=-1, max_value=7))  # -1: none
    slots = itertools.count()
    command = draw(st.sampled_from(["table", "poly", "series", "verify", "limit"]))
    argv = [command]

    def value(values):
        valid, bad = values
        return draw(st.sampled_from(bad if next(slots) == bad_slot else valid))

    def flag(name, values, required=False):
        if required or draw(st.booleans()):
            argv.extend([name, value(values)])

    if command in ("table", "poly", "limit"):
        kinds = LIMIT_KINDS if command == "limit" else TABLE_KINDS
        flag("--kind", (list(kinds), ["nope"]), required=True)
        flag("--alpha", INTS)
    if command in ("table", "verify", "limit"):
        flag("--n-max", INTS, required=True)  # every default bound is above 3
    if command == "table":
        flag("--k-max", INTS)
    elif command == "poly":
        flag("-n", INTS, required=True)
        flag("-k", INTS)
    elif command == "series":
        flag("--gf", GFS, required=True)
        flag("--order", INTS, required=True)
    elif command == "verify":
        if draw(st.booleans()):
            argv.append("--all")
        else:
            flag("--id", ([i.value for i in Identity], ["nope"]), required=True)
        flag("--m-max", INTS, required=True)
        flag("--mode", (["symbolic", "rational"], ["numeric"]))
    formats = ["text", "json", "csv"] if command in ("table", "limit") else ["text", "json"]
    flag("--format", (formats, ["xml"]))
    if command != "limit":  # limit takes no --bind
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            argv.extend(["--bind", value(BINDS)])
    return argv


class TestFuzz:
    @given(argv=cli_argv())
    @settings(max_examples=200, deadline=None)
    def test_any_documented_argv_exits_0_1_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())


SRC = str(Path(__file__).resolve().parents[1] / "src")
# block-buffered stdout, as perfbench's children have it, and a fixed help width
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "PYTHONPATH": SRC,
    "COLUMNS": "80",
}
ONE_LINE = ["series", "--gf", "deg-exp", "--order", "0"]
FIVE_MB = ["table", "--kind", "deg-stirling2", "--n-max", "60", "--format", "json"]


def run_child(argv, **kwargs):
    """`python -m degenbell.cli` (argv) in a child, which exits through `run`."""
    return subprocess.run(
        [sys.executable, "-m", "degenbell.cli", *argv], env=CHILD_ENV, **kwargs
    )


class TestEntryPoint:
    """`run` ends its process, so it is only ever exercised in a child."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["table", "--kind", "deg-stirling2", "--n-max", "3", "--format", "json"],
            ["verify", "--id", "deg-vandermonde", "--n-max", "2"],
            ["verify", "--id", "no-such-identity"],
            ["table", "--kind", "deg-bell", "--n-max", "2", "--output", "missing/out.txt"],
            ["poly", "--kind", "deg-bell", "-n", "2", "--output", ""],
        ],
        ids=["help", "json-table", "verify-text", "usage-error", "failed-output", "empty-output"],
    )
    def test_child_matches_in_process_main(self, argv, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)  # where missing/ is missing, for both runs
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        proc = run_child(argv, capture_output=True, text=True, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.getvalue(), err.getvalue())

    def test_numbers_past_the_int_digit_limit_parse_and_print(self):
        # CPython refuses int <-> str past 4,300 digits by default, and run
        # lifts that limit: x parses from 4,400 digits, and x*(x - 1) for an
        # x of 2,200 digits prints its 4,400, in text and in JSON
        sevens = "7" * 4400
        x = int(sevens[:2200])
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:  # lifted here too, to spell out x*(x - 1)
            sys.set_int_max_str_digits(0)
        try:
            value = str(x * (x - 1))
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        two = ["-n", "2", "--bind", f"x={x}"]
        for argv, out in (
            (["-n", "1", "--bind", f"x={sevens}"], sevens + "\n"),
            (two, value + "\n"),
            ([*two, "--format", "json"], json.dumps([{"m": {}, "c": value}], indent=2) + "\n"),
        ):
            argv = ["poly", "--kind", "falling-factorial", *argv]
            proc = run_child(argv, capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    def test_teardown_is_skipped(self):
        code = (
            "import atexit, runpy, sys\n"
            "atexit.register(lambda: sys.stderr.write('teardown ran\\n'))\n"
            f"sys.argv = ['degenbell', *{ONE_LINE!r}]\n"
            "runpy.run_module('degenbell.cli', run_name='__main__')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0: 1\n", "")

    @staticmethod
    def _assert_failed_stdout(proc, strerror):
        assert proc.returncode == 2
        assert proc.stderr == f"degenbell: error: cannot write stdout: {strerror}\n"

    @pytest.mark.parametrize("argv", [ONE_LINE, FIVE_MB], ids=["one-line", "5MB"])
    def test_closed_pipe_exits_2_with_one_line(self, argv):
        # one line fails at run's flush; 5 MB fails inside _emit's write
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_child(argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        self._assert_failed_stdout(proc, os.strerror(errno.EPIPE))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    @pytest.mark.parametrize("argv", [ONE_LINE, FIVE_MB], ids=["one-line", "5MB"])
    def test_full_device_exits_2_with_one_line(self, argv):
        with open("/dev/full", "wb") as full:
            proc = run_child(argv, stdout=full, stderr=subprocess.PIPE, text=True)
        self._assert_failed_stdout(proc, os.strerror(errno.ENOSPC))

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="no /bin/sh here")
    def test_closed_stdout_descriptor(self):
        # started with fd 1 closed, Python has no sys.stdout at all
        def with_fd1_closed(argv):
            script = 'exec "$0" -m degenbell.cli "$@" >&-'
            return subprocess.run(
                ["/bin/sh", "-c", script, sys.executable, *argv],
                stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
            )

        # a help, top-level or a subcommand's, is stdout output too: argparse
        # alone would print it to stderr and exit 0
        for argv in (ONE_LINE, ["--help"], ["table", "--help"]):
            self._assert_failed_stdout(with_fd1_closed(argv), os.strerror(errno.EBADF))

    def test_failed_stdout_write_in_process_exits_2(self):
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        err = io.StringIO()
        with contextlib.redirect_stdout(FullStdout()), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(ONE_LINE)
        assert exc.value.code == 2
        assert err.getvalue() == (
            f"degenbell: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        )

    @staticmethod
    def _loaded_in_child(modules, argv=None):
        """Those of ``modules`` that a fresh child has loaded after importing
        the CLI and, given ``argv``, running it in-process with stdout dropped."""
        code = "import sys, degenbell.cli\n"
        if argv is not None:
            code += (
                "import contextlib, io\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert degenbell.cli.main({argv!r}) == 0\n"
            )
        code += f"print(*[m for m in {modules!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV, check=True
        )
        return proc.stdout.split()

    def test_import_loads_no_module_only_some_commands_use(self):
        # dataclasses pulls in inspect; csv serves --format csv, long lines wrap
        # without textwrap, and the JSON writer needs only the C escaper of _json
        lazy = ("dataclasses", "inspect", "csv", "textwrap", "json")
        # the library loads per subcommand, once the command line names it
        library = tuple(
            f"degenbell.{name}" for name in ("algebra", "classical", "sequences", "series", "verify")
        )
        assert self._loaded_in_child(lazy + library + ("fractions", "decimal")) == []
        table = ["table", "--kind", "deg-bell", "--n-max", "1"]
        assert self._loaded_in_child(("degenbell.series", "degenbell.verify"), table) == []
        series = ["series", "--gf", "deg-exp", "--order", "1"]
        assert self._loaded_in_child(("degenbell.verify",), series) == []
        # some of its lines are longer than the default width of 100
        limit = ["limit", "--kind", "fully-deg-bell", "--n-max", "12"]
        assert self._loaded_in_child(("textwrap",), limit) == []

    def test_every_public_name_resolves_from_a_fresh_import(self):
        # the package namespace imports a submodule on first use of one of its
        # names, and lists every name before any is used
        submodules = ("algebra", "classical", "cli", "sequences", "series", "verify")
        code = (
            "import degenbell\n"
            "listed = set(dir(degenbell))\n"
            "names = {name: getattr(degenbell, name) for name in degenbell.__all__}\n"
            f"modules = [getattr(degenbell, name) for name in {submodules!r}]\n"
            "owned = [n for n, v in names.items() if any(vars(m).get(n) is v for m in modules)]\n"
            "print(len(names), len(owned), *(m.__name__ for m in modules))\n"
            f"print(hasattr(degenbell, 'no_such_name'), listed.issuperset([*names, *{submodules!r}]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV, check=True
        )
        expected = " ".join(f"degenbell.{name}" for name in submodules)
        assert proc.stdout == f"24 24 {expected}\nFalse True\n"

    def test_whole_commands_run_at_a_low_recursion_limit(self):
        # a fresh child, so that each lazy import of the library runs inside a
        # command.  The first one reaches the stdlib's fractions -> decimal chain
        # there: the five need a limit of 58 on 3.10, 54 on 3.11 and 44 on 3.12
        # and 3.13 (3.10 and 3.11 count C calls too).  A builder that recursed
        # once per n would not fit: n is 80 for the poly, and 60 for the table.
        runs = [
            "poly --kind fully-deg-bell -n 80",
            "table --kind deg-fubini --n-max 60",
            "verify --all --n-max 8 --m-max 8",
            "series --gf two-var-fubini:2 --order 12",
            "limit --kind deg-bell --n-max 20",
        ]
        code = (
            "import contextlib, io, sys\n"
            "from degenbell.cli import main\n"
            "sys.setrecursionlimit(60)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv.split()) for argv in {runs!r}]\n"
            "print(*codes)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0 0 0 0\n", "")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "degenbell.cli", "series", "--gf", "deg-exp", "--order", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0: 1\n1: 1\n"
