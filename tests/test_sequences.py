"""Degenerate families: factorials, Stirling routes, Bell/Fubini polynomials."""

import copy
import inspect
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest

from degenbell import algebra, classical, sequences
from degenbell.algebra import LAM, ONE, ZERO, Poly, T, Var, X, Y, _kept, var_from_symbol
from degenbell.cli import main
from degenbell.sequences import (
    KINDS,
    LIMIT_KINDS,
    LINEAR_KINDS,
    TABLE_KINDS,
    TRIANGULAR_KINDS,
    bell_deg,
    bell_fully_deg,
    build_table,
    classical_counterpart,
    falling_factorial,
    falling_factorial_deg,
    fubini_deg,
    fubini_two_var_alpha,
    rising_factorial,
    stirling2_deg,
    unit_falling_factorial_deg,
)
from degenbell.series import Series
from oracles import (
    bell_fully_deg_products,
    coefficient_of,
    const_value,
    pow_over_factorial,
    product_plain,
    stirling2_deg_basis_table,
    stirling2_deg_rows_plain,
    table_from_json,
)


@pytest.fixture
def cold_rows(monkeypatch):
    """Both degenerate triangles back at row 0 for one test."""
    for c in (0, 1):
        monkeypatch.delitem(_kept(("top", c)), 0, raising=False)


def _read_in_racing_threads(read, n, workers=8):
    """Calls read(j) for j = 0..n in each of `workers` threads started
    together, switching threads every microsecond; every thread must finish
    without an exception."""
    start = threading.Barrier(workers)
    errors = []

    def reader():
        try:
            start.wait(timeout=30)
            for j in range(n + 1):
                read(j)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


class TestFactorials:
    def test_falling_deg(self):
        assert falling_factorial_deg(X, 2) == X**2 - LAM * X
        assert falling_factorial_deg(ONE, 3) == 1 - 3 * LAM + 2 * LAM**2
        assert falling_factorial_deg(Y + T, 0) == ONE

    def test_falling_classical(self):
        assert falling_factorial(X, 3) == X**3 - 3 * X**2 + 2 * X
        assert falling_factorial(X, 0) == ONE
        assert falling_factorial(X, 1) == X

    def test_rising(self):
        assert rising_factorial(1, 4) == Poly.const(24)
        assert rising_factorial(X, 0) == ONE
        assert rising_factorial(2, 3) == Poly.const(24)

    def test_negative_count_rejected(self):
        for fn in (falling_factorial_deg, falling_factorial, rising_factorial):
            with pytest.raises(ValueError):
                fn(X, -1)

    def test_scalar_base_promotion(self):
        assert falling_factorial_deg(2, 2) == 2 * (2 - LAM)

    def test_shared_list_reads_the_plain_product(self):
        factorials = ((falling_factorial_deg, -LAM), (falling_factorial, -1), (rising_factorial, 1))
        _kept.cache_clear()  # so each list starts at its first read
        for base in (ONE, X, 3 - 2 * LAM, X + Y, 2, Fraction(1, 2)):
            for fn, step in factorials:
                for n in (4, 0, 6, 2):  # out of order: a read below the list's end extends nothing
                    assert fn(base, n) == product_plain(base, n, step), (base, step, n)

    def test_table_takes_one_product_per_n(self, monkeypatch, capsys):
        calls, mul = [], Poly.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        _kept.cache_clear()  # so (x)_{n,l} is built here, not read
        monkeypatch.setattr(Poly, "__mul__", counted)
        monkeypatch.setattr(Poly, "__rmul__", counted)
        n_max = 30
        assert main(["table", "--kind", "deg-falling-factorial", "--n-max", str(n_max)]) == 0
        assert f"\nn={n_max}: " in capsys.readouterr().out
        # one step factor i*(-l) and one product per n
        assert len(calls) <= 2 * n_max

    def test_shared_list_under_racing_threads(self):
        base = Y + 7 * T - 5 * LAM  # read by no other test, so its list starts at (base)_0
        n = 30
        _read_in_racing_threads(lambda j: falling_factorial_deg(base, j), n)
        # a lost or doubled extension would leave a wrong or missing entry
        assert _kept((base, sequences._DEG_STEP)) == {
            j: product_plain(base, j, -LAM) for j in range(n + 1)
        }


class TestStirlingDeg:
    def test_base_cases(self):
        assert stirling2_deg(0, 0) == ONE
        for n in range(1, 6):
            assert stirling2_deg(n, 0).is_zero()
        assert stirling2_deg(2, 5).is_zero()
        assert stirling2_deg(-1, 0).is_zero()

    def test_hand_values(self):
        assert stirling2_deg(2, 1) == ONE - LAM
        assert stirling2_deg(3, 2) == 3 - 3 * LAM
        assert stirling2_deg(3, 1) == 1 - 3 * LAM + 2 * LAM**2

    def test_boundary_identities(self):
        # top of each column is 1; first column is (1)_{n,l}
        for n in range(1, 10):
            assert stirling2_deg(n, n) == ONE
            assert stirling2_deg(n, 1) == unit_falling_factorial_deg(n)

    def test_lambda_degree_bound(self):
        for n in range(10):
            for k in range(n + 1):
                assert stirling2_deg(n, k).degree_in(Var.LAMBDA) <= n - k

    def test_row_past_lowered_recursion_limit(self, cold_rows):
        # rows are built bottom-up: row 100 from a cold memo needs no deep stack
        expected = unit_falling_factorial_deg(100)
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            first, top = stirling2_deg(100, 1), stirling2_deg(100, 100)
        finally:
            sys.setrecursionlimit(limit)
        assert first == expected
        assert top == ONE

    def test_rows_under_racing_threads(self):
        _kept.cache_clear()  # the top rows and the keys of l^d: every first read races
        n = 60
        reads = []
        _read_in_racing_threads(
            lambda j: reads.append((j, stirling2_deg(j, 1), stirling2_deg(j, j // 2))), n
        )
        # a torn (n, row) pair or a row changed in place would give a wrong entry
        plain = stirling2_deg_rows_plain(n)
        assert len(reads) == 8 * (n + 1)
        for j, first, middle in reads:
            assert (first, middle) == ((plain[j] + [ZERO])[1], plain[j][j // 2]), j
        top, row = _kept(("top", 0))[0]
        assert [Poly._from_l_coeffs(coeffs) for coeffs in row] == plain[top]

    def test_rows_read_descending_then_ascending(self, cold_rows):
        # every read below the top row restarts the stepper at row 0
        n = 14
        plain = stirling2_deg_rows_plain(n)
        for m in (*range(n, -1, -1), *range(n + 1)):
            assert [stirling2_deg(m, k) for k in range(m + 1)] == plain[m], m

    def test_single_entry_memory_from_cold_memo(self, cold_rows):
        # one entry keeps one row of S2_l at a time: every row up to 120 took
        # 25 MiB at peak when the memo kept them all
        tracemalloc.start()
        try:
            entry = stirling2_deg(120, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entry.eval({Var.LAMBDA: 0}) == Poly.const(classical.stirling2(120, 60))
        assert peak < 4 * 2**20

    def test_bell_fully_deg_past_lowered_recursion_limit(self, cold_rows):
        # the U_l rows are stepped up in a loop too: Bel_{100,l} from cold rows
        expected = unit_falling_factorial_deg(100)
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            bell = bell_fully_deg(100)
        finally:
            sys.setrecursionlimit(limit)
        # U_l(100, 1) = U_l(100, 100) = (1)_{100,l}, and l = 0 gives phi_100(x)
        assert coefficient_of(bell, Var.X, 1) == expected
        assert coefficient_of(bell, Var.X, 100) == expected
        assert bell.eval({Var.LAMBDA: 0}) == classical.bell_poly(100)

    def test_classical_limit_triangle(self):
        for n in range(9):
            for k in range(n + 1):
                at_zero = stirling2_deg(n, k).eval({Var.LAMBDA: 0})
                assert at_zero == Poly.const(classical.stirling2(n, k))


class TestStirlingOracles:
    def test_rows_equal_plain_recurrence(self):
        rows = stirling2_deg_rows_plain(12)
        for n in range(13):
            assert [stirling2_deg(n, k) for k in range(n + 1)] == rows[n]

    def test_change_of_basis_rows(self):
        table = dict(stirling2_deg_basis_table(2).values)
        assert table[(1, 0)].is_zero()
        assert table[(1, 1)] == ONE
        assert table[(2, 0)].is_zero()
        assert table[(2, 1)] == ONE - LAM
        assert table[(2, 2)] == ONE

    def test_recurrence_matches_change_of_basis(self):
        table = dict(stirling2_deg_basis_table(8).values)
        for (n, k), value in table.items():
            assert value == stirling2_deg(n, k), (n, k)

    def test_recurrence_matches_egf_route(self):
        order = 8
        em1 = Series.deg_exp(1, order) - Series.unit(order)
        for k in range(order + 1):
            gf = pow_over_factorial(em1, k)
            for n in range(order + 1):
                assert gf.coeff(n) == stirling2_deg(n, k), (n, k)


class TestUnitRows:
    """U_l(n,k) = (1)_{k,l} S2_l(n,k), stepped up row by row, and the
    Bel_{n,l}(x) = sum_k U_l(n,k) x^k built from them."""

    N = 14

    def test_rows_are_the_weighted_stirling_entries(self, cold_rows):
        for n in (*range(self.N + 1), 3, self.N, 0, 1):  # up, then below the top
            row = sequences._row(1, n)
            assert len(row) == n + 1
            for k, coeffs in enumerate(row):
                u = Poly({(d, 0, 0, 0): c for d, c in enumerate(coeffs)})
                assert u == unit_falling_factorial_deg(k) * stirling2_deg(n, k), (n, k)

    @pytest.mark.parametrize("x_arg", [X, T, ONE, -LAM * T], ids=["x", "t", "one", "-lt"])
    def test_bell_against_products_out_of_order(self, cold_rows, x_arg):
        # the top first, then descending: every later request restarts at row 0
        for n in range(self.N, -1, -1):
            assert bell_fully_deg(n, x_arg) == bell_fully_deg_products(n, x_arg), n

    def test_bell_memory_from_cold_memos(self, cold_rows):
        # a cold Bel_{40,l} keeps one row of U_l at a time: no S2_l rows and no
        # (1)_{k,l} list, whose Poly terms took 1.4 MiB on the product route
        _kept.cache_clear()
        tracemalloc.start()
        try:
            bell_fully_deg(40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * 2**20


class TestKeptStore:
    """Every sequence kept across calls is an entry of `algebra._kept`, so no
    module-level memo is left and one cache_clear() resets the process."""

    def test_no_module_level_memo(self, monkeypatch, capsys):
        def memo_globals():
            return {
                (module.__name__, name): copy.deepcopy(value)
                for module in (algebra, sequences, classical)
                for name, value in vars(module).items()
                if isinstance(value, (list, dict)) and not name.startswith("__")
            }

        before = memo_globals()
        assert main(["verify", "--all", "--n-max", "3", "--m-max", "3"]) == 0
        assert main(["table", "--kind", "deg-stirling2", "--n-max", "10"]) == 0
        capsys.readouterr()
        assert memo_globals() == before
        # every functools cache of the package, found as perfbench's scan finds them
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "degenbell"]
        caches = {
            id(value): value
            for module in package
            for value in vars(module).values()
            if callable(getattr(value, "cache_clear", None))
            and callable(getattr(value, "cache_info", None))
        }
        names = sorted(fn.__name__ for fn in caches.values())
        assert names == ["_fubini_deg", "_json_heads", "_kept"]
        stirling2_deg(4, 1)  # the top row of S2_l is now row 4
        for fn in caches.values():
            fn.cache_clear()
        assert _kept.cache_info().currsize == 0
        reads = []

        def spy(key):
            reads.append((key, dict(_kept(key))))
            return _kept(key)

        monkeypatch.setattr(sequences, "_kept", spy)
        assert stirling2_deg(6, 2) == stirling2_deg_rows_plain(6)[6][2]
        # the top row was read empty, so S2_l(6, 2) stepped up from row 0, not row 4
        assert reads == [(("top", 0), {})]


class TestBellFamilies:
    @pytest.mark.parametrize(
        "family",
        [bell_deg, bell_fully_deg, fubini_deg, lambda n: fubini_two_var_alpha(n, 2)],
        ids=["bell_deg", "bell_fully_deg", "fubini_deg", "fubini_two_var_alpha"],
    )
    def test_negative_n_rejected(self, family):
        family(6)  # a warm memo must not answer either
        for n in (-1, -3):
            with pytest.raises(ValueError):
                family(n)

    def test_bell_deg_values(self):
        assert bell_deg(0) == ONE
        assert bell_deg(2) == (ONE - LAM) * X + X**2

    def test_bell_deg_classical_numbers(self):
        values = [
            const_value(bell_deg(n).eval({Var.LAMBDA: 0, Var.X: 1})) for n in range(5)
        ]
        assert values == [1, 1, 2, 5, 15]

    def test_bell_fully_deg_values(self):
        assert bell_fully_deg(0) == ONE
        assert bell_fully_deg(1) == X
        assert bell_fully_deg(2) == (ONE - LAM) * (X + X**2)

    def test_bell_fully_deg_classical_limit(self):
        for n in range(9):
            assert bell_fully_deg(n).eval({Var.LAMBDA: 0}) == classical.bell_poly(n)

    def test_families_agree_at_lambda_zero(self):
        for n in range(9):
            assert bell_fully_deg(n).eval({Var.LAMBDA: 0}) == bell_deg(n).eval(
                {Var.LAMBDA: 0}
            )


class TestFubiniFamilies:
    def test_fubini_deg_values(self):
        assert fubini_deg(1) == X
        assert fubini_deg(2) == (ONE - LAM) * X + 2 * X**2

    def test_fubini_classical_limit(self):
        for n in range(9):
            assert fubini_deg(n).eval({Var.LAMBDA: 0}) == classical.fubini_poly(n)
        at_one = fubini_deg(2).eval({Var.LAMBDA: 0, Var.X: 1})
        assert const_value(at_one) == 3

    def test_order_one_is_fubini(self):
        # <1>_k = k!, so the order-1 polynomial is F_{n,l}(x)
        for n in range(9):
            assert fubini_deg(n, 1) == fubini_deg(n)
            assert fubini_deg(n, 1) == sum(
                (factorial(k) * stirling2_deg(n, k) * X**k for k in range(n + 1)), ZERO
            )

    def test_order_one_spellings_share_one_memo_entry(self):
        # the deg-fubini kind calls fubini_deg(j), fubini_two_var_alpha fubini_deg(j, 1)
        sequences._fubini_deg.cache_clear()
        for j in range(6):
            first = fubini_deg(j)
            assert first is fubini_deg(j, 1) is fubini_deg(j, alpha=1) is fubini_deg(j, 1, X)
        assert sequences._fubini_deg.cache_info().currsize == 6

    def test_two_var_at_x_zero(self):
        for n in range(7):
            for alpha in range(4):
                reduced = fubini_two_var_alpha(n, alpha).eval({Var.X: 0})
                assert reduced == falling_factorial_deg(Y, n)

    def test_two_var_small(self):
        assert fubini_two_var_alpha(1, 1) == X + Y

    def test_two_var_at_y_zero(self):
        for n in range(7):
            for alpha in range(4):
                reduced = fubini_two_var_alpha(n, alpha).eval({Var.Y: 0})
                expected = Poly.zero()
                for k in range(n + 1):
                    expected = expected + (
                        const_value(rising_factorial(alpha, k))
                        * stirling2_deg(n, k)
                        * X**k
                    )
                assert reduced == expected

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            fubini_two_var_alpha(2, -1)


class TestSeriesOracleAgreement:
    N = 10

    def setup_method(self):
        self.unit = Series.unit(self.N)
        self.em1 = Series.deg_exp(1, self.N) - self.unit

    def test_bell_fully_deg_gf(self):
        from degenbell.series import deg_exp_of

        gf = deg_exp_of(X * self.em1)
        for n in range(self.N + 1):
            assert gf.coeff(n) == bell_fully_deg(n)

    def test_bell_deg_gf(self):
        from degenbell.series import exp_of

        gf = exp_of(X * self.em1)
        for n in range(self.N + 1):
            assert gf.coeff(n) == bell_deg(n)

    def test_fubini_deg_gf(self):
        gf = (self.unit - X * self.em1).reciprocal()
        for n in range(self.N + 1):
            assert gf.coeff(n) == fubini_deg(n)

    def test_fubini_of_order_two_gf(self):
        gf = (self.unit - X * self.em1).reciprocal().int_pow(2)
        for n in range(self.N + 1):
            assert gf.coeff(n) == fubini_deg(n, 2)

    def test_two_var_gf(self):
        recip = (self.unit - X * self.em1).reciprocal()
        ey = Series.deg_exp(Y, self.N)
        for alpha in range(4):
            gf = recip.int_pow(alpha) * ey
            for n in range(self.N + 1):
                assert gf.coeff(n) == fubini_two_var_alpha(n, alpha)


class TestSpecialize:
    # an argument is given to the family builder; rational values go to Poly.eval
    def test_polynomial_argument(self):
        two_var = fubini_two_var_alpha(1, 1)
        assert two_var.substitute(Var.X, -LAM).substitute(Var.Y, ONE - LAM) == 1 - 2 * LAM

    def test_rational_binding(self):
        assert bell_fully_deg(2).eval({Var.X: 1}) == 2 - 2 * LAM
        assert bell_fully_deg(2, ONE) == 2 - 2 * LAM

    def test_string_binding(self):
        assert (X**2).eval({Var.X: "1/2"}) == Poly.const(Fraction(1, 4))

    def test_empty(self):
        p = bell_deg(3)
        assert p.eval({}) == p

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            var_from_symbol("z")

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            bell_fully_deg(2).eval({Var.LAMBDA: 0.1})


# the arguments the Spivey sums evaluate the families at
X_ARGS = (ONE, T, -LAM, -LAM * T)


class TestFamiliesAtArguments:
    # a builder taken at an argument equals the plain family with the
    # argument substituted, which stays the reference
    @pytest.mark.parametrize("x_arg", X_ARGS)
    def test_bell_fully_deg(self, x_arg):
        for j in range(7):
            assert bell_fully_deg(j, x_arg) == bell_fully_deg(j).substitute(Var.X, x_arg)

    @pytest.mark.parametrize("x_arg", X_ARGS)
    def test_fubini_deg(self, x_arg):
        for j in range(7):
            for alpha in range(4):
                expected = fubini_deg(j, alpha).substitute(Var.X, x_arg)
                assert fubini_deg(j, alpha, x_arg) == expected

    @pytest.mark.parametrize("x_arg", X_ARGS)
    def test_fubini_two_var_alpha(self, x_arg):
        # F^(k)_{j,l}(x, y) = sum_i C(j,i) F^(k)_{i,l}(x) (y)_{j-i,l} at the
        # arguments of the Spivey sums, the factorisation G = A_k <*> Y_{k,m}
        # that their heads and tails are built from
        for k in range(4):
            y_args = [Y] + [Poly.const(k) - m * LAM for m in range(4)]
            for j in range(7):
                plain = fubini_two_var_alpha(j, k).substitute(Var.X, x_arg)
                for y in y_args:
                    convolution = sum(
                        (
                            comb(j, i) * fubini_deg(i, k, x_arg) * falling_factorial_deg(y, j - i)
                            for i in range(j + 1)
                        ),
                        Poly.zero(),
                    )
                    assert plain.substitute(Var.Y, y) == convolution

    @pytest.mark.parametrize("x_arg", [X + T, ONE - LAM, ZERO], ids=["x+t", "1-l", "zero"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: bell_fully_deg(3, x),
            lambda x: bell_fully_deg(0, x),
            lambda x: fubini_deg(3, 2, x),
        ],
        ids=["bell", "bell-0", "fubini"],
    )
    def test_argument_of_other_than_one_term_rejected(self, build, x_arg):
        # a family is built from its rows at a one-term argument only
        with pytest.raises(ValueError, match="one-term argument"):
            build(x_arg)

    @pytest.mark.parametrize("x_arg", X_ARGS)
    def test_classical_fubini_poly(self, x_arg):
        for j in range(7):
            expected = classical.fubini_poly(j).substitute(Var.X, x_arg)
            assert classical.fubini_poly(j, x_arg) == expected


class TestTables:
    def test_build_triangular(self):
        table = build_table("deg-stirling2", 3)
        assert table.kind == "deg-stirling2"
        values = dict(table.values)
        assert values[(3, 2)] == 3 - 3 * LAM
        assert len(table.values) == 10

    def test_build_triangular_with_k_cap(self):
        table = build_table("deg-stirling2", 4, k_max=1)
        assert table.bounds == {"n_max": 4, "k_max": 1}
        assert all(k <= 1 for (_, k), _ in table.values)
        assert dict(table.values)[(4, 1)] == unit_falling_factorial_deg(4)

    def test_k_max_rejected_for_linear_kinds(self):
        for kind in ("deg-bell", "two-var-deg-fubini", "classical-bell"):
            with pytest.raises(ValueError, match="triangular"):
                build_table(kind, 2, k_max=0)

    def test_alpha_rejected_for_kinds_without_order(self):
        for kind in ("deg-bell", "deg-stirling2", "classical-fubini"):
            with pytest.raises(ValueError, match="alpha"):
                build_table(kind, 2, alpha=5)
        with pytest.raises(ValueError, match="alpha"):
            classical_counterpart("deg-bell", 2, alpha=7)

    def test_alpha_defaults_to_one(self):
        assert build_table("two-var-deg-fubini", 3) == build_table("two-var-deg-fubini", 3, alpha=1)
        reference = classical_counterpart("two-var-deg-fubini", 3)
        assert reference == classical_counterpart("two-var-deg-fubini", 3, alpha=1)
        assert reference.bounds == {"n_max": 3, "alpha": 1}

    def test_build_linear_with_alpha(self):
        table = build_table("two-var-deg-fubini", 2, alpha=2)
        assert table.bounds == {"n_max": 2, "alpha": 2}
        assert dict(table.values)[(1,)] == 2 * X + Y

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_table("nope", 3)
        with pytest.raises(ValueError):
            build_table("deg-bell", -1)

    def test_negative_k_max_rejected(self):
        # an empty table would pass vacuously, as the CLI's --k-max check says
        with pytest.raises(ValueError, match="k_max must be nonnegative"):
            build_table("deg-stirling2", 3, k_max=-1)
        assert build_table("deg-stirling2", 3, k_max=0).values[-1] == ((3, 0), Poly.zero())

    def test_negative_alpha_rejected_by_both_routes(self):
        # the degenerate table and its classical counterpart reject the same order
        for build in (build_table, classical_counterpart):
            with pytest.raises(ValueError, match="alpha must be nonnegative"):
                build("two-var-deg-fubini", 3, alpha=-1)
        assert classical_counterpart("two-var-deg-fubini", 3, alpha=0).bounds["alpha"] == 0

    def test_json_round_trip(self):
        table = build_table("deg-stirling2", 4)
        data = table.to_json()
        assert data["provenance"] == "recurrence"
        assert table_from_json(data) == table

    def test_csv_rows(self):
        rows = build_table("fully-deg-bell", 2).to_csv_rows()
        assert rows[0] == ["n", "value"]
        assert rows[3] == ["2", "x - l*x + x^2 - l*x^2"]
        triangle = build_table("deg-stirling2", 1).to_csv_rows()
        assert triangle[0] == ["n", "k", "value"]

    def test_basis_table_provenance(self):
        assert stirling2_deg_basis_table(3).provenance == "closed-form"

    def test_classical_counterpart_pairs(self):
        for kind in ("deg-bell", "fully-deg-bell", "deg-fubini", "deg-falling-factorial"):
            degenerate = build_table(kind, 6)
            reference = classical_counterpart(kind, 6)
            for (index, poly), (_, ref) in zip(degenerate.values, reference.values):
                assert poly.eval({Var.LAMBDA: 0}) == ref, (kind, index)

    def test_no_counterpart_rejected(self):
        for kind in ("falling-factorial", "classical-bell", "nope"):
            with pytest.raises(ValueError, match="counterpart"):
                classical_counterpart(kind, 2)

    def test_kind_tuples_derive_from_registry(self):
        assert TABLE_KINDS == TRIANGULAR_KINDS + LINEAR_KINDS == tuple(KINDS)
        assert TRIANGULAR_KINDS == ("deg-stirling2", "classical-stirling2")
        assert LIMIT_KINDS == (
            "deg-stirling2",
            "deg-bell",
            "fully-deg-bell",
            "deg-fubini",
            "two-var-deg-fubini",
            "deg-falling-factorial",
        )
        assert [kind for kind in KINDS if KINDS[kind].ordered] == ["two-var-deg-fubini"]

    def test_memoization_transparent(self):
        first = fubini_two_var_alpha(5, 2)
        # move the top rows up, then below: the next reads restart from row 0
        bell_fully_deg(9), stirling2_deg(9, 4), stirling2_deg(2, 1)
        assert fubini_two_var_alpha(5, 2) == first
        assert stirling2_deg(6, 3) == stirling2_deg(6, 3)
