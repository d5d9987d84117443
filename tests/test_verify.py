"""Identity verification harness: reports, cross-reductions, mutation detection."""

import hashlib
import json
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from degenbell import classical, sequences, verify
from degenbell.algebra import LAM, ONE, Poly, T, Var, X, Y, _kept, var_from_symbol
from degenbell.cli import _json_text, _poly_leaf, main
from degenbell.sequences import (
    _DEG_STEP,
    bell_fully_deg,
    build_table,
    fubini_two_var_alpha,
    stirling2_deg,
    unit_falling_factorial_deg,
)
from degenbell.verify import (
    _SPECS,
    Identity,
    VerifyReport,
    free_vars,
    run_identity,
    spot_grid,
)
from functools import partial
from math import comb
from oracles import SPIVEY_PARTS, const_value, is_const, poly_from_json, spivey_double_sum
from strategies import sides


class TestReportShape:
    def test_counts_add_up(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 2, 2)
        assert report.pass_count + report.fail_count == len(report.grid)
        assert report.ok
        assert report.first_counterexample is None

    def test_grid_order_m_outer(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 1, 2)
        assert [(c["n"], c["m"]) for c in report.grid] == [
            (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2),
        ]

    def test_json_schema(self):
        report = run_identity(Identity.DEG_VANDERMONDE, 3)
        data = report.to_json()
        assert data == {
            "identity": "deg-vandermonde",
            "grid_size": 4,
            "pass": 4,
            "fail": 0,
            "first_counterexample": None,
        }

    def test_json_counterexample(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 3, 3, corrupt="drop-unit-weight")
        data = report.to_json()
        ce = data["first_counterexample"]
        assert ce is not None
        assert ce["bindings"] == {"n": 0, "m": 2}
        assert poly_from_json(ce["lhs"]) == 2 - 2 * LAM
        assert poly_from_json(ce["rhs"]) == 2 - LAM

    # no golden command emits a counterexample; the CLI writes its sides as
    # Poly leaves, which must give the bytes of the library's plain JSON data
    @pytest.mark.parametrize(
        "identity,corrupt,mode,bindings",
        [
            (Identity.FULLY_DEG_BELL, "drop-unit-weight", "symbolic", None),
            (Identity.FULLY_DEG_BELL, "drop-unit-weight", "rational", None),
            (Identity.FULLY_DEG_BELL, "drop-unit-weight", "rational", {"l": "-1/3"}),
            (Identity.FULLY_DEG_BELL, "drop-unit-weight", "symbolic", {"l": "2"}),
            (Identity.DEG_FUBINI_SPIVEY, "unshifted-y-arg", "symbolic", None),
            (Identity.DEG_FUBINI_SPIVEY, "unshifted-y-arg", "rational", {"t": "3/2"}),
        ],
    )
    def test_counterexample_json_text(self, identity, corrupt, mode, bindings):
        report = run_identity(identity, 3, 3, mode, bindings, corrupt=corrupt)
        data = report.to_json()
        assert data["first_counterexample"] is not None
        assert _json_text(report.to_json(leaf=_poly_leaf)) == json.dumps(data, indent=2) + "\n"


def _failing_report():
    return run_identity(Identity.FULLY_DEG_BELL, 3, 3, corrupt="drop-unit-weight")


# each builds a fresh instance of a public record type, the same value every call
RECORDS = {
    "SeqTable": lambda: build_table("deg-stirling2", 3),
    "VerifyReport": _failing_report,
    "Counterexample": lambda: _failing_report().first_counterexample,
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
class TestRecordTypes:
    # the records are named tuples: immutable, equal by value, and tuples too
    def test_attribute_assignment_raises(self, build):
        record = build()
        for field in type(record).__annotations__:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_equal_by_value(self, build):
        first, second = build(), build()
        assert first is not second
        assert first == second

    def test_iterates_as_its_fields(self, build):
        record = build()
        assert tuple(record) == tuple(getattr(record, f) for f in type(record)._fields)
        assert record[0] is getattr(record, type(record)._fields[0])


class TestSpiveyBellNumbers:
    def test_small_grid(self):
        assert run_identity(Identity.SPIVEY_BELL, 6, 6).ok

    def test_base_cell(self):
        lhs, rhs = sides(Identity.SPIVEY_BELL, 0, 0)
        assert lhs == rhs == ONE

    def test_lhs_values_are_bell_numbers(self):
        for n, m in [(0, 0), (2, 1), (4, 4)]:
            lhs, _ = sides(Identity.SPIVEY_BELL, n, m)
            assert const_value(lhs) == classical.bell_number(n + m)

    def test_polynomial_variant(self):
        assert run_identity(Identity.SPIVEY_BELL_POLY, 5, 5).ok


class TestFullyDegBellNumbers:
    def test_symbolic_grid(self):
        assert run_identity(Identity.FULLY_DEG_BELL, 4, 4).ok

    def test_hand_cell(self):
        lhs, rhs = sides(Identity.FULLY_DEG_BELL, 1, 1)
        assert lhs == 2 - 2 * LAM
        assert rhs == 2 - 2 * LAM

    def test_base_cell(self):
        lhs, rhs = sides(Identity.FULLY_DEG_BELL, 0, 0)
        assert lhs == rhs == ONE

    def test_lambda_zero_is_classical_spivey(self):
        for m in range(4):
            for n in range(4):
                lhs, rhs = sides(Identity.FULLY_DEG_BELL, n, m)
                classical_lhs, classical_rhs = sides(Identity.SPIVEY_BELL, n, m)
                assert lhs.eval({Var.LAMBDA: 0}) == classical_lhs
                assert rhs.eval({Var.LAMBDA: 0}) == classical_rhs

    def test_rational_binding(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 3, 3, bindings={"l": Fraction(1, 2)})
        assert report.ok
        assert report.grid[0]["l"] == "1/2"

    def test_binding_applies_in_symbolic_mode(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 1, 1, bindings={"l": "1/2"})
        assert report.grid[0] == {"n": 0, "m": 0, "l": "1/2"}
        assert report.ok

    def test_float_binding_rejected(self):
        for mode in ("symbolic", "rational"):
            with pytest.raises(TypeError):
                run_identity(Identity.FULLY_DEG_BELL, 1, 1, mode=mode, bindings={"l": 0.1})


class TestFullyDegBellPolynomials:
    def test_symbolic_grid(self):
        assert run_identity(Identity.FULLY_DEG_BELL_POLY, 3, 3).ok

    def test_cell_equals_family_polynomial(self):
        lhs, _ = sides(Identity.FULLY_DEG_BELL_POLY, 1, 1)
        assert lhs == bell_fully_deg(2).substitute(Var.X, T)

    def test_t_equals_one_reduces_to_number_version(self):
        for m in range(4):
            for n in range(4):
                poly_lhs, poly_rhs = sides(Identity.FULLY_DEG_BELL_POLY, n, m)
                num_lhs, num_rhs = sides(Identity.FULLY_DEG_BELL, n, m)
                assert poly_lhs.eval({Var.T: 1}) == num_lhs
                assert poly_rhs.eval({Var.T: 1}) == num_rhs

    def test_lambda_zero_is_classical_polynomial_spivey(self):
        for m in range(4):
            for n in range(4):
                lhs, rhs = sides(Identity.FULLY_DEG_BELL_POLY, n, m)
                cl_lhs, cl_rhs = sides(Identity.SPIVEY_BELL_POLY, n, m)
                assert lhs.eval({Var.LAMBDA: 0}) == cl_lhs.substitute(Var.X, T)
                assert rhs.eval({Var.LAMBDA: 0}) == cl_rhs.substitute(Var.X, T)


class TestDegBellSpivey:
    def test_symbolic_grid(self):
        assert run_identity(Identity.DEG_BELL_SPIVEY, 4, 4).ok

    def test_lambda_zero_matches_classical_polynomial_cells(self):
        for m in range(4):
            for n in range(4):
                lhs, rhs = sides(Identity.DEG_BELL_SPIVEY, n, m)
                cl_lhs, cl_rhs = sides(Identity.SPIVEY_BELL_POLY, n, m)
                assert lhs.eval({Var.LAMBDA: 0}) == cl_lhs
                assert rhs.eval({Var.LAMBDA: 0}) == cl_rhs

    def test_lambda_zero_x_one_gives_bell_numbers(self):
        for m in range(4):
            for n in range(4):
                lhs, rhs = sides(Identity.DEG_BELL_SPIVEY, n, m)
                bound = {Var.LAMBDA: 0, Var.X: 1}
                expected = Poly.const(classical.bell_number(n + m))
                assert lhs.eval(bound) == expected
                assert rhs.eval(bound) == expected


class TestDegFubiniSpivey:
    def test_symbolic_grid(self):
        assert run_identity(Identity.DEG_FUBINI_SPIVEY, 3, 3).ok

    def test_hand_cell(self):
        report = run_identity(Identity.DEG_FUBINI_SPIVEY, 0, 1)
        assert report.ok
        lhs, rhs = sides(Identity.DEG_FUBINI_SPIVEY, 0, 1)
        assert lhs == T
        assert rhs == T

    def test_classical_limit_identity(self):
        assert run_identity(Identity.FUBINI_SPIVEY, 4, 4).ok

    def test_lambda_zero_matches_classical_cells(self):
        for m in range(4):
            for n in range(4):
                lhs, rhs = sides(Identity.DEG_FUBINI_SPIVEY, n, m)
                cl_lhs, cl_rhs = sides(Identity.FUBINI_SPIVEY, n, m)
                assert lhs.eval({Var.LAMBDA: 0}) == cl_lhs
                assert rhs.eval({Var.LAMBDA: 0}) == cl_rhs


class TestVandermondeAndSplitting:
    def test_vandermonde_symbolic(self):
        assert run_identity(Identity.DEG_VANDERMONDE, 10).ok

    def test_vandermonde_n2(self):
        lhs, rhs = sides(Identity.DEG_VANDERMONDE, 2, 0)
        assert lhs == (X + Y) * (X + Y - LAM)
        assert lhs == rhs

    def test_vandermonde_second_argument_zero(self):
        # only the j = n summand survives at y = 0
        from degenbell.sequences import falling_factorial_deg

        for cell, _, rhs in _SPECS[Identity.DEG_VANDERMONDE].grid(5, 0):
            assert rhs.eval({Var.Y: 0}) == falling_factorial_deg(X, cell["n"])

    def test_vandermonde_reads_each_factorial_once(self, monkeypatch):
        # (x)_{j,l} and (y)_{j,l} are read into two lists once per grid, and
        # (x+y)_{n,l} once per cell: 7 + 7 + 7 reads at n_max = 6
        calls = []
        build = verify.falling_factorial_deg
        monkeypatch.setattr(verify, "falling_factorial_deg", lambda *a: calls.append(a) or build(*a))
        assert all(lhs == rhs for _, lhs, rhs in verify._deg_vandermonde_grid(6, 0))
        assert len(calls) == 21

    def test_splitting_grid(self):
        report = run_identity(Identity.EXP_SPLITTING, 6, 6)
        assert report.ok
        assert len(report.grid) == 49
        # each record is the cell's entry (j, k), in k-outer order
        assert report.grid[-1] == {"j": 6, "k": 6}

    def test_splitting_builds_each_cell_once(self, monkeypatch):
        calls, build = [], verify.exp_splitting_sides

        def counted(j, k):
            calls.append((j, k))
            return build(j, k)

        monkeypatch.setattr(verify, "exp_splitting_sides", counted)
        assert run_identity(Identity.EXP_SPLITTING, 3, 4).ok
        # 4 x 5 cells, each built once, in the grid's order
        assert calls == [(j, k) for k in range(5) for j in range(4)]


class TestFubiniSpecializations:
    def test_symbolic(self):
        assert run_identity(Identity.FUBINI_X_ZERO, 8, 4).ok

    def test_hand_cell(self):
        cells = {
            tuple(cell.values()): (lhs, rhs)
            for cell, lhs, rhs in _SPECS[Identity.FUBINI_X_ZERO].grid(2, 3)
        }
        lhs, rhs = cells[2, 3, "x=0"]
        assert lhs == Y * (Y - LAM)
        assert rhs == Y * (Y - LAM)

    def test_alpha_zero_column(self):
        grid = list(_SPECS[Identity.FUBINI_X_ZERO].grid(4, 0))
        assert [cell["n"] for cell, _, _ in grid if cell["side"] == "x=0"] == list(range(5))
        for cell, lhs, rhs in grid:
            if cell["side"] == "x=0":
                assert lhs == rhs


class TestMutationDetection:
    def test_dropped_unit_weight_detected(self):
        report = run_identity(Identity.FULLY_DEG_BELL, 3, 3, corrupt="drop-unit-weight")
        assert report.fail_count > 0
        ce = report.first_counterexample
        assert ce is not None
        assert ce.bindings["n"] + ce.bindings["m"] <= 3
        assert ce.lhs != ce.rhs

    def test_unshifted_y_argument_detected(self):
        report = run_identity(Identity.DEG_FUBINI_SPIVEY, 3, 3, corrupt="unshifted-y-arg")
        assert report.fail_count > 0
        ce = report.first_counterexample
        assert ce.bindings["n"] + ce.bindings["m"] <= 3

    # sha256 of json.dumps(side.to_json()) for the first symbolic counterexample
    # at 5x5, pinned from a known-good build; no CLI command emits these sides
    @pytest.mark.parametrize(
        "identity,mutation,fails,cell,lhs,rhs",
        [
            (
                Identity.FULLY_DEG_BELL,
                "drop-unit-weight",
                24,
                {"n": 0, "m": 2},
                "2426b578a5e795310179ad56018d6009fbd7e9da4fc4473a27c52077bf7acb74",
                "01fdc7f110bd28a0dc71508144a134adb7037a99b3da66587ba4564bb1d1d5d4",
            ),
            (
                Identity.DEG_FUBINI_SPIVEY,
                "unshifted-y-arg",
                25,
                {"n": 1, "m": 1},
                "2ceff5e0aae5cbbaa2ac1419a9c6dc2f3d630052dd2056d97e0696ada7ebd7ae",
                "b6f693c602232002ff5ea16ff49c10d0281b7ca643596420a2d438f9f23df856",
            ),
        ],
    )
    def test_counterexample_digests(self, identity, mutation, fails, cell, lhs, rhs):
        report = run_identity(identity, 5, 5, corrupt=mutation)
        ce = report.first_counterexample
        assert (report.fail_count, ce.bindings) == (fails, cell)
        digests = [
            hashlib.sha256(json.dumps(side.to_json()).encode()).hexdigest()
            for side in (ce.lhs, ce.rhs)
        ]
        assert digests == [lhs, rhs]

    def test_mutants_survive_at_lambda_zero(self):
        # both corruptions vanish at l = 0, so the rational smoke layer
        # must pass there while the symbolic layer fails
        report = run_identity(
            Identity.FULLY_DEG_BELL, 3, 3, bindings={"l": 0}, corrupt="drop-unit-weight"
        )
        assert report.ok

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="drop-unit-wieght"):
            run_identity(Identity.FULLY_DEG_BELL, 3, 3, corrupt="drop-unit-wieght")
        # a mutation belongs to its own identity only
        with pytest.raises(ValueError):
            run_identity(Identity.SPIVEY_BELL, 3, 3, corrupt="drop-unit-weight")


def _clear_memos():
    for module in (classical, sequences, verify):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _weighted_km(m_max):
    """The (k, m) of every Spivey weight that is not zero: k = 0 only at m = 0."""
    return [(k, m) for m in range(m_max + 1) for k in range(m + 1) if k or not m]


SPIVEY_IDENTITIES = [Identity(name) for name in SPIVEY_PARTS]
# the identities whose head A_k is not the unit, so H_k = B <*> A_k is built
HEAD_IDENTITIES = [
    Identity.FULLY_DEG_BELL,
    Identity.FULLY_DEG_BELL_POLY,
    Identity.DEG_FUBINI_SPIVEY,
    Identity.FUBINI_SPIVEY,
]
UNIT_HEAD_IDENTITIES = [i for i in SPIVEY_IDENTITIES if i not in HEAD_IDENTITIES]
# the identities whose tail is shifted by P_m, so each cell is one more sum
SHIFTED_IDENTITIES = [
    Identity.DEG_BELL_SPIVEY,
    Identity.FULLY_DEG_BELL,
    Identity.FULLY_DEG_BELL_POLY,
    Identity.DEG_FUBINI_SPIVEY,
]


class TestAssociativeSums:
    # the sides regroup the plain double sum by associativity of the binomial
    # convolution; the reference builds each inner factor G whole
    CELLS = [(n, m) for m in range(6) for n in range(6)]

    @pytest.mark.parametrize("identity", SPIVEY_IDENTITIES)
    def test_sides_equal_plain_double_sum(self, identity):
        grid = list(_SPECS[identity].grid(5, 5))
        assert [(cell["n"], cell["m"]) for cell, _, _ in grid] == self.CELLS
        for cell, lhs, rhs in grid:
            n, m = cell["n"], cell["m"]
            assert (lhs, rhs) == spivey_double_sum(identity.value, n, m), (n, m)

    @pytest.mark.parametrize("identity", SPIVEY_IDENTITIES)
    def test_outer_part_builds_a_poly(self, identity, monkeypatch):
        # the left side is B_{n+m} as the outer part built it, with no lift
        built, outer = [], verify._outer

        def counted(s, j):
            built.append(outer(s, j))
            return built[-1]

        monkeypatch.setattr(verify, "_outer", counted)
        cells = list(_SPECS[identity].grid(2, 2))
        assert all(type(b) is Poly for b in built)
        assert all(any(lhs is b for b in built) for _, lhs, _ in cells)

    @pytest.mark.parametrize(
        "identity,mutation",
        [(i, name) for i in SPIVEY_IDENTITIES for name in _SPECS[i].mutations],
    )
    def test_mutated_sides_differ_from_plain_double_sum(self, identity, mutation):
        spec = _SPECS[identity]
        grid = spec.grid._replace(**spec.mutations[mutation])
        assert any(
            (lhs, rhs) != spivey_double_sum(identity.value, cell["n"], cell["m"])
            for cell, lhs, rhs in grid(5, 5)
        )


class TestSpiveyRecords:
    # each Spivey identity is data: its grid is a record of its family, its
    # argument z and its form, and each mutation swaps one of its fields
    @pytest.mark.parametrize("identity", SPIVEY_IDENTITIES)
    def test_grid_is_a_record_with_no_callable_field(self, identity):
        record = _SPECS[identity].grid
        assert type(record) is verify._Spivey
        assert [f for f in record._fields if callable(getattr(record, f))] == []
        assert record.family in ("bell", "fully-bell", "fubini")
        assert record.z in (ONE, X, T)

    def test_mutations_are_replaces_of_the_record(self):
        mutations = {i: _SPECS[i].mutations for i in Identity if _SPECS[i].mutations}
        assert mutations == {
            Identity.FULLY_DEG_BELL: {"drop-unit-weight": {"factor": False}},
            Identity.DEG_FUBINI_SPIVEY: {"unshifted-y-arg": {"shifted": False}},
        }
        for identity, named in mutations.items():
            record = _SPECS[identity].grid
            for fields in named.values():
                mutant = record._replace(**fields)
                assert type(mutant) is verify._Spivey
                assert [f for f in record._fields if getattr(mutant, f) != getattr(record, f)] == [
                    *fields
                ]


# each part of a Spivey grid by verify's module-global name for it, which the
# grid looks up at each call
PARTS = {
    "outer": "_outer", "weight": "_weight", "head": "_head", "tail": "_tail", "shift": "_shifts"
}


def _counted_pass(identity, n_max, m_max, monkeypatch):
    """One grid pass with each part counted: ({part: [index, ...]}, replay), where
    an index is the part's arguments after the record, and replay() walks the
    grid again with each part returning its recorded value, so that the only
    arithmetic left is the grid's own sums."""
    grid = _SPECS[identity].grid
    calls, values = {name: [] for name in PARTS}, {}

    def patched(part):
        with monkeypatch.context() as patch:
            for name, attr in PARTS.items():
                patch.setattr(verify, attr, partial(part, name, getattr(verify, attr)))
            list(grid(n_max, m_max))

    def counted(name, build, s, *index):
        calls[name].append(index)
        values[name, index] = build(s, *index)
        return values[name, index]

    patched(counted)
    return calls, lambda: patched(lambda name, build, s, *index: values[name, index])


def _sums_in(monkeypatch, run):
    """The number of `Poly.sum_of_products` calls that run() makes."""
    count, total = [0], Poly.sum_of_products

    def counted(products):
        count[0] += 1
        return total(products)

    with monkeypatch.context() as patch:
        patch.setattr(Poly, "sum_of_products", staticmethod(counted))
        run()
    return count[0]


class TestSharedMemos:
    # one grid pass reads each part once per index and builds each sum once,
    # with no memo: H_k(i) and K_k(s) per (i, k) and (s, k), shared over
    # every m, Q_m(s) per (m, s), and one sum per cell when there is a shift
    N = 4

    def _shift_bases(self):
        # the lists of the tails (k)_{j,l}, one per k, and of the shifts
        # (-m*l)_{r,l}, one per m >= 1: the base -0*l is the tail's base 0
        tails = {Poly.const(k) for k, _ in _weighted_km(self.N)}
        return tails, {m * -LAM for m in range(1, self.N + 1)}

    def test_one_falling_list_per_shifted_argument(self):
        # the tail (k - m*l)_{j,l} is split into (k)_{j-r,l} and the shift
        # (-m*l)_{r,l}, so the lists read are one per k and one per -m*l, none
        # per k - m*l; k = 1 is (1)_{.,l}, which fully-deg-bell's weights read too
        # Besides the lists, the store keeps the keys of l^d ("l-keys") and the
        # top row of S2_l (("top", 0)), and for fully-deg-bell that of U_l too
        tails, shifts = self._shift_bases()
        bases = tails | shifts
        rows = {Identity.DEG_BELL_SPIVEY: 2, Identity.FULLY_DEG_BELL: 3}
        for identity in (Identity.DEG_BELL_SPIVEY, Identity.FULLY_DEG_BELL):
            _clear_memos()
            assert run_identity(identity, self.N, self.N).ok
            assert _kept.cache_info().currsize == len(bases) + rows[identity]
        # run after fully-deg-bell, deg-bell-spivey finds every list it reads
        assert run_identity(Identity.DEG_BELL_SPIVEY, self.N, self.N).ok
        info = _kept.cache_info()
        assert info.misses == info.currsize == len(bases) + rows[Identity.FULLY_DEG_BELL]
        # (k)_{j,l} for j <= n_max, and (1)_{k,l} for k <= m_max, as far as read
        for base in bases:
            assert len(_kept((base, _DEG_STEP))) == self.N + 1
        assert _kept.cache_info().misses == info.misses

    def test_shift_lists_shared_by_a_command(self, capsys):
        # the four shifted identities of one `verify --all` read each P_m(r)
        # from the one running list of -m*l, as each T_k(j) from that of k
        _clear_memos()
        argv = ["verify", "--all", "--n-max", str(self.N), "--m-max", str(self.N)]
        assert main(argv) == 0
        capsys.readouterr()
        tails, shifts = self._shift_bases()
        info = _kept.cache_info()
        # exp-splitting's e_l(u) reads the list of 1 further
        for base in tails:
            assert len(_kept((base, _DEG_STEP))) >= self.N + 1
        for base in shifts:
            assert len(_kept((base, _DEG_STEP))) == self.N + 1
        assert _kept.cache_info().misses == info.misses
        # run again, deg-fubini-spivey finds every list it reads
        assert run_identity(Identity.DEG_FUBINI_SPIVEY, self.N, self.N).ok
        assert _kept.cache_info().misses == info.misses

    def test_classical_head_substituted_once_per_jk(self, monkeypatch):
        calls = []
        substitute = Poly.substitute

        def counted(self, var, replacement):
            calls.append(var)
            return substitute(self, var, replacement)

        monkeypatch.setattr(Poly, "substitute", counted)
        _clear_memos()
        assert run_identity(Identity.FUBINI_SPIVEY, self.N, self.N).ok
        pairs = {(j, k) for k, _ in _weighted_km(self.N) for j in range(self.N + 1)}
        # the classical route still substitutes, once per (j, k)
        assert calls == [Var.X] * len(pairs)

    def _expected_sums(self, identity, heads):
        # H_k(i) per (i, k) when the head is not the unit, K_k(s) per (s, k),
        # Q_m(s) per (m, s), and one sum per cell (n, m) when there is a shift
        per_index = (self.N + 1) ** 2
        return per_index * (heads + 2 + (identity in SHIFTED_IDENTITIES))

    @pytest.mark.parametrize("identity", HEAD_IDENTITIES)
    def test_head_sum_built_once_per_ik_and_shared_over_m(self, identity, monkeypatch):
        calls, replay = _counted_pass(identity, self.N, self.N, monkeypatch)
        grid = range(self.N + 1)
        assert sorted((j, k) for _, j, k in calls["head"]) == [(j, k) for j in grid for k in grid]
        # all at one argument h, formed once per pass
        assert len({id(h) for h, _, _ in calls["head"]}) == 1
        assert _sums_in(monkeypatch, replay) == self._expected_sums(identity, heads=1)

    @pytest.mark.parametrize("identity", UNIT_HEAD_IDENTITIES)
    def test_unit_head_reads_outer_family_directly(self, identity, monkeypatch):
        calls, replay = _counted_pass(identity, self.N, self.N, monkeypatch)
        # B_j once per j, for both sides, and no H_k = B <*> A_k is summed
        assert calls["outer"] == [(j,) for j in range(2 * self.N + 1)]
        assert calls["head"] == []
        assert _sums_in(monkeypatch, replay) == self._expected_sums(identity, heads=0)

    def test_builder_calls_through_module_names(self, monkeypatch):
        # the names perfbench's tracer patches: at 5x5 the seven identities
        # read 36 tails (k)_{j,l} and 36 shifts each in four, 36 heads each in
        # three plus deg-fubini-spivey's 11 B_j, 21 S2_l(m,k) each in four,
        # 21 (1)_{k,l} each in two, and so on for the classical builders
        calls = Counter()

        def count(module, name):
            build = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a: calls.update([name]) or build(*a))

        for name in ("falling_factorial_deg", "fubini_deg", "stirling2_deg"):
            count(verify, name)
        count(verify, "unit_falling_factorial_deg")
        for name in ("bell_poly", "fubini_poly", "stirling2"):
            count(classical, name)
        for identity in SPIVEY_IDENTITIES:
            assert run_identity(identity, 5, 5).ok
        assert calls == {
            "falling_factorial_deg": 288,
            "fubini_deg": 119,
            "stirling2_deg": 84,
            "unit_falling_factorial_deg": 42,
            "bell_poly": 22,
            "fubini_poly": 47,
            "stirling2": 63,
        }

    @pytest.mark.parametrize("identity", SPIVEY_IDENTITIES)
    def test_weight_built_once_per_mk(self, identity, monkeypatch):
        calls, _ = _counted_pass(identity, self.N, self.N, monkeypatch)
        grid = range(self.N + 1)
        assert sorted(calls["weight"]) == [(m, k) for m in grid for k in range(m + 1)]

    @pytest.mark.parametrize("identity", SPIVEY_IDENTITIES)
    def test_tail_shift_and_outer_read_once_per_index(self, identity, monkeypatch):
        calls, _ = _counted_pass(identity, self.N, self.N, monkeypatch)
        grid = range(self.N + 1)
        assert sorted(calls["tail"]) == [(j, k) for j in grid for k in grid]
        # P_m(r) for every r at once, so that -m*l is formed once per m; an
        # unshifted identity's shift is None
        assert calls["shift"] == [(m, grid) for m in grid]
        shifted = verify._shifts(_SPECS[identity].grid, 1, grid) is not None
        assert shifted == (identity in SHIFTED_IDENTITIES)
        assert calls["outer"] == [(j,) for j in range(2 * self.N + 1)]


class TestScopedMemos:
    """A run walks each identity's grid once, and the Spivey sums (H, K and
    one m's Q) are that pass's local lists, so none outlives the run; of the
    sides it keeps only the first counterexample's."""

    N = 4

    def test_identity_memory_from_cold_memos(self):
        # the peak holds one identity's K_k(s) and one m's Q_m(s); what stays
        # is the shared family memos and the report.  With memos for H, K, Q
        # and W that lived to the end of the run the peak was 1.71 MiB.
        _clear_memos()
        tracemalloc.start()
        try:
            assert run_identity(Identity.FULLY_DEG_BELL_POLY, 8, 8).ok
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 2**20
        assert held < 0.55 * 2**20

    @pytest.mark.parametrize("mode", ["symbolic", "rational"])
    @pytest.mark.parametrize(
        "identity,mutation",
        [
            (Identity.FULLY_DEG_BELL, "drop-unit-weight"),
            (Identity.DEG_FUBINI_SPIVEY, "unshifted-y-arg"),
        ],
    )
    def test_no_memo_left_after_failing_run(self, identity, mutation, mode, monkeypatch):
        spec = _SPECS[identity]
        cells = [c for c, _, _ in spec.grid(self.N, self.N)]
        passes, built, grid = [], [], verify._spivey_grid

        def counted(n_max, m_max, s):
            passes.append(s)
            for cell in grid(n_max, m_max, s):
                built.append(cell)
                yield cell

        monkeypatch.setattr(verify, "_spivey_grid", counted)
        report = run_identity(identity, self.N, self.N, mode=mode, corrupt=mutation)
        ce = report.first_counterexample
        assert ce is not None
        # one pass over the mutated grid, each cell built once: no rebuild
        assert passes == [spec.grid._replace(**spec.mutations[mutation])]
        assert [c for c, _, _ in built] == cells
        # the counterexample's sides are its cell's sides from that pass, at its point
        ((lhs, rhs),) = [(lhs, rhs) for c, lhs, rhs in built if c.items() <= ce.bindings.items()]
        labels = {v: c for v, c in ce.bindings.items() if v not in ("n", "m")}
        point = {var_from_symbol(v): Fraction(c) for v, c in labels.items()}
        assert (ce.lhs, ce.rhs) == (lhs.eval(point), rhs.eval(point))
        # and verify keeps no memo of its own
        scanned = (*vars(verify).values(), *vars(sequences).values())
        memos = [v for v in scanned if hasattr(v, "cache_clear")]
        assert [v for v in memos if v.__module__ == verify.__name__] == []
        assert sequences._kept in memos

    def test_unshifted_y_arg_drops_the_shift(self):
        # without the shift (-m*l)_{r,l} the tail is (k)_{j,l}, so the inner
        # factor is F^(k)_{j,l}(t, k); the report's pinned counts and digests
        # (TestMutationDetection, TestRationalPointSemantics) are unchanged
        spec = _SPECS[Identity.DEG_FUBINI_SPIVEY]
        assert spec.mutations == {"unshifted-y-arg": {"shifted": False}}
        outer, weight, _ = SPIVEY_PARTS[Identity.DEG_FUBINI_SPIVEY.value]
        for cell, _, rhs in spec.grid._replace(shifted=False)(self.N, self.N):
            n, m = cell["n"], cell["m"]
            inner = lambda j, k: (
                fubini_two_var_alpha(j, k).substitute(Var.X, T).substitute(Var.Y, Poly.const(k))
            )
            expected = sum(
                comb(n, j) * weight(m, k) * outer(j) * inner(n - j, k)
                for k in range(m + 1)
                for j in range(n + 1)
            )
            assert rhs == expected, (n, m)


class TestRationalPointSemantics:
    # pinned counts and first counterexample cells: a nonzero difference
    # that vanishes at a point must count as a pass there
    @pytest.mark.parametrize(
        "identity,corrupt,bindings,passed,failed,cell",
        [
            (Identity.FULLY_DEG_BELL, "drop-unit-weight", None, 57, 43,
             {"n": 0, "m": 2, "l": "1/2"}),
            (Identity.FULLY_DEG_BELL, "drop-unit-weight", {"l": "0"}, 25, 0, None),
            (Identity.DEG_FUBINI_SPIVEY, "unshifted-y-arg", None, 158, 142,
             {"n": 1, "m": 1, "l": "1/2", "t": "1"}),
            (Identity.DEG_FUBINI_SPIVEY, "unshifted-y-arg", {"t": "2"}, 9, 16,
             {"n": 1, "m": 1, "t": "2"}),
        ],
    )
    def test_counts_and_first_cell(self, identity, corrupt, bindings, passed, failed, cell):
        report = run_identity(identity, 4, 4, "rational", bindings, corrupt=corrupt)
        assert (report.pass_count, report.fail_count) == (passed, failed)
        ce = report.first_counterexample
        assert (ce.bindings if ce else None) == cell

    @pytest.mark.parametrize(
        "identity,corrupt,lhs,rhs",
        [
            (Identity.FULLY_DEG_BELL, "drop-unit-weight", 1, Fraction(3, 2)),
            (Identity.DEG_FUBINI_SPIVEY, "unshifted-y-arg", Fraction(5, 2), 3),
        ],
    )
    def test_counterexample_reports_evaluated_sides(self, identity, corrupt, lhs, rhs):
        ce = run_identity(identity, 4, 4, "rational", corrupt=corrupt).first_counterexample
        # both sides at the point, not their difference
        assert is_const(ce.lhs) and is_const(ce.rhs)
        assert (ce.lhs, ce.rhs) == (Poly.const(lhs), Poly.const(rhs))

    def test_partial_binding_reports_sides_in_free_variable(self):
        report = run_identity(
            Identity.DEG_FUBINI_SPIVEY, 4, 4, "rational", {"t": "2"}, corrupt="unshifted-y-arg"
        )
        ce = report.first_counterexample
        assert ce.lhs == 10 - 2 * LAM
        assert ce.rhs == Poly.const(10)


class TestSpecializationCoherence:
    def test_verify_then_bind_equals_bind_then_verify(self):
        lam0 = Fraction(1, 3)
        for n, m in [(1, 2), (2, 2), (3, 1)]:
            lhs, rhs = sides(Identity.FULLY_DEG_BELL, n, m)
            sym_lhs = const_value(lhs.eval({Var.LAMBDA: lam0}))
            sym_rhs = const_value(rhs.eval({Var.LAMBDA: lam0}))

            # independent route: bind lambda in every ingredient first
            bind = {Var.LAMBDA: lam0}
            lhs2 = const_value(bell_fully_deg(n + m).eval({Var.X: 1, **bind}))
            rhs2 = Fraction(0)
            for k in range(m + 1):
                s2 = const_value(stirling2_deg(m, k).eval(bind))
                w = const_value(unit_falling_factorial_deg(k).eval(bind))
                for l in range(n + 1):
                    bel = const_value(bell_fully_deg(l).eval({Var.X: 1, **bind}))
                    fub = const_value(
                        fubini_two_var_alpha(n - l, k).eval({Var.X: -lam0, Var.Y: k - m * lam0, **bind})
                    )
                    rhs2 += w * s2 * comb(n, l) * bel * fub
            assert sym_lhs == lhs2
            assert sym_rhs == rhs2
            assert lhs2 == rhs2


class TestFreeVars:
    @pytest.mark.parametrize("identity", list(Identity))
    def test_free_vars_are_the_variables_of_the_sides(self, identity):
        spec = _SPECS[identity]
        found = set()
        for _, lhs, rhs in spec.grid(2, 2):
            found |= lhs.variables() | rhs.variables()
        assert free_vars(identity) == found
        # the spot grid sweeps them all, except x of fubini-x-zero's y = 0 side
        unswept = {Var.X} if identity is Identity.FUBINI_X_ZERO else set()
        assert set(spec.spot_vars) == found - unswept


class TestDispatch:
    @pytest.mark.parametrize("identity", list(Identity))
    def test_every_identity_runs_symbolically(self, identity):
        report = run_identity(identity, n_max=2, m_max=2)
        assert isinstance(report, VerifyReport)
        assert report.ok, identity

    @pytest.mark.parametrize("identity", list(Identity))
    def test_every_identity_runs_on_spot_grid(self, identity):
        report = run_identity(identity, n_max=2, m_max=2, mode="rational")
        assert report.ok, identity
        expected = len(spot_grid(identity)) * _cells_for(identity, 2, 2)
        assert len(report.grid) == expected

    def test_spot_grid_records_are_cell_then_point_labels(self):
        # the labels of a pass are built once and merged into a fresh record per cell
        identity = Identity.DEG_BELL_SPIVEY
        report = run_identity(identity, 2, 2, mode="rational")
        cells = [cell for cell, _, _ in _SPECS[identity].grid(2, 2)]
        expected = [
            {**cell, **{v.symbol: str(c) for v, c in point.items()}}
            for point in spot_grid(identity)
            for cell in cells
        ]
        assert list(report.grid) == expected
        assert [list(r) for r in report.grid] == [list(r) for r in expected]
        assert len({id(r) for r in report.grid}) == len(report.grid)

    def test_explicit_bindings(self):
        report = run_identity(
            Identity.DEG_BELL_SPIVEY, 2, 2, mode="rational", bindings={"l": "1/2", "x": 2}
        )
        assert report.ok
        assert len(report.grid) == 9

    @pytest.mark.parametrize(
        "identity,bindings,stray",
        [(Identity.SPIVEY_BELL, {"x": 1, "l": 2}, "x, l"), (Identity.DEG_BELL_SPIVEY, {"t": 1}, "t")],
    )
    def test_stray_bindings_rejected(self, identity, bindings, stray):
        # a variable that is in neither side would label every cell and act on none
        with pytest.raises(ValueError, match=f"bindings {stray}: no such variable in {identity.value}"):
            run_identity(identity, 1, 1, bindings=bindings)

    @pytest.mark.parametrize("mode", ["symbolic", "rational"])
    def test_empty_bindings_are_one_exact_pass(self, mode):
        report = run_identity(Identity.DEG_BELL_SPIVEY, 2, 2, mode=mode, bindings={})
        assert report.ok
        assert list(report.grid) == [cell for cell, _, _ in _SPECS[Identity.DEG_BELL_SPIVEY].grid(2, 2)]

    def test_rational_spot_layer_up_to_nm_ten(self):
        # symbolic cells cover n+m <= 10 under the default spot values
        report = run_identity(Identity.FULLY_DEG_BELL, 5, 5, mode="rational")
        assert report.ok
        assert len(report.grid) == 36 * len(spot_grid(Identity.FULLY_DEG_BELL))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_identity(Identity.SPIVEY_BELL, mode="numeric")

    @pytest.mark.parametrize("identity", list(Identity))
    @pytest.mark.parametrize("n_max,m_max,bad", [(-1, 3, "n_max"), (3, -1, "m_max")])
    def test_negative_bound_rejected(self, identity, n_max, m_max, bad):
        # an empty grid would pass vacuously
        with pytest.raises(ValueError, match=f"{bad} must be nonnegative"):
            run_identity(identity, n_max, m_max)


def _cells_for(identity, n_max, m_max):
    if identity is Identity.DEG_VANDERMONDE:
        return n_max + 1
    if identity is Identity.EXP_SPLITTING:
        return (n_max + 1) * (m_max + 1)
    if identity is Identity.FUBINI_X_ZERO:
        return (n_max + 1) * (m_max + 1) * 2
    return (n_max + 1) * (m_max + 1)
