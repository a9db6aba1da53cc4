"""Tests for the LAPACK tridiagonal solver and the spectral diagnostics."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lsc import eigensolve, hermite
from lsc.eigensolve import (
    SpectrumResult,
    classify_symmetry,
    converged_spectrum,
    count_below,
    dense_eigvalsh,
    eigenpairs,
    eigs_separable,
    eigs_sparse,
    eigs_tridiag,
    eigvec_inverse_iteration,
    k_smallest_sums,
    nodal_domains,
    rayleigh,
    subspace_upper_bounds,
    verify_superharmonic,
)
from lsc.errors import (
    AllZero,
    BoxTooSmall,
    ConvergenceFailure,
    Exhausted,
    IllConditionedSpan,
    NonPositiveFunction,
    ZeroVector,
)
from lsc.lattice import (
    LatticeBox,
    SymmetricLatticeOperator,
    assemble_Hkappa,
    assemble_HN,
    assemble_laplacian,
)
from lsc.potentials import ScalingParams, two_well
from spectral_checks import (
    assert_bracket_encloses,
    multiplicity_clusters,
    point_array,
    record_dstebz_ranges,
)


def random_confining_tridiag(rng, n):
    """Random positive confining profile: rising diagonal, mixed couplings."""
    x = np.linspace(-1.0, 1.0, n)
    diag = rng.uniform(1.0, 3.0) * x * x + rng.uniform(0.0, 0.5, n)
    off = -rng.uniform(0.1, 1.0, n - 1)
    return diag, off


class TestSturm:
    def test_free_laplacian_three_points(self):
        op = assemble_laplacian(LatticeBox.centered(1, 1))
        want = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
        np.testing.assert_allclose(eigs_tridiag(op, 3).values, want, rtol=1e-12)

    def test_one_by_one(self):
        res = eigs_tridiag((np.array([3.25]), np.zeros(0)), 1)
        assert res.values[0] == pytest.approx(3.25, rel=1e-13)

    def test_against_dense_oracle_hkappa(self):
        op = assemble_Hkappa(0.1, LatticeBox.centered(1, 400))
        got = eigs_tridiag(op, 3).values
        want = dense_eigvalsh(op)[:3]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_against_dense_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 400))
        diag, off = random_confining_tridiag(rng, n)
        k = int(rng.integers(1, min(6, n) + 1))
        got = eigs_tridiag((diag, off), k).values
        want = dense_eigvalsh((diag, off))[:k]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(42)
        diag, off = random_confining_tridiag(rng, 150)
        a = eigs_tridiag((diag, off), 4).values
        b = eigs_tridiag((diag, off), 4).values
        np.testing.assert_array_equal(a, b)

    def test_nondecreasing_and_nonnegative_for_positive_potential(self):
        op = assemble_Hkappa(0.2, LatticeBox.centered(1, 60))
        vals = eigs_tridiag(op, 8).values
        assert np.all(np.diff(vals) >= 0)
        assert np.all(vals >= 0.0)

    def test_result_rejects_unsorted_values(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            SpectrumResult(values=[1.0, 3.0, 2.0])
        with pytest.raises(ValueError, match="nondecreasing"):
            SpectrumResult(values=np.array([2.0, 1.0]))
        for values in ([], [5.0], [1.0, 1.0, 2.0]):
            got = SpectrumResult(values=values).values
            assert got.dtype == float and got.tolist() == values

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            eigs_tridiag((np.ones(3), -np.ones(2)), 4)


@st.composite
def tridiagonals(draw):
    """Random, clustered or split tridiagonals of size 1-2000 and a ``k <= 8``."""
    n = draw(st.integers(1, 2000))
    k = draw(st.integers(1, min(n, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "clustered", "split"]))
    if kind == "clustered":  # a few values repeated, tiny couplings
        diag = rng.choice(rng.uniform(-3.0, 3.0, 3), n) + rng.uniform(-1e-13, 1e-13, n)
        off = rng.uniform(-1e-9, 0.0, n - 1)
    else:
        diag = rng.uniform(-5.0, 5.0, n)
        off = rng.uniform(-2.0, 2.0, n - 1)
        if kind == "split":  # zero couplings cut the matrix into blocks
            off[rng.uniform(size=n - 1) < 0.3] = 0.0
    return diag, off, k


class TestTridiagContract:
    """``eigs_tridiag`` calls ``dstebz`` directly; it must return exactly what
    ``scipy.linalg.eigvalsh_tridiagonal`` returns with the same driver and
    tolerance, and keep that wrapper's input checks."""

    @given(tridiagonals())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_scipy_wrapper(self, case):
        diag, off, k = case
        want = scipy.linalg.eigvalsh_tridiagonal(
            diag, off, select="i", select_range=(0, k - 1),
            lapack_driver="stebz", tol=2 * np.finfo(float).tiny)
        got = eigs_tridiag((diag, off), k).values
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diag", "off"])
    def test_non_finite_input_raises(self, bad, where):
        diag, off = np.linspace(0.0, 1.0, 6), -np.ones(5)
        (diag if where == "diag" else off)[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigs_tridiag((diag, off), 2)

    def test_non_finite_one_by_one_raises(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigs_tridiag((np.array([np.nan]), np.zeros(0)), 1)


class TestSturmCount:
    """``_stebz(diag, off, upper=x)`` counts the eigenvalues ``<= x``."""

    @staticmethod
    def count(diag, off, x):
        return eigensolve._stebz(np.asarray(diag, float), np.asarray(off, float),
                                 upper=float(x))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_dense_count(self, seed):
        # random and split tridiagonals, size 1 included; away from the
        # spectrum the count is exact, and within one ulp of an eigenvalue it
        # is the count of a matrix perturbed by the rounding of the recurrence
        rng = np.random.default_rng(seed)
        n = seed + 1 if seed < 3 else int(rng.integers(4, 300))
        diag = rng.uniform(-5.0, 5.0, n)
        off = rng.uniform(-2.0, 2.0, n - 1)
        if seed % 2:  # zero couplings cut the matrix into blocks
            off[rng.uniform(size=n - 1) < 0.3] = 0.0
        dense = dense_eigvalsh((diag, off))
        norm = np.abs(diag).max() + 2.0 * np.abs(off).max(initial=0.0)  # Gershgorin
        slack = 1e3 * n * np.finfo(float).eps * norm
        gaps = np.concatenate([[dense[0] - 1.0], 0.5 * (dense[1:] + dense[:-1]),
                               [dense[-1] + 1.0]])
        for x in gaps[np.abs(gaps[:, None] - dense).min(axis=1) > slack]:
            assert self.count(diag, off, x) == np.count_nonzero(dense <= x)
        for lam in dense:
            for x in (np.nextafter(lam, -np.inf), lam, np.nextafter(lam, np.inf)):
                got = self.count(diag, off, x)
                assert (np.count_nonzero(dense < x - slack) <= got
                        <= np.count_nonzero(dense <= x + slack))

    def test_exact_at_representable_eigenvalues(self):
        # blocks [3], [[2, 1], [1, 2]], [-1.5], [0.25]: eigenvalues -1.5, 0.25,
        # 1, 3, 3, each counted at itself and not one ulp below
        diag, off = [3.0, 2.0, 2.0, -1.5, 0.25], [0.0, 1.0, 0.0, 0.0]
        for lam, below, at in ((-1.5, 0, 1), (0.25, 1, 2), (1.0, 2, 3), (3.0, 3, 5)):
            assert self.count(diag, off, np.nextafter(lam, -np.inf)) == below
            assert self.count(diag, off, lam) == at
            assert self.count(diag, off, np.nextafter(lam, np.inf)) == at
        for x in (np.nextafter(3.25, -np.inf), 3.25, np.nextafter(3.25, np.inf)):
            assert self.count([3.25], [], x) == int(x >= 3.25)


def longdouble_hkappa_lowest(kappa, M, approx, sweeps=8, points=63):
    """Lowest levels of ``Delta + kappa^4 x^2`` on ``[-M, M]`` in ``np.longdouble``.

    The operator is assembled in extended precision and each level is
    narrowed by Sturm counts (negative LDL^T pivots below a shift) at
    ``points`` shifts per sweep, all shifts advancing together through the
    rows.  The starting brackets are ``approx`` widened by 1e-8 relative;
    their counts are asserted, so a wrong ``approx`` fails instead of
    steering the oracle.
    """
    x = np.arange(-M, M + 1, dtype=np.longdouble)
    diag = 2 + np.longdouble(kappa) ** 4 * x * x

    def count_below(shifts):
        with np.errstate(divide="ignore"):
            d = diag[0] - shifts
            counts = (d < 0).astype(np.int64)
            for a in diag[1:]:
                d = (a - shifts) - 1 / d  # off-diagonal -1, so off^2 = 1
                counts += d < 0
        return counts

    idx = np.arange(len(approx))[:, None]
    approx = np.asarray(approx, dtype=np.longdouble)[:, None]
    lo, hi = approx * (1 - 1e-8), approx * (1 + 1e-8)
    assert np.all(count_below(lo) <= idx) and np.all(count_below(hi) > idx)
    steps = np.arange(1, points + 1, dtype=np.longdouble) / (points + 1)
    for _ in range(sweeps):
        shifts = lo + (hi - lo) * steps
        above = count_below(shifts) > idx
        lo = np.where(above, lo, shifts).max(axis=1, keepdims=True)
        hi = np.where(above, shifts, hi).min(axis=1, keepdims=True)
    return (0.5 * (lo + hi))[:, 0]


def two_well_2d(N, M=16):
    params = ScalingParams(N=N, gamma=0.0, omega=1.0)
    return assemble_HN(two_well(d=2), params, LatticeBox.centered(2, M))


def random_box_3d(seed):
    rng = np.random.default_rng(seed)
    box = LatticeBox(lo=(0, 0, 0), hi=(10, 10, 10))  # 1331 points
    diag = rng.uniform(0.0, 12.0, box.size)
    return SymmetricLatticeOperator(box=box, diagonal=diag, coupling=1.5)


@st.composite
def inertia_cases(draw):
    """A small 2-d or 3-d lattice operator, its dense spectrum and a shift.

    Couplings include 0 and diagonals may be integers.  The shift sits below,
    above or at a gap midpoint of the dense spectrum, at an eigenvalue of an
    axis-0 slab block, or at an integer.  The last flag says whether a pivot
    block may be exactly singular there."""
    d = draw(st.sampled_from([2, 3]))
    shape = draw(st.lists(st.integers(1, 6 if d == 2 else 4), min_size=d, max_size=d))
    box = LatticeBox(lo=(0,) * d, hi=tuple(n - 1 for n in shape))
    coupling = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.05, 3.0)))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diag = (rng.integers(0, 7, box.size).astype(float) if integer
            else rng.uniform(-2.0, 8.0, box.size))
    op = SymmetricLatticeOperator(box=box, diagonal=diag, coupling=coupling)
    dense = np.linalg.eigvalsh(op.dense())
    kind = draw(st.sampled_from(["gap", "slab", "integer"]))
    if kind == "gap":
        j = draw(st.integers(0, box.size))
        theta = (dense[0] - 1.0 if j == 0 else dense[-1] + 1.0 if j == box.size
                 else 0.5 * (dense[j - 1] + dense[j]))
    elif kind == "slab":
        r = draw(st.integers(0, shape[0] - 1))
        slab = LatticeBox(lo=(r,) + box.lo[1:], hi=(r,) + box.hi[1:])
        theta = draw(st.sampled_from(np.linalg.eigvalsh(op.restrict(slab).dense()).tolist()))
    else:
        theta = float(draw(st.integers(-2, 12)))
    return op, dense, theta, integer or kind != "gap"


class TestSparse:
    @settings(max_examples=400, deadline=None)
    @given(inertia_cases())
    def test_inertia_count_matches_dense_on_random_boxes(self, case):
        op, dense, theta, may_be_singular = case
        try:
            got = count_below(op, theta)
        except ConvergenceFailure as exc:
            assert may_be_singular, exc
            assert "singular block pivot" in str(exc)
            return
        # within rounding of an eigenvalue of H the dense count itself is ambiguous
        tol = 1e-9 * (1.0 + np.abs(dense).max())
        assert np.count_nonzero(dense < theta - tol) <= got
        assert got <= np.count_nonzero(dense < theta + tol)
        if not np.any(np.abs(dense - theta) <= tol):
            assert got == np.count_nonzero(dense < theta)

    def test_two_by_two_pivots_count_their_negative(self):
        # a zero slab diagonal against a large coupling makes dsytrf take 2x2
        # pivots inside the slab; each such block is indefinite
        op = SymmetricLatticeOperator(box=LatticeBox(lo=(0, 0), hi=(3, 5)),
                                      diagonal=np.zeros(24), coupling=1.0)
        dense = np.linalg.eigvalsh(op.dense())
        for theta in (-0.3, 0.1, 0.7, 1.9):
            assert count_below(op, theta) == np.count_nonzero(dense < theta)

    @pytest.fixture(scope="class")
    def cases(self):
        ops = [two_well_2d(2), two_well_2d(4), random_box_3d(0)]
        return [(op, np.linalg.eigvalsh(op.dense())) for op in ops]

    def test_inertia_count_matches_dense(self, cases):
        for op, dense in cases:
            shifts = [
                dense[0] - 1.0,
                0.5 * (dense[0] + dense[1]),  # two_well: the tunnelling ground pair
                0.5 * (dense[3] + dense[4]),
                0.5 * (dense[40] + dense[41]),
                dense[-1] + 1.0,
            ]
            for theta in shifts:
                assert count_below(op, theta) == np.count_nonzero(dense < theta)

    def test_against_dense_oracle(self, cases):
        for op, dense in cases:
            for k in (1, 4, 7):
                got = eigs_sparse(op, k).values
                np.testing.assert_allclose(got, dense[:k], rtol=1e-11)

    def test_deterministic(self):
        op = two_well_2d(2, M=8)
        assert eigs_sparse(op, 4).values.tobytes() == eigs_sparse(op, 4).values.tobytes()

    def test_missed_candidate_fails_the_index_certificate(self, monkeypatch):
        ritz_pairs = eigensolve._ritz_pairs

        def drops_one(op, wanted):
            # every retry misses the same level; at the cap of size - 1
            # candidates ARPACK cannot be asked for one more
            values, vectors = ritz_pairs(op, min(wanted + 1, op.size - 1))
            return np.delete(values, 1), np.delete(vectors, 1, axis=1)

        monkeypatch.setattr(eigensolve, "_ritz_pairs", drops_one)
        with pytest.raises(ConvergenceFailure, match="index certificate"):
            eigs_sparse(two_well_2d(2, M=8), 4)

    def test_degenerate_clusters_certified_at_the_next_gap(self):
        # free Laplacian on a 3 x 3 box: multiplicities 1, 2, 3, 2, 1, so most
        # k split a cluster; past the top one no wider gap is left below size - 1
        op = assemble_laplacian(LatticeBox(lo=(0, 0), hi=(2, 2)))
        dense = np.linalg.eigvalsh(op.dense())
        for k in range(1, 7):
            np.testing.assert_allclose(eigs_sparse(op, k).values, dense[:k], rtol=1e-12)
        with pytest.raises(ConvergenceFailure, match="no gap wider than"):
            eigs_sparse(op, 7)

    def test_singular_or_non_finite_pivot_fails(self):
        op = SymmetricLatticeOperator(
            box=LatticeBox(lo=(0, 0), hi=(1, 0)), diagonal=np.ones(2), coupling=1.0
        )
        with pytest.raises(ConvergenceFailure, match="singular block pivot 0"):
            count_below(op, 1.0)
        with pytest.raises(ConvergenceFailure, match="non-finite block pivot 0"):
            count_below(op, np.nan)

    def test_singular_pivot_at_the_midpoint_moves_inside_the_gap(self):
        # 2 x 2 free Laplacian, spectrum 2, 4, 4, 6: the midpoint 3 of the
        # first gap is an eigenvalue of the slab block [[4, -1], [-1, 4]]
        op = assemble_laplacian(LatticeBox(lo=(0, 0), hi=(1, 1)))
        with pytest.raises(ConvergenceFailure, match="singular block pivot 0"):
            count_below(op, 3.0)
        np.testing.assert_allclose(eigs_sparse(op, 1).values, [2.0], rtol=1e-14)

    def test_k_range(self):
        op = two_well_2d(2, M=1)
        with pytest.raises(ValueError):
            eigs_sparse(op, op.size - 1)


class TestExtendedPrecisionOracle:
    # levels far below |H|: LAPACK's default tolerance (eps |H|) misses the
    # kappa = 0.05 bound by almost an order of magnitude
    @pytest.mark.parametrize(
        "kappa, M, bound", [(0.05, 4000, 1e-13), (4096.0 ** -0.75, 9216, 5e-11)]
    )
    def test_hkappa_lowest_levels(self, kappa, M, bound):
        got = eigs_tridiag(assemble_Hkappa(kappa, LatticeBox.centered(1, M)), 3).values
        want = longdouble_hkappa_lowest(kappa, M, got)
        rel = np.abs((got.astype(np.longdouble) - want) / want)
        assert float(rel.max()) <= bound


def sign_rule(vectors):
    """Flip each column so its first entry above 1e-12 of its sup norm is positive."""
    mags = np.abs(vectors)
    first = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    return vectors * np.where(vectors[first, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)


class TestEigenpairsContract:
    """``eigenpairs`` calls ``dstebz`` and ``dstein`` directly; it must return
    exactly what ``scipy.linalg.eigh_tridiagonal`` returns with the same driver
    and tolerance, after the sign rule, and keep that wrapper's checks."""

    @given(tridiagonals())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_scipy_wrapper(self, case):
        diag, off, k = case
        values, vectors = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, k - 1),
            lapack_driver="stebz", tol=2 * np.finfo(float).tiny)
        got = eigenpairs((diag, off), k)
        assert got.values.dtype == values.dtype
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.vectors, sign_rule(vectors))

    def test_one_by_one(self):
        got = eigenpairs((np.array([-2.5]), np.zeros(0)), 1)
        assert np.array_equal(got.values, [-2.5]) and np.array_equal(got.vectors, [[1.0]])
        assert np.array_equal(eigvec_inverse_iteration((np.array([-2.5]), np.zeros(0)),
                                                       -2.5), [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diag", "off"])
    def test_non_finite_input_raises(self, bad, where):
        diag, off = np.linspace(0.0, 1.0, 6), -np.ones(5)
        (diag if where == "diag" else off)[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigenpairs((diag, off), 2)
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigvec_inverse_iteration((diag, off), 0.5)

    def test_non_finite_eigenvalue_raises(self):
        with pytest.raises(ValueError, match="finite"):
            eigvec_inverse_iteration((np.linspace(0.0, 1.0, 6), -np.ones(5)), np.nan)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            eigenpairs((np.ones(3), -np.ones(2)), 4)

    def test_stein_failure_raises(self, monkeypatch):
        def unconverged(diag, off, w, iblock, isplit):
            return np.zeros((diag.size, w.size)), 1

        monkeypatch.setattr(scipy.linalg.lapack, "dstein", unconverged)
        op = (np.array([1.0, 2.0, 3.0]), np.array([-0.5, -0.5]))
        with pytest.raises(ConvergenceFailure, match="1 eigenvectors failed"):
            eigenpairs(op, 2)
        with pytest.raises(ConvergenceFailure, match="1 eigenvectors failed"):
            eigvec_inverse_iteration(op, 0.5)

    def test_stebz_failure_raises(self, monkeypatch):
        def unconverged(diag, off, *args):
            return 2, np.zeros(diag.size), np.ones(diag.size), np.ones(diag.size), 1

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", unconverged)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            eigenpairs((np.array([1.0, 2.0, 3.0]), np.array([-0.5, -0.5])), 2)

    def test_wrong_eigenvalue_breaks_the_residual_contract(self):
        with pytest.raises(ConvergenceFailure, match="residual"):
            eigvec_inverse_iteration((np.array([0.0, 1.0]), np.zeros(1)), 0.5)


class TestSingleLapackPath:
    """Every tridiagonal eigenvalue and eigenvector in ``lsc`` goes through one
    ``dstebz`` call site and one ``dstein`` call site, in their private helpers."""

    SOURCES = sorted(Path(eigensolve.__file__).parent.glob("*.py"))
    BANNED = ("eigh_tridiagonal", "eigvalsh_tridiagonal", "solve_banded",
              "get_lapack_funcs")

    @staticmethod
    def references(path):
        """``(module, top-level definition or None, name)`` for every name,
        attribute and import in a module."""
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    yield path.stem, owner, node.id
                elif isinstance(node, ast.Attribute):
                    yield path.stem, owner, node.attr
                elif isinstance(node, ast.alias):
                    yield path.stem, owner, node.name.rpartition(".")[2]

    @staticmethod
    def calls(path):
        """``(module, top-level definition, callee name, keyword names,
        positional count)`` for every call in a module."""
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    yield (path.stem, getattr(top, "name", None), callee,
                           {kw.arg for kw in node.keywords}, len(node.args))

    def test_one_call_site_per_routine(self):
        refs = [r for path in self.SOURCES for r in self.references(path)]
        assert [r for r in refs if r[2] == "dstebz"] == [("eigensolve", "_stebz", "dstebz")]
        assert [r for r in refs if r[2] == "dstein"] == [("eigensolve", "_stein", "dstein")]
        assert [r for r in refs if r[2] in self.BANNED] == []
        # one sparse LU and one shift-invert Lanczos call, in the shared helper
        calls = [c for path in self.SOURCES for c in self.calls(path)]
        assert [c[:2] for c in calls if c[2] == "splu"] == [("eigensolve", "_ritz_pairs")]
        assert [c[:2] for c in calls
                if c[2] == "eigsh" and ("sigma" in c[3] or c[4] > 3)] == [
            ("eigensolve", "_ritz_pairs")]


class TestEigenvectors:
    def test_ground_state_positive(self):
        # Perron-Frobenius for the nonpositive-coupling sign structure; below
        # the solver noise floor the tail sign is not resolvable
        op = assemble_Hkappa(0.1, LatticeBox.centered(1, 150))
        lam = eigs_tridiag(op, 1).values[0]
        v = eigvec_inverse_iteration(op, lam)
        resolvable = np.abs(v) > 1e-12 * np.abs(v).max()
        assert resolvable.sum() > 100
        assert np.all(v[resolvable] > 0.0)

    def test_diagonal_two_by_two(self):
        v = eigvec_inverse_iteration((np.array([0.0, 1.0]), np.zeros(1)), 0.0)
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-12)

    def test_residual_contract(self):
        op = assemble_Hkappa(0.2, LatticeBox.centered(1, 80))
        res = eigenpairs(op, 6)
        diag, off = op.tridiagonal()
        for i in range(6):
            v = res.vectors[:, i]
            r = diag * v - res.values[i] * v
            r[:-1] += off * v[1:]
            r[1:] += off * v[:-1]
            assert np.linalg.norm(r) <= 1e-8 * (1.0 + abs(res.values[i]))
            assert res.residual_norms[i] <= 1e-8 * (1.0 + abs(res.values[i]))

    def test_near_degenerate_pair_orthogonal(self):
        # double-well style spectrum with a tiny splitting
        x = np.arange(-300, 301).astype(float)
        diag = 2.0 + 1e-5 * (np.abs(x) - 150.0) ** 2
        off = -np.ones(x.size - 1)
        res = eigenpairs((diag, off), 2)
        assert abs(res.values[1] - res.values[0]) / res.values[0] < 1e-4
        dot = abs(np.dot(res.vectors[:, 0], res.vectors[:, 1]))
        assert dot < 1e-7


class TestSeparable:
    def test_two_axis_example(self):
        np.testing.assert_allclose(eigs_separable([[1, 3], [1, 3]], 3), [2, 4, 4])

    def test_single_axis_identity(self):
        np.testing.assert_allclose(eigs_separable([[0.5, 1.5, 2.5]], 3), [0.5, 1.5, 2.5])

    def test_exhausted(self):
        with pytest.raises(Exhausted):
            eigs_separable([[1.0], [1.0]], 2)

    def test_deterministic_tie_order(self):
        out = k_smallest_sums([[0.0, 1.0], [0.0, 1.0]], 4)
        assert [idx for _, idx in out] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_against_dense_2d_oracle(self):
        kx, ky = 0.5, 0.7
        M = 8
        box1 = LatticeBox.centered(1, M)
        ax = eigs_tridiag(assemble_Hkappa(kx, box1), 6).values
        ay = eigs_tridiag(assemble_Hkappa(ky, box1), 6).values
        sep = eigs_separable([ax, ay], 6)
        n1 = 2 * M + 1
        x = box1.coords().astype(float)
        H = np.zeros((n1 * n1, n1 * n1))
        idx = np.arange(n1 * n1).reshape(n1, n1)
        H[idx, idx] = (
            (2.0 + kx**4 * x * x)[:, None] + (2.0 + ky**4 * x * x)[None, :]
        )
        for i in range(n1 - 1):
            H[idx[i, :], idx[i + 1, :]] = H[idx[i + 1, :], idx[i, :]] = -1.0
            H[idx[:, i], idx[:, i + 1]] = H[idx[:, i + 1], idx[:, i]] = -1.0
        dense = np.linalg.eigvalsh(H)[:6]
        np.testing.assert_allclose(sep, dense, atol=1e-9)


class TestNodal:
    def test_alternating_vector(self):
        assert nodal_domains(np.array([1.0, -1.0, 1.0])).count == 3

    def test_zero_entry_separates(self):
        assert nodal_domains(np.array([1.0, 0.0, 1.0])).count == 2

    def test_ground_state_single_domain(self):
        op = assemble_Hkappa(0.1, LatticeBox.centered(1, 150))
        res = eigenpairs(op, 1)
        assert nodal_domains(res.vectors[:, 0]).count == 1

    def test_excited_states_count(self):
        op = assemble_Hkappa(0.1, LatticeBox.centered(1, 130))
        res = eigenpairs(op, 7)
        for n in range(7):
            report = nodal_domains(res.vectors[:, n], index=n)
            assert report.count == n + 1

    def test_all_zero_raises(self):
        with pytest.raises(AllZero):
            nodal_domains(np.zeros(5))


class TestSymmetry:
    def test_constant_symmetric(self):
        assert classify_symmetry(np.ones(7)) == "symmetric"

    def test_linear_antisymmetric(self):
        assert classify_symmetry(np.arange(-5, 6).astype(float)) == "antisymmetric"

    def test_generic_neither(self):
        assert classify_symmetry(np.array([1.0, 2.0, 4.0])) == "neither"

    def test_parity_alternates_with_level(self):
        op = assemble_Hkappa(0.2, LatticeBox.centered(1, 60))
        res = eigenpairs(op, 9)
        for n in range(9):
            want = "symmetric" if n % 2 == 0 else "antisymmetric"
            assert classify_symmetry(res.vectors[:, n]) == want

    def test_multiplicity_at_most_two(self):
        op = assemble_Hkappa(0.1, LatticeBox.centered(1, 130))
        res = eigs_tridiag(op, 9)
        assert max(len(c) for c in multiplicity_clusters(res.values)) <= 2


class TestSuperharmonic:
    def test_laplacian_with_constants(self):
        op = assemble_laplacian(LatticeBox.centered(1, 12))
        ok, slack = verify_superharmonic(op, 0.0, np.ones(op.size))
        assert ok and slack == 0.0

    def test_very_negative_alpha_fails(self):
        op = assemble_laplacian(LatticeBox.centered(1, 12))
        ok, slack = verify_superharmonic(op, -10.0, np.ones(op.size))
        assert not ok and slack < 0.0

    def test_rejects_nonpositive_function(self):
        op = assemble_laplacian(LatticeBox.centered(1, 5))
        with pytest.raises(NonPositiveFunction):
            verify_superharmonic(op, 0.0, np.zeros(op.size))

    def test_certifies_ground_energy_floor(self):
        # u = 1 is alpha-superharmonic for alpha = -min(potential); the
        # solver must agree that the ground energy clears that floor
        from lsc.lattice import SymmetricLatticeOperator

        rng = np.random.default_rng(11)
        box = LatticeBox.centered(1, 40)
        p = rng.uniform(0.3, 2.0, box.size)
        op = SymmetricLatticeOperator(box=box, diagonal=2.0 + p, coupling=1.0)
        alpha = -float(p.min())
        ok, slack = verify_superharmonic(op, alpha, np.ones(box.size))
        assert ok and slack >= 0.0
        assert eigs_tridiag(op, 1).values[0] >= -alpha - 1e-10

    def test_capped_quasimode_certificate_on_spiked_operator(self):
        # the plain quasimode fails pointwise in the deep tail (the error
        # term is absolute while the function decays); the spiked potential
        # with the capped certificate is the working form
        from lsc.lattice import ModifiedPotentialParams, assemble_modified

        kappa, eps = 0.1, 0.1
        mod = ModifiedPotentialParams(kappa=kappa, delta=0.25)
        M = max(hermite.box_halfwidth(0, kappa), mod.x_delta + 2)
        op = assemble_modified(mod, LatticeBox.centered(1, M))
        xs = op.box.coords().astype(float)
        u = hermite.weighted_eval(0, kappa * xs)
        cap = float(hermite.weighted_eval(0, kappa * float(mod.x_delta)))
        u[np.abs(xs) > mod.x_delta] = cap
        alpha = -(1.0 - eps) * kappa**2
        ok, slack = verify_superharmonic(op, alpha, u)
        assert ok, f"min slack {slack}"
        assert eigs_tridiag(op, 1).values[0] >= -alpha - 1e-10


class TestRayleigh:
    def test_eigenvector_recovers_eigenvalue(self):
        op = assemble_Hkappa(0.2, LatticeBox.centered(1, 70))
        res = eigenpairs(op, 3)
        for i in range(3):
            assert rayleigh(op, res.vectors[:, i]) == pytest.approx(
                res.values[i], abs=1e-10 * (1 + res.values[i])
            )

    def test_bounded_below_by_ground_energy(self):
        op = assemble_Hkappa(0.2, LatticeBox.centered(1, 70))
        ground = eigs_tridiag(op, 1).values[0]
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = rng.standard_normal(op.size)
            assert rayleigh(op, v) >= ground - 1e-12

    def test_ground_quasimode_upper_bound(self):
        # measured constant: the quotient sits below kappa^2 (1 + C kappa)
        for kappa in (0.2, 0.1, 0.05):
            op = assemble_Hkappa(kappa, LatticeBox.centered(1, hermite.box_halfwidth(0, kappa)))
            u = hermite.weighted_eval(0, kappa * op.box.coords().astype(float))
            assert rayleigh(op, u) <= kappa**2 + 1.0 * kappa**3

    def test_zero_vector_rejected(self):
        op = assemble_laplacian(LatticeBox.centered(1, 3))
        with pytest.raises(ZeroVector):
            rayleigh(op, np.zeros(op.size))


class TestRitz:
    def test_exact_eigenvectors_reproduce_spectrum(self):
        op = assemble_Hkappa(0.2, LatticeBox.centered(1, 60))
        res = eigenpairs(op, 4)
        thetas = subspace_upper_bounds(op, [res.vectors[:, i] for i in range(4)])
        np.testing.assert_allclose(thetas, res.values, rtol=1e-10)

    def test_single_vector_reduces_to_rayleigh(self):
        op = assemble_Hkappa(0.2, LatticeBox.centered(1, 60))
        v = np.exp(-0.01 * op.box.coords().astype(float) ** 2)
        theta = subspace_upper_bounds(op, [v])
        assert theta[0] == pytest.approx(rayleigh(op, v), rel=1e-13)

    def test_upper_bound_property(self):
        kappa = 0.1
        op = assemble_Hkappa(kappa, LatticeBox.centered(1, hermite.box_halfwidth(5, kappa)))
        xs = op.box.coords().astype(float)
        quasimodes = [hermite.weighted_eval(n, kappa * xs) for n in range(6)]
        thetas = subspace_upper_bounds(op, quasimodes)
        exact = eigs_tridiag(op, 6).values
        assert np.all(thetas >= exact - 1e-12 * (1.0 + np.abs(exact)))

    def test_ill_conditioned_span_rejected(self):
        op = assemble_laplacian(LatticeBox.centered(1, 20))
        v = np.ones(op.size)
        with pytest.raises(IllConditionedSpan):
            subspace_upper_bounds(op, [v, v + 1e-15 * np.arange(op.size)])
        with pytest.raises(IllConditionedSpan):
            subspace_upper_bounds(op, [v, 0.0 * v])

    def test_norms_alone_do_not_make_a_span_ill_conditioned(self):
        # two orthogonal vectors whose norms differ by 1e8: cond(B) is 1e16,
        # the equilibrated Gram matrix is the identity
        op = assemble_laplacian(LatticeBox.centered(1, 20))
        xs = op.box.coords().astype(float)
        even, odd = np.ones(op.size), 1e8 * xs
        thetas = subspace_upper_bounds(op, [even, odd])
        want = sorted(rayleigh(op, v) for v in (even, odd))
        np.testing.assert_allclose(thetas, want, rtol=1e-12)


class TestConvergedSpectrum:
    def test_dirichlet_monotone_and_converged(self):
        kappa = 0.2
        levels = {}

        def assemble(M):
            return assemble_Hkappa(kappa, LatticeBox.centered(1, M))

        for M in (20, 40, 80, 160):
            levels[M] = eigs_tridiag(assemble(M), 3).values
        for M1, M2 in ((20, 40), (40, 80), (80, 160)):
            assert np.all(levels[M2] <= levels[M1] + 1e-13)
        res = converged_spectrum(assemble, 50, 3, lambda M: kappa**4 * (M + 1) ** 2)
        np.testing.assert_allclose(res.values, levels[160], rtol=1e-10)

    def test_gives_up_flag(self):
        # with no confining potential the ground level keeps falling like
        # 1/M^2, more than the doubling tolerance allows after every doubling
        def assemble(M):
            box = LatticeBox.centered(1, M)
            return assemble_laplacian(box)

        with pytest.raises(BoxTooSmall, match="after 14 doublings"):
            converged_spectrum(assemble, 4, 1, lambda M: 0.0)

    @pytest.mark.parametrize("d, k, M0, certified_at", [(1, 41, 19, 38), (2, 30, 2, 16)])
    def test_start_box_below_k_levels_doubles(self, d, k, M0, certified_at):
        # 39 points for 41 levels, or 25 for 30 in 2-d (which needs k + 2): the
        # start box is left uncertified and doubled, not refused
        kappa = 0.9

        def assemble(M):
            box = LatticeBox.centered(d, M)
            x = np.indices(box.shape).reshape(d, -1).T - M
            return SymmetricLatticeOperator(
                box=box, diagonal=2.0 * d + kappa**4 * (x * x).sum(axis=1), coupling=1.0)

        res = converged_spectrum(assemble, M0, k, lambda M: kappa**4 * (M + 1) ** 2)
        assert res.box == LatticeBox.centered(d, certified_at)
        want = np.linalg.eigvalsh(assemble(80 if d == 1 else 30).dense())[:k]
        assert np.all(np.abs(res.values - want) <= res.truncation_width)


class TestTruncationBracket:
    @pytest.mark.parametrize("kappa", [0.2, 0.05])
    def test_encloses_the_harmonic_levels(self, kappa):
        def assemble(M):
            return assemble_Hkappa(kappa, LatticeBox.centered(1, M))

        assert_bracket_encloses(assemble, hermite.box_halfwidth(5, kappa), 6,
                                lambda M: kappa**4 * (M + 1) ** 2)

    def test_small_start_box_doubles_until_certified(self):
        kappa = 0.2
        boxes = []

        def assemble(M):
            boxes.append(M)
            return assemble_Hkappa(kappa, LatticeBox.centered(1, M))

        res = converged_spectrum(assemble, 4, 3, lambda M: kappa**4 * (M + 1) ** 2)
        assert len(boxes) > 1 and boxes == [4 * 2**j for j in range(len(boxes))]
        assert res.box == LatticeBox.centered(1, boxes[-1])
        np.testing.assert_array_equal(
            res.truncation_width, eigensolve.BOX_DOUBLING_RTOL * (1.0 + np.abs(res.values)))
        big = eigs_tridiag(assemble_Hkappa(kappa, LatticeBox.centered(1, 400)), 3).values
        np.testing.assert_allclose(res.values, big, rtol=1e-10)

    @pytest.mark.parametrize("floor", [0.0, -math.inf])
    def test_floor_below_the_levels_skips_neumann_and_doubles(self, monkeypatch, floor):
        # a floor the Dirichlet levels already reach cannot certify: every box
        # is one Dirichlet solve and no Neumann count, and the doubling ends
        # in BoxTooSmall, for no other rule accepts a box
        kappa = 0.2
        ranges = record_dstebz_ranges(monkeypatch)

        def assemble(M):
            return assemble_Hkappa(kappa, LatticeBox.centered(1, M))

        with pytest.raises(BoxTooSmall, match="after 14 doublings"):
            converged_spectrum(assemble, 4, 3, lambda M: floor)
        assert ranges == [2] * (eigensolve.MAX_DOUBLINGS + 1)

    def test_accepted_box_is_one_solve_and_k_plus_one_counts(self, monkeypatch):
        # the Neumann side of the bracket is Sturm counts (RANGE='V'), never
        # a second index solve (RANGE='I')
        kappa, k = 0.2, 6
        ranges = record_dstebz_ranges(monkeypatch)

        def assemble(M):
            return assemble_Hkappa(kappa, LatticeBox.centered(1, M))

        M0 = hermite.box_halfwidth(5, kappa)
        res = converged_spectrum(assemble, M0, k, lambda M: kappa**4 * (M + 1) ** 2)
        assert res.box == LatticeBox.centered(1, M0) and res.truncation_width is not None
        assert ranges == [2] + [1] * (k + 1)

    @staticmethod
    def edge_wells(d, M):
        """Potential 100 outside the sup-norm ball of radius 20, 0 on
        17..20, a barrier of 10 on 5..17 and 0.5 inside, on the half-width
        ``M`` box with coupling 1."""
        box = LatticeBox.centered(d, M)
        x = np.abs(point_array(box)).max(axis=1)
        V = np.select([x > 20, x >= 17, x >= 5], [100.0, 0.0, 10.0], 0.5)
        return SymmetricLatticeOperator(box=box, diagonal=2.0 * d + V, coupling=1.0)

    def test_neumann_level_below_the_tolerance_doubles(self):
        # wells at both box edges hold the two lowest levels, a barrier of
        # height 10 parts them from a centre well holding the third, and the
        # potential is 100 outside |x| <= 20.  On the start box the floor lies
        # above every tracked level and the third level is certified, but the
        # edge levels feel the cut bonds: their Neumann levels lie below
        # cur - tol, so the box doubles once and the counts certify M = 40
        boxes = []

        def assemble(M):
            boxes.append(M)
            return self.edge_wells(1, M)

        op = assemble(20)
        cur = eigs_tridiag(op, 3).values
        neu = eigs_tridiag((op.diagonal - op.dropped_neighbor_count(),
                            op.tridiagonal()[1]), 3).values
        below = neu < cur - eigensolve.BOX_DOUBLING_RTOL * (1.0 + np.abs(cur))
        assert neu[-1] < 100.0 and below.tolist() == [True, True, False]
        boxes.clear()
        res = converged_spectrum(assemble, 20, 3, lambda M: 100.0)
        assert boxes == [20, 40] and res.box == LatticeBox.centered(1, 40)
        np.testing.assert_array_equal(
            res.truncation_width, eigensolve.BOX_DOUBLING_RTOL * (1.0 + np.abs(res.values)))

    def test_2d_edge_levels_double_once(self, monkeypatch):
        # in 2-d the edge well is a square ring that holds all three tracked
        # levels; the inertia counts of the Neumann operator refuse the start
        # box and certify the doubled one.  A cap above the doubled box
        # (81^2 points) stops a run that refuses it too, instead of doubling
        # into boxes of millions of points
        monkeypatch.setattr(eigensolve, "MAX_BOX_POINTS", 10_000)
        boxes = []

        def assemble(M):
            boxes.append(M)
            return self.edge_wells(2, M)

        res = converged_spectrum(assemble, 20, 3, lambda M: 100.0)
        assert boxes == [20, 40] and res.box == LatticeBox.centered(2, 40)
        np.testing.assert_array_equal(
            res.truncation_width, eigensolve.BOX_DOUBLING_RTOL * (1.0 + np.abs(res.values)))
        np.testing.assert_array_equal(res.values,
                                      eigs_sparse(self.edge_wells(2, 40), 3).values)

    @staticmethod
    def neumann(op):
        return SymmetricLatticeOperator(
            box=op.box, diagonal=op.diagonal - op.coupling * op.dropped_neighbor_count(),
            coupling=op.coupling)

    @staticmethod
    def bowl(hi, seed):
        """A rough quadratic bowl on the box ``0 .. hi`` with coupling 1."""
        box = LatticeBox(lo=(0,) * len(hi), hi=hi)
        x = point_array(box).astype(float)
        rough = np.random.default_rng(seed).uniform(0.0, 0.5, box.size)
        diag = 2.0 * len(hi) + 0.3 * ((x - 0.5 * np.array(hi)) ** 2).sum(axis=1) + rough
        return SymmetricLatticeOperator(box=box, diagonal=diag, coupling=1.0)

    @pytest.mark.parametrize("make_op, k", [
        (lambda: two_well_2d(2, M=18), 4),  # the start box of levels_HN at N = 2
        (lambda: two_well_2d(2, M=6), 4),
        (lambda: two_well_2d(2, M=5), 4),
        (lambda: TestTruncationBracket.bowl((9, 12), 0), 3),
        (lambda: TestTruncationBracket.bowl((6, 7, 8), 1), 4),
    ], ids=["two_well_N2_start", "two_well_N2_M6", "two_well_N2_M5", "bowl_2d", "bowl_3d"])
    def test_lehmann_bounds_lie_below_the_neumann_levels(self, make_op, k):
        # with exactly k Neumann levels below rho, the Temple-Lehmann bounds
        # from the Dirichlet Ritz vectors lie below the dense Neumann levels, up
        # to the rounding of the dense oracle itself (its levels on the start
        # box read up to 2.3e-13 relative off the Ritz values, about 5 eps |H|);
        # on the smaller boxes the cut bonds lower the Neumann levels by 1e-5
        # to 1e-1 relative, and the bounds stay below them
        op = make_op()
        neu = self.neumann(op)
        values, vectors = eigensolve._ritz_pairs(op, k + 1)
        rho = 0.5 * (values[k - 1] + values[k])
        assert count_below(neu, rho) == k
        lower = eigensolve._lehmann_lower(neu, rho, vectors[:, :k])
        dense = np.linalg.eigvalsh(neu.dense())[:k]
        norm = np.abs(op.diagonal).max() + 2 * op.box.dimension * op.coupling
        assert np.all(lower <= dense + 64 * np.finfo(float).eps * norm)
        assert np.all(lower <= values[:k] + 64 * np.finfo(float).eps * norm)

    @pytest.mark.parametrize("column, keep, noise", [(2, 1.0, 1e-6), (0, 0.0, 1.0)])
    def test_perturbed_ritz_vector_is_refused(self, monkeypatch, column, keep, noise):
        # the start box certifies with ARPACK's vectors.  A relative error of
        # 1e-6 in one of them loosens its Lehmann bound far past the
        # tolerance.  A random vector in place of the ground state has its
        # Rayleigh quotient far above rho, so one tau is positive and gives no
        # bound, while the other three still bound levels 1 to 3 closely
        op, floor = two_well_2d(2, M=18), 50.0
        assert eigensolve._bracket_sparse(op, 4, floor) is not None
        ritz_pairs = eigensolve._ritz_pairs

        def perturbed(op, wanted):
            values, vectors = ritz_pairs(op, wanted)
            v = (keep * vectors[:, column]
                 + noise * np.random.default_rng(0).standard_normal(op.size))
            vectors[:, column] = v / np.linalg.norm(v)
            return values, vectors

        monkeypatch.setattr(eigensolve, "_ritz_pairs", perturbed)
        assert eigensolve._bracket_sparse(op, 4, floor) is None

    @pytest.mark.parametrize("dropped", [1, 4])
    def test_dropped_ritz_pair_is_never_certified(self, monkeypatch, dropped):
        # ARPACK that misses the same level on every call: dropping pair 4
        # puts rho above the fifth Neumann level, dropping pair 1 leaves a
        # candidate above its level; either way the Neumann count is 5, not 4,
        # no Lehmann bound is taken, the Dirichlet count disagrees with the
        # candidates and, at size - 1 of them, the box fails instead of
        # returning wrong values
        import scipy.sparse.linalg

        real = scipy.sparse.linalg.eigsh
        lehmann = []

        def drops_one(A, k, **kwargs):
            values, vectors = real(A, k=min(k + 1, A.shape[0] - 1), **kwargs)
            order = np.argsort(values)
            return np.delete(values[order], dropped), np.delete(vectors[:, order], dropped, 1)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", drops_one)
        monkeypatch.setattr(eigensolve, "_lehmann_lower", lambda *a: lehmann.append(a))
        # a box left uncertified would double; the cap stops that at once
        monkeypatch.setattr(eigensolve, "MAX_BOX_POINTS", 1000)
        with pytest.raises(ConvergenceFailure, match="index certificate failed: 5 "):
            converged_spectrum(lambda M: two_well_2d(2, M=M), 8, 4, lambda M: 50.0)
        assert lehmann == []

    def test_certified_box_takes_one_inertia_count(self, monkeypatch):
        # one ARPACK solve and one count, of the Neumann operator, per box
        counts, solves = [], []
        count, ritz_pairs = eigensolve.count_below, eigensolve._ritz_pairs
        monkeypatch.setattr(eigensolve, "count_below",
                            lambda op, theta: counts.append(op) or count(op, theta))
        monkeypatch.setattr(eigensolve, "_ritz_pairs",
                            lambda op, wanted: solves.append(op) or ritz_pairs(op, wanted))
        res = converged_spectrum(lambda M: two_well_2d(2, M=M), 18, 4, lambda M: 50.0)
        assert res.box == LatticeBox.centered(2, 18) and len(solves) == 1
        assert len(counts) == 1
        np.testing.assert_array_equal(counts[0].diagonal, self.neumann(solves[0]).diagonal)
        np.testing.assert_array_equal(res.values, eigs_sparse(two_well_2d(2, M=18), 4).values)

    def test_singular_neumann_pivot_leaves_the_box_uncertified(self, monkeypatch):
        # 2 x 2 free Laplacian: Dirichlet levels 2, 4, 4, 6, so rho = 3; its
        # Neumann slab block [[2, -1], [-1, 2]] has the eigenvalue 3.  The count
        # fails, the box doubles instead of the run stopping, and the open
        # bracket ends at the (monkeypatched) box cap
        monkeypatch.setattr(eigensolve, "MAX_BOX_POINTS", 30)
        failed = []
        count = eigensolve.count_below

        def recording_count(op, theta):
            try:
                return count(op, theta)
            except ConvergenceFailure:
                failed.append((op.box.shape, theta))
                raise

        monkeypatch.setattr(eigensolve, "count_below", recording_count)
        with pytest.raises(BoxTooSmall, match="half-width 2 after 1 doublings"):
            converged_spectrum(
                lambda M: assemble_laplacian(LatticeBox(lo=(0, 0), hi=(M, M))), 1, 1,
                lambda M: 10.0)
        assert failed == [((2, 2), 3.0)]

    def test_neumann_level_at_the_floor_is_not_certified(self, monkeypatch):
        # a floor at the top level passes the width test but not the index
        # condition, since the outside spectrum may then hold a lower level:
        # every box stops at that first count, and the doubling gives up (two
        # doublings here, for the levels do not move past the start box)
        kappa = 0.2
        ranges = record_dstebz_ranges(monkeypatch)
        monkeypatch.setattr(eigensolve, "MAX_DOUBLINGS", 2)

        def assemble(M):
            return assemble_Hkappa(kappa, LatticeBox.centered(1, M))

        M0 = hermite.box_halfwidth(2, kappa)
        top = eigs_tridiag(assemble(M0), 3).values[-1]
        ranges.clear()
        with pytest.raises(BoxTooSmall, match=f"half-width {4 * M0} after 2 doublings"):
            converged_spectrum(assemble, M0, 3, lambda M: top)
        assert ranges == [2, 1] * 3

    @pytest.mark.parametrize("M0, boxes", [(4, [4, 8, 16, 32]), (100, [100])])
    def test_open_bracket_stops_below_the_box_cap(self, monkeypatch, M0, boxes):
        # the free Laplacian never certifies; with a cap of 100 points the
        # doubling stops where the next box (4 M + 1 points) would pass it,
        # and a start box above the cap is still solved once
        monkeypatch.setattr(eigensolve, "MAX_BOX_POINTS", 100)
        seen = []

        def assemble(M):
            seen.append(M)
            return assemble_laplacian(LatticeBox.centered(1, M))

        M = boxes[-1]
        with pytest.raises(BoxTooSmall, match=(
                f"half-width {M} after {len(boxes) - 1} doublings; the doubled box "
                f"would hold {4 * M + 1} points, above the cap of 100")):
            converged_spectrum(assemble, M0, 1, lambda M: 0.0)
        assert seen == boxes

    def test_open_bracket_stops_below_the_2d_box_cap(self, monkeypatch):
        # the cap counts the doubled box in its own dimension, (4 M + 1)^2
        monkeypatch.setattr(eigensolve, "MAX_BOX_POINTS", 100)
        seen = []

        def assemble(M):
            seen.append(M)
            return assemble_laplacian(LatticeBox.centered(2, M))

        with pytest.raises(BoxTooSmall, match=(
                "half-width 4 after 1 doublings; the doubled box would hold 289 "
                "points, above the cap of 100")):
            converged_spectrum(assemble, 2, 1, lambda M: 0.0)
        assert seen == [2, 4]

    def test_stebz_reports_missing_values(self, monkeypatch):
        def short(diag, off, *args):
            return 1, np.zeros(diag.size), None, None, 0

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", short)
        with pytest.raises(ConvergenceFailure, match="1 of 2"):
            eigs_tridiag((np.array([1.0, 2.0, 3.0]), np.array([-0.5, -0.5])), 2)
