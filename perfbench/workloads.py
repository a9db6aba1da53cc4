"""The benchmark's three workloads: seeded inputs, items and output checks.

``make_inputs`` draws every input that depends on the seed and needs
nothing but numpy.  ``build`` turns the inputs into :class:`Item` objects.
An item's ``call`` is the timed work; its ``check`` runs after timing,
compares the output of the last pass against the independent references
in :mod:`oracles`, and returns the relative errors of every checked
eigenvalue (raising :class:`oracles.CheckFailed` on a mismatch).

Workloads, and why each is here:

* ``ladder``: few large 1-d tridiagonal solves under box doubling.  The
  eigenvalue kernel and the doubling loop do nearly all the work.
* ``certify``: many small solves with vectors, Ritz bounds, certificates
  and quadrature.  Per-call overhead and ``hermite`` show here.
* ``multiwell``: no tridiagonal solves.  IMS norms, potential scans, the
  limit-spectrum heap, text output and the dense 2-d path do the work, so
  an eigenvalue-kernel change must leave it flat.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
from oracles import CheckFailed, TOL_1D, TOL_2D

WORKLOADS = ("ladder", "certify", "multiwell")


@dataclass
class Item:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    # (exception type name, message) the seed commit raises on this input;
    # such items run once, outside the timed passes
    known_failure: tuple[str, str] | None = None


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------

def _random_tridiagonals(rng, count: int) -> list[tuple]:
    """Confining random tridiagonals, as in acceptance criterion 14.

    The sizes and eigenvalue counts are an even grid over that criterion's
    ranges (n 1200-2000 for five, 50-599 for the rest, k 1-6), not drawn: the
    solve costs about n * k, and a drawn total varies by +-20% between seeds.
    The seed draws the entries.
    """
    out = []
    for trial in range(count):
        n = (1200 + 200 * trial if trial < 5
             else 50 + (549 * (trial - 5)) // max(count - 6, 1))
        x = np.linspace(-1.0, 1.0, n)
        diag = rng.uniform(0.5, 4.0) * x * x + rng.uniform(0.0, 1.0, n)
        off = -rng.uniform(0.05, 1.5, n - 1)
        out.append((diag, off, 1 + trial % 6))
    return out


def _ims_instances(rng, count: int) -> list[dict]:
    """Random 1-d operators with bump partitions, as in acceptance criterion 3."""
    out = []
    for _ in range(count):
        M = int(rng.integers(201, 2001)) // 2
        coupling = float(rng.uniform(0.25, 2.5))
        diag = 2.0 * coupling + rng.uniform(0.0, 4.0, 2 * M + 1)
        m = int(rng.integers(1, 4))
        r = float(rng.uniform(6.0, min(48.0, M / (2.0 * m + 1.0))))
        centers, guard = [], 0
        while len(centers) < m and guard < 60:
            c = int(rng.integers(-M + int(r) + 1, M - int(r)))
            if all(abs(c - c2[0]) > 2 * r + 2 for c2 in centers):
                centers.append((c,))
            guard += 1
        out.append({"M": M, "coupling": coupling, "diag": diag,
                    "centers": centers, "r": r})
    return out


def make_inputs(workload: str, seed: int) -> dict:
    """Every seed-dependent input of a workload (pure numpy, no ``lsc``)."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "ladder":
        return {"omega": round(float(rng.uniform(0.8, 1.25)), 6)}
    if workload == "certify":
        return {"tridiagonals": _random_tridiagonals(rng, 20)}
    if workload == "multiwell":
        return {"ims": _ims_instances(rng, 100),
                "dump_kappa": round(float(rng.uniform(0.005, 0.02)), 6)}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# checks shared by several items
# ----------------------------------------------------------------------

def _expect_rc(rc, want: int) -> None:
    if rc != want:
        raise CheckFailed(f"exit code {rc}, reference verdict {want}")


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _column(rows, key) -> list[float]:
    return [float(r[key]) for r in rows]


# ----------------------------------------------------------------------
# items
# ----------------------------------------------------------------------

class _ItemList:
    def __init__(self, lsc, workdir: str):
        self.lsc = lsc
        self.workdir = workdir
        self.items: list[Item] = []

    def path(self, name: str, ext: str) -> str:
        return os.path.join(self.workdir, f"{name}.{ext}")

    def cli(self, name: str, argv: list[str], check, json_out: bool = False,
            known_failure=None) -> None:
        csv_path = self.path(name, "csv")
        argv = argv + ["--out", csv_path]
        json_path = self.path(name, "json")
        if json_out:
            argv += ["--json", json_path]
        main_module = self.lsc.cli

        def call():
            return main_module.main(argv)

        def run_check(rc):
            return check(rc, oracles.read_csv(csv_path) if rc in (0, 5) else None,
                         json_path)

        self.items.append(Item(name, call, run_check, known_failure))

    def lib(self, name: str, call, check, known_failure=None) -> None:
        self.items.append(Item(name, call, check, known_failure))


def _ladder(b: _ItemList, inputs: dict) -> None:
    kappas, nmax = [0.2, 0.1, 0.05, 0.025], 5

    def check_kappa(rc, rows, json_path):
        _expect_rc(rc, 0)
        if not _json(json_path)["pass"]:
            raise CheckFailed("JSON summary disagrees with the exit code")
        errs = []
        for kappa in kappas:
            M = 2 * oracles.quasimode_halfwidth(nmax, kappa)
            want = oracles.tridiag_lowest(*oracles.hkappa(kappa, -M, M), nmax + 1)
            got = [float(r["E_n"]) for r in rows if float(r["kappa"]) == kappa]
            errs += oracles.compare(f"kappa={kappa}", got, want, TOL_1D)
        return errs

    b.cli("kappa", ["kappa", "--kappa", ",".join(map(str, kappas)),
                    "--nmax", str(nmax)], check_kappa, json_out=True)

    Ns = [128, 256, 512, 1024]

    def check_converge(rc, rows, _):
        _expect_rc(rc, 0)
        errs = []
        for N in Ns:
            want = oracles.tridiag_lowest(
                *oracles.hn_1d(oracles.double_well, N, 0.0, 4 * N), 2)
            got = [float(r["E_n"]) for r in rows if int(r["N"]) == N]
            errs += oracles.compare(f"N={N}", got, want, TOL_1D)
        return errs

    b.cli("converge", ["converge", "--potential", "double_well", "--gamma", "0",
                       "--N", ",".join(map(str, Ns)), "--nmax", "1"], check_converge)

    def regimes(name: str, omega: float, gammas: list, ladder: list) -> None:
        argv = ["regimes", f"--gamma={','.join(map(str, gammas))}",
                "--N", ",".join(map(str, ladder)), "--nmax", "2"]
        if omega != 1.0:
            argv += ["--omega", repr(omega)]

        def check(rc, rows, _):
            ref = oracles.regime_reference(omega, gammas, ladder, 2)
            # the verdict is `worst slope error <= 0.1`; only a reference
            # sitting on the threshold leaves it open
            if abs(ref["worst"] - oracles.SLOPE_LIMIT) > 1e-6:
                _expect_rc(rc, 0 if ref["worst"] <= oracles.SLOPE_LIMIT else 5)
            errs = []
            for r in rows:
                slope, const = ref["rows"][(float(r["gamma"]), int(r["n"]))]
                if abs(float(r["slope_fit"]) - slope) > 1e-8:
                    raise CheckFailed(f"slope {r['slope_fit']} vs reference {slope}")
                errs += oracles.compare(f"gamma={r['gamma']} n={r['n']}",
                                        [float(r["limit_const_fit"])], [const], TOL_1D)
            if len(rows) != len(ref["rows"]):
                raise CheckFailed("regime table has missing rows")
            return errs

        b.cli(name, argv, check)

    regimes("regimes_kink", 1.0, [-1.0], [2, 4, 8])
    regimes("regimes_sweep", inputs["omega"], [-2.0, -1.5, -1.0, -0.5, 0.0],
            [8, 16, 32, 64, 128, 256, 512, 1024])

    def check_dw2d(rc, rows, _):
        _expect_rc(rc, 0)
        axis = oracles.tridiag_lowest(
            *oracles.hn_1d(oracles.double_well, 32, 0.0, 128), 6)
        want = oracles.lowest_pair_sums((axis, axis), 6)
        return oracles.compare("double_well_2d", _column(rows, "E_n"), want, TOL_2D)

    b.cli("spectrum_dw2d", ["spectrum", "--potential", "double_well_2d",
                            "--N", "32", "--k", "6"], check_dw2d)


def _certify(b: _ItemList, inputs: dict) -> None:
    lsc = b.lsc
    qm_kappas, qm_nmax = [0.2, 0.1, 0.05], 5

    def check_quasimode(rc, rows, _):
        _expect_rc(rc, 0)
        errs = []
        for kappa in qm_kappas:
            M = oracles.quasimode_halfwidth(qm_nmax, kappa)
            diag, off = oracles.hkappa(kappa, -M, M)
            lowest = oracles.tridiag_lowest(diag, off, qm_nmax + 1)
            want, resid = oracles.ritz_values(
                diag, off, oracles.hermite_functions(qm_nmax, kappa * np.arange(-M, M + 1)))
            ritz = np.array([float(r["ritz_over_kappa2"]) * kappa**2
                             for r in rows if float(r["kappa"]) == kappa])
            if ritz.size != qm_nmax + 1:
                raise CheckFailed(f"{ritz.size} Ritz values at kappa={kappa}")
            # Ritz values bound the box eigenvalues from above (min-max), and
            # each lies within the residual of one; the levels are 2 kappa^2
            # apart, far more than the residual, so that one is E_n
            slack = 1e-12 * (1.0 + np.abs(lowest))
            if not np.all(ritz >= lowest - slack):
                raise CheckFailed(f"Ritz values below the spectrum at kappa={kappa}")
            if not np.all(ritz <= lowest + resid + slack):
                raise CheckFailed(f"Ritz values above E_n + {resid:.1e} at kappa={kappa}")
            errs += oracles.compare(f"Ritz kappa={kappa}", ritz, want, TOL_1D)
        return errs

    b.cli("quasimode", ["quasimode", "--kappa", ",".join(map(str, qm_kappas)),
                        "--nmax", str(qm_nmax)], check_quasimode)

    kappa, delta = 0.05, 0.25
    # nmax=3 is acceptance criterion 10's parametric case: the seed commit
    # answers it with exit 5, which is the reference verdict, not a failure
    for nmax, verdict in ((1, 0), (2, 0), (3, 5)):
        def check_intervals(rc, rows, _, verdict=verdict):
            _expect_rc(rc, verdict)
            spike = oracles.spike_of(kappa, delta)
            errs = []
            for r in rows:
                lo, hi = int(r["lo"]), int(r["hi"])
                op = oracles.hkappa(kappa, lo, hi, spike if r["modified"] == "1" else None)
                errs += oracles.compare(f"piece [{lo}, {hi}]", [float(r["E0"])],
                                        oracles.tridiag_lowest(*op, 1), TOL_1D)
            return errs

        b.cli(f"intervals_n{nmax}", ["intervals", "--nmax", str(nmax), "--kappa",
                                     str(kappa), "--delta-spike", str(delta),
                                     "--epsilon", "0.1"], check_intervals)

    def check_spectrum_kappa(rc, rows, _):
        _expect_rc(rc, 0)
        M = oracles.quasimode_halfwidth(7, 0.1)
        want = oracles.tridiag_lowest(*oracles.hkappa(0.1, -M, M), 8)
        return oracles.compare("H_kappa", _column(rows, "E_n"), want, TOL_1D)

    b.cli("spectrum_kappa", ["spectrum", "--kappa", "0.1", "--k", "8"],
          check_spectrum_kappa)

    def check_free(rc, rows, _):
        _expect_rc(rc, 0)
        want = [2.0 - 2.0 * math.cos(j * math.pi / 4.0) for j in (1, 2, 3)]
        return oracles.compare("free", _column(rows, "E_n"), want, TOL_1D)

    b.cli("spectrum_free", ["spectrum", "--potential", "free", "--M", "1", "--k", "3"],
          check_free)

    tridiagonals = inputs["tridiagonals"]

    def solve_tridiagonals():
        return [lsc.eigensolve.eigs_tridiag((d, o), k).values for d, o, k in tridiagonals]

    def check_tridiagonals(values):
        errs = []
        for (d, o, k), got in zip(tridiagonals, values):
            errs += oracles.compare(f"n={d.size}", got, oracles.tridiag_lowest(d, o, k),
                                    TOL_1D)
        return errs

    b.lib("random_tridiagonals", solve_tridiagonals, check_tridiagonals)

    for kap in (0.2, 0.1):
        M = oracles.quasimode_halfwidth(6, kap)

        def pairs(kap=kap, M=M):
            op = lsc.lattice.assemble_Hkappa(kap, lsc.lattice.LatticeBox.centered(1, M))
            return lsc.eigensolve.eigenpairs(op, 7)

        def check_pairs(res, kap=kap, M=M):
            diag, off = oracles.hkappa(kap, -M, M)
            errs = oracles.compare("eigenpairs", res.values,
                                   oracles.tridiag_lowest(diag, off, 7), TOL_1D)
            V = res.vectors
            HV = diag[:, None] * V
            HV[:-1] += off[:, None] * V[1:]
            HV[1:] += off[:, None] * V[:-1]
            resid = np.linalg.norm(HV - V * res.values, axis=0)
            if np.any(resid > 1e-8 * (1.0 + np.abs(res.values))):
                raise CheckFailed(f"eigenvector residuals {resid.max():.1e} above 1e-8")
            if np.abs(V.T @ V - np.eye(7)).max() > 1e-8:
                raise CheckFailed("eigenvectors are not orthonormal")
            return errs

        b.lib(f"eigenpairs_k{kap}", pairs, check_pairs)

    mvp_kappas = [0.1, 0.05]

    def modified():
        return lsc.semiclassics.modified_vs_plain(3, mvp_kappas, 0.25)

    def check_modified(cmp_):
        errs = []
        for kap in mvp_kappas:
            spike = oracles.spike_of(kap, 0.25)
            M = max(oracles.quasimode_halfwidth(3, kap), spike[0] + 2)
            plain = oracles.tridiag_lowest(*oracles.hkappa(kap, -M, M), 4)
            spiked = oracles.tridiag_lowest(*oracles.hkappa(kap, -M, M, spike), 4)
            rows = [r for r in cmp_.rows if r.kappa == kap]
            errs += oracles.compare("plain", [r.energy_plain for r in rows], plain, TOL_1D)
            errs += oracles.compare("spiked", [r.energy_modified for r in rows], spiked,
                                    TOL_1D)
        return errs

    b.lib("modified_vs_plain", modified, check_modified)


MEMORY_CAP = ("MemoryError", "commutator support too large for dense extraction")
DENSE_CAP = ("MemoryError", "non-separable dense fallback capped at 4096 points")


def _multiwell(b: _ItemList, inputs: dict) -> None:
    lsc = b.lsc

    def ims(name: str, potential: str, N: int, gamma: str, verdict: int | None,
            known_failure=None) -> None:
        def check(rc, rows, json_path):
            if verdict is None:  # no reference: the seed commit never finished
                if rc not in (0, 5):
                    raise CheckFailed(f"exit code {rc}")
            else:
                _expect_rc(rc, verdict)
            resid = _json(json_path)["measured_constants"]["identity_residual"]
            if not resid <= oracles.IMS_RESIDUAL_MAX:
                raise CheckFailed(f"IMS identity residual {resid:.1e} above 1e-12")
            return []

        b.cli(name, ["ims", "--potential", potential, "--N", str(N), "--gamma", gamma,
                     "--delta-cut", "0.2"], check, json_out=True,
              known_failure=known_failure)

    for N in (256, 1024, 4096):
        ims(f"ims_dw_N{N}", "double_well", N, "0", 0)
    # the 2-d potential floor misses its target at N = 16 and 32 at the seed
    # commit (exit 5); that verdict is the reference, not a failure
    for N in (16, 32):
        ims(f"ims_dw2d_N{N}", "double_well_2d", N, "0", 5)
    ims("ims_dw2d_N64", "double_well_2d", 64, "0", None, known_failure=MEMORY_CAP)
    ims("ims_two_well_N4096", "two_well", 4096, "0.5", None, known_failure=MEMORY_CAP)

    for potential, step in (("double_well", "0.02"), ("double_well_2d", "0.004")):
        def check_validate(rc, rows, _):
            _expect_rc(rc, 0)
            if not all(r["passed"] == "1" for r in rows):
                raise CheckFailed("validation rows disagree with the exit code")
            return []

        b.cli(f"validate_{potential}", ["validate", "--potential", potential,
                                        "--grid-step", step], check_validate)

    for name, argv, wells, count, cap in (
        ("sigma_harmonic", ["--potential", "harmonic", "--omega", "1"], [(1.0,)], 4, 60),
        ("sigma_dw2d", ["--potential", "double_well_2d"], [(2.0, 2.0)] * 4, 50000, 160),
    ):
        def check_sigma(rc, rows, _, wells=wells, count=count, cap=cap):
            _expect_rc(rc, 0)
            want = oracles.sigma_bruteforce(wells, count, cap)
            if len(rows) != count:
                raise CheckFailed(f"{len(rows)} values, requested {count}")
            for r, (value, well, multi) in zip(rows, want):
                got = (float(r["e_n"]), int(r["well"]),
                       tuple(int(m) for m in r["multi_index"].split("+")))
                if got != (value, well, multi):
                    raise CheckFailed(f"sigma row {r['n']}: {got} != {(value, well, multi)}")
            return []

        b.cli(name, ["sigma", *argv, "--count", str(count)], check_sigma)

    for N in (2, 4, 8):
        def levels(N=N):
            V = lsc.potentials.two_well(d=2)
            params = lsc.potentials.ScalingParams(N=N, gamma=0.0, omega=1.0)
            return lsc.semiclassics.levels_HN(V, params, 4)

        def check_levels(values, N=N):
            # the library's box: positivity radius, far well and 8 widths
            width = (math.sqrt(7.0) + 8.0) * math.sqrt(N)
            M = int(math.ceil(max(2.0 * N, N + width)))
            want = oracles.hn_2d_dense_lowest(oracles.two_well_2d, N, 0.0, M, 4)
            return oracles.compare(f"two_well_2d N={N}", values, want, TOL_2D)

        b.lib(f"levels_two_well_2d_N{N}", levels, check_levels,
              known_failure=DENSE_CAP if N == 8 else None)

    instances = inputs["ims"]

    def ims_identity():
        out = []
        for inst in instances:
            box = lsc.lattice.LatticeBox.centered(1, inst["M"])
            op = lsc.lattice.SymmetricLatticeOperator(
                box=box, diagonal=inst["diag"], coupling=inst["coupling"])
            etas = lsc.lattice.ims_partition(inst["centers"], inst["r"], box)
            out.append((etas, lsc.lattice.ims_identity_residual(op, etas),
                        lsc.lattice.double_commutator_norms(op, etas),
                        lsc.lattice.partition_variation(box, etas)))
        return out

    def check_ims_identity(results):
        errs = []
        for inst, (etas, resid, norms, variations) in zip(instances, results):
            c = inst["coupling"]
            if not resid <= oracles.IMS_RESIDUAL_MAX:
                raise CheckFailed(f"IMS identity residual {resid:.1e} above 1e-12")
            if np.abs(sum(eta * eta for eta in etas) - 1.0).max() > 1e-12:
                raise CheckFailed("squared bumps do not sum to one")
            for eta, nrm, var in zip(etas, norms, variations):
                # [eta, [eta, L]] on a chain: zero diagonal, -c (eta_i - eta_j)^2 off it
                w = -c * np.diff(eta) ** 2
                want = float(np.abs(oracles.tridiag_all(np.zeros(eta.size), w)).max())
                errs += oracles.compare("double commutator", [nrm], [want], TOL_1D)
                if nrm - 2.0 * 4.0 * c * var * var > 1e-12:
                    raise CheckFailed("double commutator norm above 2|L| C^2")
        return errs

    b.lib("ims_identity_x100", ims_identity, check_ims_identity)

    dump_kappa = inputs["dump_kappa"]
    dump_path = b.path("dump_matrix", "txt")
    dump_M = 50_000  # 100 001 rows

    def dump():
        op = lsc.lattice.assemble_Hkappa(dump_kappa,
                                         lsc.lattice.LatticeBox.centered(1, dump_M))
        lsc.cli.dump_matrix(dump_path, op)
        return dump_path

    def check_dump(path):
        rows, cols, vals = oracles.parse_triplets(path)
        n = 2 * dump_M + 1
        diag, off = oracles.hkappa(dump_kappa, -dump_M, dump_M)
        if rows.size != n + 2 * (n - 1) or np.any(rows[:n] != cols[:n]):
            raise CheckFailed("dump does not hold n diagonal and 2(n-1) coupling lines")
        if np.any(rows[:n] != np.arange(n)) or np.abs(vals[:n] - diag).max() > 4e-16 * diag.max():
            raise CheckFailed("dumped diagonal differs from the operator")
        i, j = rows[n:], cols[n:]
        if np.any(np.abs(i - j) != 1) or np.any(vals[n:] != -1.0):
            raise CheckFailed("dumped couplings differ from the operator")
        pairs = np.unique(np.minimum(i, j))
        if pairs.size != n - 1 or np.any(pairs != np.arange(n - 1)):
            raise CheckFailed("dumped couplings do not cover every neighbor pair")
        return []

    b.lib("dump_matrix", dump, check_dump)


def build(workload: str, inputs: dict, lsc, workdir: str) -> list[Item]:
    b = _ItemList(lsc, workdir)
    {"ladder": _ladder, "certify": _certify, "multiwell": _multiwell}[workload](b, inputs)
    return b.items
