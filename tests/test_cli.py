"""Tests for the command-line front end: CSV contracts, exit codes, config files."""

import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from lsc import cli
from lsc.lattice import LatticeBox, SymmetricLatticeOperator, assemble_HN
from lsc.potentials import (
    Potential,
    ScalingParams,
    double_well,
    harmonic,
    register_potential,
)


def run(args, tmp_path, **paths):
    argv = list(args)
    for flag, name in paths.items():
        argv += [f"--{flag.replace('_', '-')}", str(tmp_path / name)]
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return cli.main(argv)
    finally:
        os.chdir(cwd)


def read_rows(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestSigmaCommand:
    def test_harmonic_ladder_rows(self, tmp_path):
        code = run(
            ["sigma", "--potential", "harmonic", "--omega", "1", "--count", "4"],
            tmp_path, out="sigma.csv",
        )
        assert code == 0
        header, rows = read_rows(tmp_path / "sigma.csv")
        assert header == ["n", "e_n", "well", "multi_index"]
        got = [(int(r[0]), float(r[1])) for r in rows]
        assert got == [(0, 0.5), (1, 1.5), (2, 2.5), (3, 3.5)]

    def test_double_well_2d_benchmark_size_bytes(self, tmp_path):
        # SHA-256 of the CSV written by the heap enumeration and per-cell formatting
        code = run(
            ["sigma", "--potential", "double_well_2d", "--count", "50000"],
            tmp_path, out="sigma.csv",
        )
        assert code == 0
        digest = hashlib.sha256((tmp_path / "sigma.csv").read_bytes()).hexdigest()
        assert digest == "bcff0cc2fffdd6c93fa51b45ae159fa330568b33ccabadc8c9812132cbe333f5"


def fmt_reference(value):
    """Cell formatting of the one-cell-at-a-time writer."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [
        [(True, np.bool_(False), 3, np.int64(-7), 0.1, np.float64(1.0 / 3.0),
          math.nan, -math.inf, "a,b")],
        # uniform columns take the per-column path
        [(n, n / 7.0, n % 2, f"{n}+{n}") for n in range(50)],
        # mixed types inside every column
        [(1, 2.5, "x", True), (np.int64(2), np.float64(1e-300), 'q"uote', False),
         (3.0, 7, np.bool_(True), math.inf), (False, "a,b", 0.0, np.int32(5))],
        [],
    ], ids=["mixed-row", "uniform", "mixed-columns", "empty"])
    def test_bytes_match_a_per_cell_writer(self, tmp_path, rows):
        header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
        cli.write_csv(str(tmp_path / "new.csv"), header, rows)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([fmt_reference(v) for v in row])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestSpectrumCommand:
    def test_three_point_free_laplacian(self, tmp_path):
        code = run(
            ["spectrum", "--potential", "free", "--M", "1", "--k", "3"],
            tmp_path, out="spec.csv",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "spec.csv")
        values = [float(r[1]) for r in rows]
        want = [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)]
        np.testing.assert_allclose(values, want, rtol=1e-12)

    def test_seventeen_digit_serialization(self, tmp_path):
        run(["spectrum", "--potential", "free", "--M", "1", "--k", "1"],
            tmp_path, out="spec.csv")
        _, rows = read_rows(tmp_path / "spec.csv")
        # round-trips to the same double
        assert float(rows[0][1]) == float(format(float(rows[0][1]), ".17g"))
        assert len(rows[0][1].replace("-", "").replace(".", "")) >= 15

    def test_matrix_dump(self, tmp_path):
        code = run(
            ["spectrum", "--potential", "free", "--M", "1", "--k", "1"],
            tmp_path, out="spec.csv", dump_matrix="mat.txt",
        )
        assert code == 0
        lines = (tmp_path / "mat.txt").read_text().strip().splitlines()
        triplets = {tuple(l.split()[:2]): float(l.split()[2]) for l in lines}
        assert triplets[("0", "0")] == 2.0
        assert triplets[("0", "1")] == -1.0
        assert triplets[("1", "0")] == -1.0
        assert len(lines) == 3 + 4

    def test_degenerate_pair_split_by_k(self, tmp_path):
        # k = 2 splits the exactly degenerate pair (1, 0)/(0, 1); the index is
        # certified at the next resolvable gap instead
        code = run(
            ["spectrum", "--potential", "harmonic", "--omega", "1,1", "--N", "8",
             "--M", "10", "--k", "2"],
            tmp_path, out="spec.csv",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "spec.csv")
        op = assemble_HN(harmonic([1.0]), ScalingParams(N=8, gamma=0.0, omega=1.0),
                         LatticeBox.centered(1, 10))
        axis = np.linalg.eigvalsh(op.dense())
        want = np.sort(np.add.outer(axis, axis).ravel())[:2]
        np.testing.assert_allclose([float(r[1]) for r in rows], want, rtol=1e-11)

    def test_box_override_in_2d_matches_the_tensorized_route(self, tmp_path):
        code = run(
            ["spectrum", "--potential", "double_well_2d", "--N", "8", "--M", "10",
             "--k", "3"],
            tmp_path, out="spec.csv",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "spec.csv")
        # the 2-d operator is exactly the Kronecker sum of two 1-d ones
        op = assemble_HN(double_well(), ScalingParams(N=8, gamma=0.0, omega=1.0),
                         LatticeBox.centered(1, 10))
        axis = np.linalg.eigvalsh(op.dense())
        want = np.sort(np.add.outer(axis, axis).ravel())[:3]
        np.testing.assert_allclose([float(r[1]) for r in rows], want, rtol=1e-11)

    def test_matrix_dump_golden_2d(self, tmp_path):
        box = LatticeBox(lo=(0, 0), hi=(1, 1))
        op = SymmetricLatticeOperator(
            box=box, diagonal=[0.1, 2.5, 1.0 / 3.0, 1e-20], coupling=0.5
        )
        cli.dump_matrix(str(tmp_path / "mat.txt"), op)
        assert (tmp_path / "mat.txt").read_text() == (
            "0 0 0.10000000000000001\n"
            "1 1 2.5\n"
            "2 2 0.33333333333333331\n"
            "3 3 9.9999999999999995e-21\n"
            "0 2 -0.5\n2 0 -0.5\n"
            "1 3 -0.5\n3 1 -0.5\n"
            "0 1 -0.5\n1 0 -0.5\n"
            "2 3 -0.5\n3 2 -0.5\n"
        )


class TestRegimesCommand:
    def test_minus_one_exactness(self, tmp_path):
        code = run(
            ["regimes", "--gamma", "-1", "--N", "2,4,8", "--nmax", "2"],
            tmp_path, out="regimes.csv", json="summary.json",
        )
        assert code == 0
        header, rows = read_rows(tmp_path / "regimes.csv")
        assert header == ["gamma", "n", "slope_fit", "slope_pred",
                          "limit_const_fit", "limit_const_pred"]
        for r in rows:
            assert float(r[3]) == 2.0
            assert float(r[2]) == pytest.approx(2.0, abs=1e-9)
            assert float(r[4]) == pytest.approx(float(r[5]), rel=1e-12)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["measured_constants"]["minus_one_exact_dev"] <= 1e-12
        assert summary["rows_csv_path"].endswith("regimes.csv")


class TestConvergeCommand:
    def test_harmonic_short_ladder(self, tmp_path):
        code = run(
            ["converge", "--potential", "harmonic", "--omega", "1",
             "--gamma", "0", "--N", "32,64,128", "--nmax", "0"],
            tmp_path, out="converge.csv", json="c.json",
        )
        assert code == 0
        header, rows = read_rows(tmp_path / "converge.csv")
        assert header == ["gamma", "N", "n", "E_n", "lambda_N", "ratio",
                          "target", "abs_err"]
        for r in rows:
            assert float(r[5]) * 1.0 == pytest.approx(float(r[3]) / float(r[4]), rel=1e-15)
            assert float(r[6]) == 0.5


class TestKappaCommand:
    def test_deviations_decreasing(self, tmp_path):
        code = run(
            ["kappa", "--kappa", "0.2,0.1", "--nmax", "1"],
            tmp_path, out="kappa.csv", json="k.json",
        )
        assert code == 0
        header, rows = read_rows(tmp_path / "kappa.csv")
        assert header == ["kappa", "n", "E_n", "ratio", "target", "abs_err"]
        summary = json.loads((tmp_path / "k.json").read_text())
        assert summary["pass"] is True


class TestConfigFile:
    def test_file_plus_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "potential = harmonic\n"
            "omega = 1\n"
            "count = 3\n"
        )
        code = run(
            ["sigma", "--config", str(cfg), "--count", "2"],
            tmp_path, out="sigma.csv",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "sigma.csv")
        assert len(rows) == 2  # the flag overrides the file

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("this line has no equals sign\n")
        assert run(["sigma", "--config", str(cfg)], tmp_path) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("line", ["nmx = 3", "threads = 2", "tol_eig = 1e-3",
                                      "tol-box = 1e-6"])
    def test_unknown_key_rejected(self, tmp_path, line):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"kappa = 0.2\n{line}\n")
        code = run(["kappa", "--config", str(cfg)], tmp_path, out="k.csv")
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "k.csv").exists()


class TestExitCodes:
    def test_unknown_potential_is_config_error(self, tmp_path):
        assert run(["sigma", "--potential", "nope"], tmp_path) == cli.EXIT_CONFIG

    def test_validation_failure_code(self, tmp_path):
        def dipped():
            return Potential(
                dimension=1,
                evaluator=lambda pts: pts[:, 0] ** 2 - 0.1,
                wells=(),
                positivity_radius=2.0,
                positivity_floor=1.0,
                name="dipped",
            )

        register_potential("dipped", dipped)
        code = run(["validate", "--potential", "dipped", "--scan-radius", "4"],
                   tmp_path, out="v.csv")
        assert code == cli.EXIT_VALIDATION

    def test_validate_pass(self, tmp_path):
        code = run(
            ["validate", "--potential", "double_well", "--grid-step", "0.02"],
            tmp_path, out="v.csv", json="v.json",
        )
        assert code == 0
        summary = json.loads((tmp_path / "v.json").read_text())
        assert summary["pass"] is True
        assert summary["measured_constants"]["zero_count"] == 2

    @pytest.mark.parametrize("command", ["quasimode", "spectrum"])
    def test_zero_kappa_is_config_error(self, tmp_path, capsys, command):
        code = run([command, "--kappa", "0"], tmp_path, out="k.csv")
        assert code == cli.EXIT_CONFIG
        assert "invalid configuration: kappa must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["0", "-1"])
    def test_nonpositive_regimes_omega_is_config_error(self, tmp_path, capsys, omega):
        # rejected before any solve, so no box doubling runs and no CSV is written
        code = run(["regimes", f"--omega={omega}"], tmp_path, out="r.csv")
        assert code == cli.EXIT_CONFIG
        assert "needs omega > 0" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_out_of_memory_is_solver_error(self, tmp_path, monkeypatch, capsys):
        def too_big(cfg):
            raise MemoryError("dense assembly refused for size 9000")

        monkeypatch.setitem(cli._COMMANDS, "spectrum", too_big)
        code = run(["spectrum"], tmp_path)
        assert code == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert err == "solver failure: out of memory: dense assembly refused for size 9000\n"

    def test_degenerate_decomposition_is_solver_error(self, tmp_path):
        code = run(["intervals", "--nmax", "2", "--kappa", "0.9"], tmp_path)
        assert code == cli.EXIT_SOLVER

    def test_interval_certificate_failure_is_assertion_exit(self, tmp_path):
        # at this mesh the capped certificate on the unbounded piece fails
        # just past the spike (measured; the potential there is still below
        # (1 - eps) kappa^2 (2n + 1)), and the CLI reports it as exit 5
        code = run(
            ["intervals", "--nmax", "3", "--kappa", "0.05", "--delta-spike", "0.25"],
            tmp_path, out="i.csv", json="i.json",
        )
        assert code == cli.EXIT_ASSERTION
        summary = json.loads((tmp_path / "i.json").read_text())
        assert summary["pass"] is False

    def test_interval_summary_reports_admissible_kappa(self, tmp_path):
        run(
            ["intervals", "--nmax", "3", "--kappa", "0.05", "--delta-spike", "0.25"],
            tmp_path, out="i.csv", json="i.json",
        )
        constants = json.loads((tmp_path / "i.json").read_text())["measured_constants"]
        # (0.9 (2n + 1))^(-1/(2 delta)) = 6.3^-2
        assert constants["kappa_admissible_max"] == pytest.approx(6.3**-2, rel=1e-14)
        assert round(constants["kappa_admissible_max"], 4) == 0.0252

    def test_interval_pass(self, tmp_path):
        code = run(
            ["intervals", "--nmax", "1", "--kappa", "0.05"],
            tmp_path, out="i.csv", json="i.json",
        )
        assert code == 0


class TestRunConfigInvariants:
    def test_N_list_must_increase(self, tmp_path):
        code = run(["regimes", "--gamma", "-1", "--N", "8,4,2"], tmp_path)
        assert code == cli.EXIT_CONFIG

    def test_N_list_must_be_positive(self, tmp_path):
        code = run(["regimes", "--gamma", "-1", "--N", "0,2,4"], tmp_path)
        assert code == cli.EXIT_CONFIG

    def test_gamma_grid_must_be_finite(self, tmp_path):
        code = run(["regimes", "--gamma", "inf", "--N", "2,4,8"], tmp_path)
        assert code == cli.EXIT_CONFIG

    def test_delta_spike_range(self, tmp_path):
        code = run(["intervals", "--nmax", "1", "--kappa", "0.05",
                    "--delta-spike", "0.7"], tmp_path)
        assert code == cli.EXIT_CONFIG

    def test_two_well_via_wells_key(self, tmp_path):
        code = run(
            ["sigma", "--potential", "two_well", "--omega", "1",
             "--wells=-1.5,1.5", "--count", "4"],
            tmp_path, out="s.csv",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "s.csv")
        values = [float(r[1]) for r in rows]
        assert values == [0.5, 0.5, 1.5, 1.5]


class TestQuasimodeCommand:
    def test_diagnostics_pass(self, tmp_path):
        code = run(
            ["quasimode", "--kappa", "0.2", "--nmax", "2"],
            tmp_path, out="q.csv", json="q.json",
        )
        assert code == 0
        summary = json.loads((tmp_path / "q.json").read_text())
        assert summary["pass"] is True
        assert summary["measured_constants"]["stencil_vs_integral"] <= 1e-9


class TestImsCommand:
    def test_double_well_run(self, tmp_path):
        code = run(
            ["ims", "--potential", "double_well", "--N", "128", "--gamma", "0",
             "--delta-cut", "0.2"],
            tmp_path, out="ims.csv", json="ims.json",
        )
        assert code == 0
        summary = json.loads((tmp_path / "ims.json").read_text())
        assert summary["pass"] is True
        assert summary["measured_constants"]["identity_residual"] <= 1e-12
