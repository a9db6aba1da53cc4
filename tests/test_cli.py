"""Tests for the command-line front end: CSV contracts, exit codes, config files."""

import ast
import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsc import cli, eigensolve, hermite, lattice, semiclassics
from lsc.lattice import LatticeBox, SymmetricLatticeOperator, assemble_HN, assemble_Hkappa
from lsc.potentials import (
    Potential,
    ScalingParams,
    Well,
    double_well,
    double_well_nd,
    harmonic,
    register_potential,
    two_well,
)
from spectral_checks import traced_peak


# each spectrum route that ignores flags the command reads elsewhere: its argv and
# those flags
SPECTRUM_ROUTES = {
    "--potential free": ("spectrum --potential free --M 1 --k 3",
                         ("--omega=5", "--wells=-1,1", "--gamma=0", "--N=64", "--kappa=0.1")),
    "--kappa": ("spectrum --kappa 0.1 --k 2",
                ("--potential=double_well", "--omega=5", "--wells=-1,1", "--gamma=0",
                 "--N=64")),
}


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

    def test_row_count_reads_as_len_of_the_rows_argument(self, tmp_path, monkeypatch):
        # the benchmark's trace wraps write_csv and books len() of its third
        # argument as cli.write_csv.rows, whatever container the rows come in
        counted = []
        write_csv = cli.write_csv

        def traced(*args, **kwargs):
            counted.append(len(args[2] if len(args) > 2 else kwargs["rows"]))
            return write_csv(*args, **kwargs)

        monkeypatch.setattr(cli, "write_csv", traced)
        code = run(["sigma", "--potential", "double_well_2d", "--count", "50000"],
                   tmp_path, out="sigma.csv")
        assert code == 0
        assert counted == [50000]


def fmt_reference(value):
    """Cell formatting of the one-cell-at-a-time writer."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def csv_reference_bytes(path, header, rows):
    """Bytes of ``csv.writer`` over the header and the ``fmt_reference`` cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_reference(v) for v in row])
    return path.read_bytes()


CSV_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(list(',"\r\n\x00 aé€')),
                       st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)
CSV_NUMBER = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]),
    st.integers(-10**6, 10**6), st.sampled_from([2**70, -(2**70)]),
)
CSV_CELL = st.one_of(CSV_TEXT, CSV_NUMBER, st.booleans())


@st.composite
def csv_tables(draw):
    """A header and equal-width rows; each column draws from one cell strategy,
    so columns of one number type, of text and of mixed cells all occur."""
    width = draw(st.integers(1, 4))
    kinds = [draw(st.sampled_from([st.floats(), st.integers(-10**6, 10**6), CSV_TEXT,
                                   st.booleans(), CSV_CELL]))
             for _ in range(width)]
    rows = draw(st.lists(st.tuples(*kinds), max_size=12))
    header = draw(st.lists(CSV_TEXT, min_size=width, max_size=width))
    return header, rows


def structured_rows(table):
    """The rows a structured array stands for: its ``tolist()`` rows, with bytes
    decoded as ASCII and their NUL padding dropped."""
    return [tuple(v.replace(b"\0", b"").decode("ascii") if isinstance(v, bytes) else v
                  for v in row) for row in table.tolist()]


STRUCTURED_FIELDS = {
    np.dtype(np.int64): st.integers(-(2**63), 2**63 - 1),
    np.dtype(np.uint8): st.integers(0, 255),
    np.dtype(bool): st.booleans(),
    np.dtype(np.float64): CSV_NUMBER.filter(lambda v: isinstance(v, float)),
    np.dtype(np.float32): st.floats(width=32),
    np.dtype("S4"): st.binary(max_size=4).filter(
        lambda b: all(c < 128 for c in b)).map(lambda b: b.rstrip(b"\0")),
}


@st.composite
def structured_tables(draw):
    """A structured array of 1 to 4 fields of the kinds the array path takes."""
    dtypes = draw(st.lists(st.sampled_from(list(STRUCTURED_FIELDS)), min_size=1,
                           max_size=4))
    rows = draw(st.lists(st.tuples(*(STRUCTURED_FIELDS[t] for t in dtypes)),
                         max_size=12))
    return np.array(rows, dtype=[(f"f{i}", t) for i, t in enumerate(dtypes)])


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [
        [(True, np.bool_(False), 3, np.int64(-7), 0.1, np.float64(1.0 / 3.0),
          math.nan, -math.inf, "a,b")],
        # columns of one type each
        [(n, n / 7.0, n % 2, f"{n}+{n}") for n in range(50)],
        # mixed types inside every column
        [(1, 2.5, "x", True), (np.int64(2), np.float64(1e-300), 'q"uote', False),
         (3.0, 7, np.bool_(True), math.inf), (False, "a,b", 0.0, np.int32(5))],
        [],
        # a line whose only field is empty is quoted; two empty fields are not
        [("",), ("a",), ("",)],
        [("", ""), ("x", "")],
        [(1,), (2.5,), ("",)],
        [("\r", "\n"), ("\x00", "é")],
        [(True,), (np.bool_(False),), (2**70,), (-0.0,), (math.nan,), (-math.inf,)],
    ], ids=["mixed-row", "uniform", "mixed-columns", "empty", "lone-empty", "two-empty",
            "lone-mixed", "specials", "lone-numbers"])
    def test_bytes_match_a_per_cell_writer(self, tmp_path, rows):
        header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
        cli.write_csv(str(tmp_path / "new.csv"), header, rows)
        assert (tmp_path / "new.csv").read_bytes() == csv_reference_bytes(
            tmp_path / "ref.csv", header, rows)

    @settings(max_examples=300, deadline=None)
    @given(csv_tables())
    def test_random_tables_match_csv_writer(self, tmp_path_factory, table):
        header, rows = table
        tmp = tmp_path_factory.mktemp("csv")
        cli.write_csv(str(tmp / "new.csv"), header, rows)
        assert (tmp / "new.csv").read_bytes() == csv_reference_bytes(
            tmp / "ref.csv", header, rows)

    @pytest.mark.parametrize("table", [
        # the sigma table's layout, with NUL-padded "+"-joined digits
        np.array([(0, 0.5, 3, b"\x007+\x0012"), (1, 1.0 / 3.0, 0, b"10+\x00\x000"),
                  (2, -0.0, 1, b"1+2")],
                 dtype=[("n", np.int64), ("e", np.float64), ("w", np.int64),
                        ("m", "S6")]),
        np.array([(True, -7, 2**64 - 1, np.float32(0.1), math.nan, b""),
                  (False, -(2**63), 0, np.float32(-3e38), -math.inf, b"x y"),
                  (True, 2**63 - 1, 42, np.float32(5e-45), 5e-324, b"")],
                 dtype=[("b", bool), ("i", np.int64), ("u", np.uint64),
                        ("f", np.float32), ("g", np.float64), ("s", "S3")]),
        # a bytes field that needs quoting, a lone field, text fields, no rows
        np.array([(1, b'a,b'), (2, b'q"')], dtype=[("i", np.int8), ("s", "S3")]),
        np.array([(b"",), (b"a",)], dtype=[("s", "S1")]),
        np.array([(1, "é"), (-2, "x")], dtype=[("i", np.int16), ("s", "U2")]),
        np.zeros(0, dtype=[("i", np.int64), ("f", np.float64)]),
    ], ids=["sigma-layout", "numbers", "quoted-bytes", "lone", "unicode", "no-rows"])
    def test_structured_arrays_match_csv_writer(self, tmp_path, table):
        header = [f"c{i}" for i in range(len(table.dtype.names))]
        cli.write_csv(str(tmp_path / "new.csv"), header, table)
        assert (tmp_path / "new.csv").read_bytes() == csv_reference_bytes(
            tmp_path / "ref.csv", header, structured_rows(table))

    @settings(max_examples=150, deadline=None)
    @given(structured_tables())
    def test_random_structured_arrays_match_csv_writer(self, tmp_path_factory, table):
        header = [f"c{i}" for i in range(len(table.dtype.names))]
        tmp = tmp_path_factory.mktemp("csv")
        cli.write_csv(str(tmp / "new.csv"), header, table)
        assert (tmp / "new.csv").read_bytes() == csv_reference_bytes(
            tmp / "ref.csv", header, structured_rows(table))


def dump_reference(path, op):
    """Triplet dump of the per-line writer: one formatted line per entry."""
    i, j = op.box.neighbor_index_pairs()
    c = format(-float(op.coupling), ".17g")
    with open(path, "w") as fh:
        for n, d in enumerate(op.diagonal.tolist()):
            fh.write(f"{n} {n} {d:.17g}\n")
        for a, b in zip(i.tolist(), j.tolist()):
            fh.write(f"{a} {b} {c}\n{b} {a} {c}\n")


class TestDumpMatrix:
    @pytest.mark.parametrize("make_op", [
        lambda: assemble_Hkappa(0.0123, LatticeBox.centered(1, 50_000)),
        lambda: assemble_HN(double_well_nd(2), ScalingParams(N=8, gamma=0.0, omega=1.0),
                            LatticeBox.centered(2, 12)),
        lambda: SymmetricLatticeOperator(
            box=LatticeBox(lo=(0, 0), hi=(3, 2)),
            diagonal=[0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                      2.2250738585072014e-308 / 3, 1e300, -1.0 / 3.0, 0.0, math.nan],
            coupling=0.0),
        # indices that cross 9/10, 99/100 and 9999/10000, where the coupling
        # lines change width; a lone point has no coupling line
        lambda: random_operator(LatticeBox.centered(1, 5), 0.3),
        lambda: random_operator(LatticeBox.centered(1, 50), 2.5),
        lambda: random_operator(LatticeBox.centered(1, 5000), 1e-7),
        lambda: random_operator(LatticeBox(lo=(0, 0), hi=(11, 8)), 1.0),
        lambda: random_operator(LatticeBox(lo=(-2, 0, 3), hi=(2, 5, 9)), 0.125),
        lambda: random_operator(LatticeBox.centered(1, 0), 1.0),
    ], ids=["hkappa-M50000", "double_well_2d", "special-values", "1d-11", "1d-101",
            "1d-10001", "2d-12x9", "3d-5x6x7", "1d-1"])
    def test_bytes_match_a_per_line_writer(self, tmp_path, make_op):
        op = make_op()
        cli.dump_matrix(str(tmp_path / "new.txt"), op)
        dump_reference(tmp_path / "ref.txt", op)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("block", [7, 10])
    @pytest.mark.parametrize("make_op", [
        lambda: random_operator(LatticeBox.centered(1, 50), 2.5),
        lambda: random_operator(LatticeBox(lo=(0, 0), hi=(11, 8)), 1.0),
    ], ids=["1d-101", "2d-12x9"])
    def test_blocks_leave_the_bytes_unchanged(self, tmp_path, monkeypatch, make_op, block):
        # blocks of 10 rows end where the index digits change, at 10 and 100;
        # blocks of 7 end inside runs of equal digit counts and split them
        monkeypatch.setattr(cli, "_DUMP_BLOCK_ROWS", block)
        op = make_op()
        cli.dump_matrix(str(tmp_path / "new.txt"), op)
        dump_reference(tmp_path / "ref.txt", op)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        # the benchmark's 100,001-row dump: 11.9 MB when every line was laid out
        # before the first write, 4.7 MB in blocks (the index pairs and digits
        # of the whole operator stay, 2.2 MB)
        op = assemble_Hkappa(0.01, LatticeBox.centered(1, 50_000))
        assert traced_peak(lambda: cli.dump_matrix(str(tmp_path / "d.txt"), op)) <= 6e6

    @pytest.mark.parametrize("kappa", [0.005, 0.0123, 0.02])
    def test_hkappa_diagonal_needs_no_percent_pass(self, kappa):
        # every distinct diagonal value of the benchmark's H_kappa dump takes the
        # vectorized path; none is left to CPython's per-value conversion
        op = assemble_Hkappa(kappa, LatticeBox.centered(1, 50_000))
        fast, _ = cli._fixed_texts(np.unique(op.diagonal))
        assert fast.size == 50_001 and np.count_nonzero(~fast) == 0


def random_operator(box, coupling):
    """An operator on ``box`` whose diagonal mixes magnitudes, signs and short texts."""
    rng = np.random.default_rng(box.size)
    diagonal = rng.standard_normal(box.size) * 10.0 ** rng.integers(-6, 19, box.size)
    diagonal[::7] = np.round(diagonal[::7], 2)
    return SymmetricLatticeOperator(box=box, diagonal=diagonal, coupling=coupling)


def float_texts(values):
    """The text of each row of ``cli._float_field``, NUL padding dropped."""
    rows = cli._float_field(np.asarray(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def assert_formats_as_17g(values):
    values = np.asarray(values, dtype=np.float64)
    assert float_texts(values) == [format(v, ".17g") for v in values.tolist()]


class TestFloatField:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64)),
        st.floats(allow_subnormal=True),
        st.floats(1e-5, 1e18).flatmap(lambda v: st.sampled_from([v, -v])),
        st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                         5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    ), min_size=1, max_size=40))
    def test_bit_patterns_match_format(self, values):
        assert_formats_as_17g(values)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-10, 2.0**-30])
    def test_exact_binary_fractions_and_ties(self, scale):
        # n + k/8 with n in [10^14, 10^15) and k odd lies exactly halfway
        # between two 17-digit decimals: the text rounds it to the even one
        rng = np.random.default_rng(17)
        n = rng.integers(10**14, 10**15, 4000)
        values = (n + rng.integers(0, 8, n.size) / 8.0) * scale
        values[::2] *= -1.0
        assert_formats_as_17g(values)
        if scale == 1.0:  # the ties take the exact path, not the fallback
            assert cli._fixed_texts(np.unique(values))[0].all()

    def test_neighbours_of_powers_of_ten(self):
        powers = np.array([float(f"1e{k}") for k in range(-30, 31)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, math.inf)])
        assert_formats_as_17g(np.concatenate([values, -values]))


@pytest.mark.parametrize("values", [
    np.arange(100_001), np.array([0, 9, 10, 2**32 - 1, 2**32, -(2**31), -(2**32)]),
    np.array([-(2**63), 2**63 - 1], dtype=np.int64),
    np.array([0, 2**64 - 1], dtype=np.uint64), np.array([True, False]),
    np.arange(-300, 300, 7, dtype=np.int16),
], ids=["indices", "uint32-edges", "int64-edges", "uint64-edges", "bool", "int16"])
def test_int_field_writes_str(values):
    rows = cli._int_field(values)
    assert [r.tobytes().replace(b"\0", b"").decode() for r in rows] == [
        str(int(v)) for v in values.tolist()]


def modules_loaded_by_importing_the_cli(names):
    """Which of ``names`` a fresh interpreter holds after ``import lsc.cli``."""
    code = f"import sys, lsc.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.strip()


def test_importing_the_cli_loads_no_decimal_arithmetic():
    # the exact formatter needs neither module, and set-up time would pay for them
    assert modules_loaded_by_importing_the_cli({"fractions", "decimal"}) == "[]"


def test_importing_the_cli_loads_no_sparse_solvers():
    # ARPACK and SuperLU are imported by the d >= 2 solve that uses them, so
    # the commands that never solve such a box do not pay for them at start-up
    assert modules_loaded_by_importing_the_cli({"scipy.sparse.linalg"}) == "[]"


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

    def test_free_k_above_box_size_is_config_error(self, tmp_path, capsys):
        code = run(["spectrum", "--potential", "free", "--M", "1", "--k", "5"],
                   tmp_path, out="spec.csv")
        assert code == cli.EXIT_CONFIG
        assert "k=5 out of range for size 3" in capsys.readouterr().err
        assert not (tmp_path / "spec.csv").exists()

    @pytest.mark.parametrize("argv, count", [
        ("spectrum --kappa 0.9 --k 41", 41),
        ("spectrum --potential double_well --N 4 --k 200", 200),
        ("spectrum --potential double_well_2d --N 4 --k 200", 200),
        ("kappa --kappa 0.9 --nmax 40", 41),
    ])
    def test_k_above_the_start_box_doubles(self, tmp_path, argv, count):
        # the start box holds fewer points than the levels asked for (39 of 41,
        # 89 of 200); it is left uncertified and doubled, not refused as bad
        # configuration (spectrum --kappa takes the certified route without --M)
        assert run(argv.split(), tmp_path, out="o.csv") == cli.EXIT_OK
        _, rows = read_rows(tmp_path / "o.csv")
        assert len(rows) == count

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

    def test_copies_missed_by_arpack_are_found_on_retry(self, tmp_path):
        # ARPACK's first 7 candidates hold 31.4325 and 31.4372 once each,
        # though each is a double level; the index certificate then asks for
        # more candidates instead of failing
        code = run(
            ["spectrum", "--potential", "double_well_2d", "--N", "8", "--M", "10",
             "--k", "6"],
            tmp_path, out="spec.csv",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "spec.csv")
        op = assemble_HN(double_well_nd(2), ScalingParams(N=8, gamma=0.0, omega=1.0),
                         LatticeBox.centered(2, 10))
        want = np.linalg.eigvalsh(op.dense())[:6]
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
                floor=lambda r: 1.0 + 0.0 * r,
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

    def test_validate_reports_the_step_it_scanned(self, tmp_path):
        # a 2-d scan at 0.004 would hold 2917^2 points; it runs at 0.016
        code = run(["validate", "--potential", "double_well_2d", "--grid-step", "0.004"],
                   tmp_path, out="v.csv", json="v.json")
        assert code == 0
        summary = json.loads((tmp_path / "v.json").read_text())
        assert summary["params"]["grid_step"] == 0.004
        assert summary["measured_constants"]["scan_step"] == 0.016

    @pytest.mark.parametrize("name, floor, margin", [
        ("decreasing_floor", lambda r: 3.0 - 0.1 * r, 1.2),  # below V, decreasing
        ("violated_floor", lambda r: r * r + 1.0, -1.0),  # increasing, above V
    ], ids=["decreasing", "violated"])
    def test_floor_law_failure_is_validation_exit(self, tmp_path, name, floor, margin):
        register_potential(name, lambda: Potential(
            dimension=1, evaluator=lambda pts: pts[:, 0] ** 2,
            wells=(Well(location=np.zeros(1), frequencies=np.full(1, 2**0.5)),),
            positivity_radius=2.0, floor=floor, name=name))
        code = run(["validate", "--potential", name], tmp_path, out="v.csv")
        assert code == cli.EXIT_VALIDATION
        _, rows = read_rows(tmp_path / "v.csv")
        assert [(r[0], r[1]) for r in rows] == [
            ("nonnegative", "1"), ("wells", "1"), ("no_unregistered_zeros", "1"),
            ("positive_at_infinity", "0"), ("smoothness", "1")]
        assert float(rows[3][2]) == pytest.approx(margin, abs=0.05)

    def test_non_callable_floor_is_config_error(self, tmp_path, capsys):
        register_potential("constant_floor", lambda: Potential(
            dimension=1, evaluator=lambda pts: pts[:, 0] ** 2, wells=(),
            positivity_radius=2.0, floor=1.0, name="constant_floor"))
        code = run(["validate", "--potential", "constant_floor"], tmp_path, out="v.csv")
        assert code == cli.EXIT_CONFIG
        assert "floor must be a callable of the radius, got 1.0" in capsys.readouterr().err
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("command", ["quasimode", "spectrum"])
    def test_zero_kappa_is_config_error(self, tmp_path, capsys, command):
        code = run([command, "--kappa", "0"], tmp_path, out="k.csv")
        assert code == cli.EXIT_CONFIG
        assert "invalid configuration: kappa must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "-1", "nan"])
    def test_bad_grid_step_is_config_error(self, tmp_path, capsys, step):
        code = run(["validate", "--potential", "double_well", f"--grid-step={step}"],
                   tmp_path, out="v.csv")
        assert code == cli.EXIT_CONFIG
        assert "grid_step must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_nonfinite_scan_radius_is_config_error(self, tmp_path, capsys, radius):
        code = run(["validate", "--potential", "double_well", "--scan-radius", radius],
                   tmp_path, out="v.csv")
        assert code == cli.EXIT_CONFIG
        assert f"scan_radius must be finite, got scan_radius={radius}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("epsilon", ["2", "0", "-0.5", "nan"])
    def test_epsilon_outside_unit_interval_is_config_error(self, tmp_path, capsys,
                                                            epsilon):
        code = run(["intervals", f"--epsilon={epsilon}", "--nmax", "1"], tmp_path,
                   out="i.csv", json="i.json")
        assert code == cli.EXIT_CONFIG
        want = f"epsilon must lie in (0, 1), got epsilon={float(epsilon)}"
        assert want in capsys.readouterr().err
        assert not (tmp_path / "i.csv").exists()

    @pytest.mark.parametrize("argv,flag", [
        (["spectrum", "--k", "0"], "k=0"),
        (["spectrum", "--kappa", "0.1", "--k", "0"], "k=0"),
        (["quasimode", "--nmax=-1"], "nmax=-1"),
        (["kappa", "--nmax=-1"], "nmax=-1"),
        (["spectrum", "--potential", "free", "--M=-1"], "M must be nonnegative, got M=-1"),
    ], ids=["spectrum", "spectrum-kappa", "quasimode", "kappa", "spectrum-M"])
    def test_negative_degree_names_the_flag(self, tmp_path, capsys, argv, flag):
        assert run(argv, tmp_path, out="d.csv") == cli.EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("argv,key", [
        (["spectrum", "--k", "2"], "kappa"),
        (["converge"], "N"),
        (["regimes"], "gamma"),
        (["sigma", "--potential", "harmonic"], "omega"),
        (["sigma", "--potential", "two_well"], "wells"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("empty", ["", ",", "[]"])
    def test_empty_list_flag_is_config_error(self, tmp_path, capsys, argv, key, source,
                                             empty):
        if source == "flag":
            argv = argv + [f"--{key}={empty}"]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = {empty}\n")
            argv = argv + ["--config", str(tmp_path / "run.cfg")]
        assert run(argv, tmp_path, out="e.csv") == cli.EXIT_CONFIG
        assert f"--{key} needs at least one value" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("omega", ["0", "-1"])
    def test_nonpositive_regimes_omega_is_config_error(self, tmp_path, capsys, omega):
        # rejected before any solve, so no box doubling runs and no CSV is written
        code = run(["regimes", f"--omega={omega}"], tmp_path, out="r.csv")
        assert code == cli.EXIT_CONFIG
        assert "needs omega > 0" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_regimes_with_no_judged_slope_is_config_error(self, tmp_path, capsys,
                                                           monkeypatch):
        # below the kink the ground level's slope is not judged, so --nmax 0
        # leaves no row to judge; rejected before any solve
        monkeypatch.setattr(semiclassics, "regime_sweep", None)
        code = run(["regimes", "--gamma=-2,-1.5", "--N", "8,16,32", "--nmax", "0"],
                   tmp_path, out="r.csv")
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--nmax 0" in err and "--gamma" in err
        assert not (tmp_path / "r.csv").exists()

    def test_out_of_memory_is_solver_error(self, tmp_path, monkeypatch, capsys):
        def too_big(cfg):
            raise MemoryError("dense assembly refused for size 9000")

        monkeypatch.setitem(cli._COMMANDS, "spectrum", too_big)
        code = run(["spectrum"], tmp_path)
        assert code == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert err == "solver failure: out of memory: dense assembly refused for size 9000\n"

    def test_open_bracket_at_the_box_cap_is_solver_error(self, tmp_path, monkeypatch,
                                                           capsys):
        # a floor of 0 lies below every level, so the bracket never closes;
        # with a cap of 1000 points the doubling stops at the 625-point box,
        # whose double would hold 1249, and no CSV is written
        monkeypatch.setattr(eigensolve, "MAX_BOX_POINTS", 1000)
        register_potential("zero_floor", lambda: Potential(
            dimension=1, evaluator=lambda pts: pts[:, 0] ** 2,
            wells=(Well(location=np.zeros(1), frequencies=np.full(1, 2**0.5)),),
            positivity_radius=2.0, floor=lambda r: 0.0 * r, name="zero_floor"))
        sizes = []
        assemble = lattice.assemble_HN

        def logged(V, params, box):
            sizes.append(box.size)
            return assemble(V, params, box)

        monkeypatch.setattr(lattice, "assemble_HN", logged)
        code = run(["spectrum", "--potential", "zero_floor"], tmp_path, out="s.csv")
        assert code == cli.EXIT_SOLVER
        assert sizes == [79, 157, 313, 625]
        assert capsys.readouterr().err == (
            "solver failure: truncation bracket still open at half-width 312 after 3 "
            "doublings; the doubled box would hold 1249 points, above the cap of 1000\n")
        assert not (tmp_path / "s.csv").exists()

    def test_open_bracket_at_the_2d_box_cap_is_out_of_memory(self, tmp_path, capsys):
        # a floor of 0 cannot certify two_well(d=2): at N = 2 and k = 6 the
        # 39^2-point start box doubles, and the 77^2-point box is refused by
        # the 4096-point non-separable cap, so no uncertified CSV is written
        register_potential("zero_floor_2d", lambda: dataclasses.replace(
            two_well(d=2), floor=lambda r: 0.0 * r, name="zero_floor_2d"))
        code = run(["spectrum", "--potential", "zero_floor_2d", "--N", "2"], tmp_path,
                   out="s.csv")
        assert code == cli.EXIT_SOLVER
        assert capsys.readouterr().err == (
            "solver failure: out of memory: non-separable dense fallback capped at "
            "4096 points; requested 5929\n")
        assert not (tmp_path / "s.csv").exists()

    def test_arpack_failure_is_solver_error(self, tmp_path, monkeypatch, capsys):
        import scipy.sparse.linalg

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        code = run(["ims", "--potential", "double_well_2d", "--N", "16"], tmp_path)
        assert code == cli.EXIT_SOLVER
        assert capsys.readouterr().err.startswith("solver failure: ")

    def test_dump_matrix_on_the_doubling_route_is_config_error(self, tmp_path, capsys):
        # the box-doubling routes (H_N, and H_kappa without --M) build no single
        # matrix, so the dump is refused before any solve instead of being
        # skipped in silence
        for route in ("--potential double_well", "--kappa 0.1"):
            code = run(["spectrum", *route.split()], tmp_path, dump_matrix="m.txt",
                       out="s.csv")
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "--dump-matrix" in err and "--M" in err
            assert not (tmp_path / "m.txt").exists() and not (tmp_path / "s.csv").exists()

    def test_non_finite_omega_is_config_error(self, tmp_path, capsys):
        # a NaN or infinite frequency used to give an empty sigma table and exit 0
        for potential, omega in (("harmonic", "nan"), ("harmonic", "inf"),
                                 ("two_well", "nan")):
            code = run(["sigma", "--potential", potential, "--omega", omega,
                        "--count", "4"], tmp_path, out="s.csv")
            assert code == cli.EXIT_CONFIG
            assert "finite and positive" in capsys.readouterr().err
            assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", [c for c in cli._COMMANDS if c != "spectrum"])
    def test_dump_matrix_off_spectrum_is_config_error(self, tmp_path, capsys,
                                                      monkeypatch, command):
        # only spectrum writes a matrix; elsewhere the flag is refused before
        # any work instead of being dropped in silence
        monkeypatch.setattr(cli, "_COMMANDS", {**cli._COMMANDS, command: None})
        code = run([command], tmp_path, dump_matrix="m.txt", out="o.csv")
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--dump-matrix" in err and command in err
        assert not (tmp_path / "m.txt").exists() and not (tmp_path / "o.csv").exists()

    def test_kappa_omega_is_config_error(self, tmp_path, capsys):
        # omega is absorbed into kappa (H_N = (N^2/2) H_kappa), so the kappa
        # study cannot read it; the flag is refused instead of being recorded
        code = run(["kappa", "--kappa", "0.2,0.1", "--nmax", "1", "--omega", "2"],
                   tmp_path, out="k.csv", json="k.json")
        assert code == cli.EXIT_CONFIG
        assert "--omega is not read by kappa" in capsys.readouterr().err
        assert not (tmp_path / "k.csv").exists() and not (tmp_path / "k.json").exists()

    @pytest.mark.parametrize("argv,flag", [
        ("spectrum --potential double_well --N 16,64 --k 2", "--N"),
        ("spectrum --potential double_well --gamma 0,0.5 --k 2", "--gamma"),
        ("spectrum --kappa 0.2,0.1 --k 2", "--kappa"),
        ("ims --potential double_well --N 128,256 --nmax 0", "--N"),
        ("ims --potential double_well --N 128 --gamma 0,0.5 --nmax 0", "--gamma"),
        ("converge --potential harmonic --gamma 0,0.5 --N 32,64 --nmax 0", "--gamma"),
        ("intervals --kappa 0.05,0.01 --nmax 1", "--kappa"),
        ("regimes --omega 1,2 --gamma=-1 --N 2,4,8 --nmax 0", "--omega"),
        ("sigma --potential two_well --omega 1,2 --count 4", "--omega"),
        ("sigma --potential two_well --omega 1,2 --wells=-1.5,1.5 --count 4", "--omega"),
    ], ids=["spectrum-N", "spectrum-gamma", "spectrum-kappa", "ims-N", "ims-gamma",
            "converge-gamma", "intervals-kappa", "regimes-omega", "two_well-omega",
            "two_well-wells-omega"])
    def test_list_read_as_one_value_is_config_error(self, tmp_path, capsys, argv, flag):
        # only the first value was read; the rest must not drop in silence
        assert run(argv.split(), tmp_path, out="o.csv") == cli.EXIT_CONFIG
        assert f"{flag} takes one value here, got 2" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv,message", [
        ("sigma --potential harmonic --wells 1,5",
         "--wells is not read by potential harmonic"),
        ("sigma --potential double_well --wells 1,5",
         "--wells is not read by potential double_well"),
        ("converge --wells=-1,1 --N 32,64", "--wells is not read by potential harmonic"),
        ("sigma --potential double_well --omega 3",
         "--omega is not read by potential double_well"),
        ("validate --potential double_well_2d --omega 3",
         "--omega is not read by potential double_well_2d"),
    ], ids=["harmonic-wells", "double_well-wells", "default-wells", "double_well-omega",
            "double_well_2d-omega"])
    def test_flag_the_potential_ignores_is_config_error(self, tmp_path, capsys, argv,
                                                        message):
        # only two_well reads --wells, and the double wells have fixed frequencies
        assert run(argv.split(), tmp_path, out="o.csv") == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("route,flag", [
        (route, flag) for route, (_, flags) in SPECTRUM_ROUTES.items() for flag in flags])
    def test_flag_the_spectrum_route_ignores_is_config_error(self, tmp_path, capsys,
                                                              route, flag):
        # the free Laplacian and H_kappa take no potential, scaling or mesh flags
        argv = [*SPECTRUM_ROUTES[route][0].split(), flag]
        assert run(argv, tmp_path, out="o.csv") == cli.EXIT_CONFIG
        name = flag.partition("=")[0]
        assert f"{name} is not read by spectrum {route}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_failed_assumptions_exit_3_without_files(self, tmp_path, capsys):
        register_potential("dipped_converge", lambda: Potential(
            dimension=1, evaluator=lambda pts: pts[:, 0] ** 2 - 0.1, wells=(),
            positivity_radius=2.0, floor=lambda r: 1.0 + 0.0 * r, name="dipped_converge"))
        code = run(["converge", "--potential", "dipped_converge", "--N", "8,16"],
                   tmp_path, out="c.csv", json="c.json")
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "assumption validation failed; see `lsc validate`\n")
        assert list(tmp_path.iterdir()) == []

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

    def test_quasimode_norms_do_not_fail_the_ritz_check(self, tmp_path):
        # the Gram diagonal grows like sqrt(pi) 2^n n! / kappa, so cond(B) passes
        # 1e12 at nmax = 12 although the quasimodes are nearly orthogonal
        code = run(
            ["quasimode", "--kappa", "0.2,0.1", "--nmax", "12"],
            tmp_path, out="q.csv", json="q.json",
        )
        assert code == 0
        assert json.loads((tmp_path / "q.json").read_text())["pass"] is True

    def test_cross_check_is_relative_to_the_quasimode(self, tmp_path):
        # at n = 13 the residual sup is 2.7e5 at kappa = 0.2 and the stencil
        # and the quadrature differ by 4.4e-9, rounding at that scale
        code = run(["quasimode", "--kappa", "0.2,0.1", "--nmax", "13"],
                   tmp_path, out="q.csv", json="q.json")
        assert code == cli.EXIT_OK
        assert json.loads((tmp_path / "q.json").read_text())["pass"] is True

    def test_cross_check_catches_a_relative_error(self, tmp_path, monkeypatch):
        # a quadrature off by 1e-6 of max|psi_n| fails, whatever n's scale
        peaks = {}
        apply, integral = hermite.quasimode_apply, hermite.residual_integral

        def recorded(n, kappa, box):
            psi, resid = apply(n, kappa, box)
            peaks[n, kappa] = float(np.abs(psi).max())
            return psi, resid

        def off(n, kappa, x):
            return integral(n, kappa, x) + 1e-6 * peaks[n, kappa]

        monkeypatch.setattr(hermite, "quasimode_apply", recorded)
        monkeypatch.setattr(hermite, "residual_integral", off)
        code = run(["quasimode", "--kappa", "0.2", "--nmax", "3"],
                   tmp_path, out="q.csv", json="q.json")
        assert code == cli.EXIT_ASSERTION
        summary = json.loads((tmp_path / "q.json").read_text())
        assert summary["pass"] is False
        assert summary["measured_constants"]["stencil_vs_integral"] == pytest.approx(
            1e-6 * max(peaks.values()), rel=1e-6)


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


# every flag (by config key): a command-line value, a config-file value, the
# RunConfig field it fills and the value the command line gives
FLAG_VALUES = {
    "potential": ("two_well", "harmonic", "potential", "two_well"),
    "omega": ("1,2", "3", "omega", [1.0, 2.0]),
    "wells": ("-1.5,1.5", "0,1", "wells", [-1.5, 1.5]),
    "gamma": ("-1,0.5", "0", "gammas", [-1.0, 0.5]),
    "N": ("8,16", "4", "Ns", [8, 16]),
    "kappa": ("0.2,0.1", "0.3", "kappas", [0.2, 0.1]),
    "nmax": ("3", "1", "nmax", 3),
    "delta_spike": ("0.25", "0.1", "delta_spike", 0.25),
    "delta_cut": ("0.2", "0.1", "delta_cut", 0.2),
    "epsilon": ("0.1", "0.3", "epsilon", 0.1),
    "count": ("9", "3", "count", 9),
    "M": ("5", "2", "M", 5),
    "k": ("4", "1", "k", 4),
    "out": ("o.csv", "x.csv", "out", "o.csv"),
    "json": ("s.json", "x.json", "json_path", "s.json"),
    "dump_matrix": ("m.txt", "x.txt", "dump_matrix_path", "m.txt"),
    "scan_radius": ("6", "1", "scan_radius", 6.0),
    "grid_step": ("0.02", "0.5", "grid_step", 0.02),
}
WRITER_KEYS = ("out", "json")


def flag_of(key):
    return "--" + key.replace("_", "-")


def handler_reads(name, tree, seen=()):
    """Config keys of the ``cfg.<field>`` reads in module function ``name`` and in
    every module function it passes ``cfg`` to."""
    fields = {flag.field: key for key, flag in cli._FLAGS.items()}
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    reads = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "cfg"):
            reads.add(fields.get(node.attr, node.attr))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and any(isinstance(a, ast.Name) and a.id == "cfg" for a in node.args)
                and node.func.id not in seen):
            reads |= handler_reads(node.func.id, tree, seen + (name,))
    return reads


class TestParseContract:
    def test_the_table_covers_every_flag(self):
        assert set(FLAG_VALUES) == set(cli._FLAGS)
        assert set(cli._READS) == set(cli._COMMANDS)
        # each command takes its read flags, --out, --json and --config
        assert sum(len(keys) + 3 for keys in cli._READS.values()) == 72

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_read_flag_overrides_the_config_file(self, tmp_path, command):
        keys = [*cli._READS[command], *WRITER_KEYS]
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k} = {FLAG_VALUES[k][1]}\n" for k in keys))
        from_file = cli.build_config(cli.build_parser().parse_args(
            [command, "--config", str(config)]))
        assert from_file == cli.RunConfig(command=command, **{
            FLAG_VALUES[k][2]: cli._FLAGS[k].convert(FLAG_VALUES[k][1]) for k in keys})
        argv = [command, "--config", str(config)]
        argv += [f"{flag_of(k)}={FLAG_VALUES[k][0]}" for k in keys]
        got = cli.build_config(cli.build_parser().parse_args(argv))
        assert got == cli.RunConfig(command=command,
                                    **{FLAG_VALUES[k][2]: FLAG_VALUES[k][3] for k in keys})

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_unread_flag_and_key_exits_2(self, tmp_path, capsys, monkeypatch,
                                               command):
        # refused before the handler runs (it is replaced by None) and before
        # any file is written
        monkeypatch.setattr(cli, "_COMMANDS", {**cli._COMMANDS, command: None})
        unread = [k for k in cli._FLAGS if k not in cli._READS[command] + WRITER_KEYS]
        assert unread
        config = tmp_path / "run.cfg"
        for key in unread:
            config.write_text(f"{key} = {FLAG_VALUES[key][0]}\n")
            for argv in ([command, f"{flag_of(key)}={FLAG_VALUES[key][0]}"],
                         [command, "--config", str(config)]):
                assert run(argv, tmp_path) == cli.EXIT_CONFIG
                err = capsys.readouterr().err
                assert f"{flag_of(key)} is not read by {command}" in err, argv
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_read_table_matches_the_handler(self, command):
        # the cfg fields each handler touches, through the helpers it passes
        # cfg to, are exactly its row of the read table
        tree = ast.parse(inspect.getsource(cli))
        assert handler_reads(cli._COMMANDS[command].__name__, tree) == set(
            cli._READS[command])

    def test_help_names_the_commands_that_read_each_flag(self):
        text = " ".join(cli.build_parser().format_help().split())
        assert "triplet dump path; read by spectrum " in text
        assert "number of enumerated values; read by sigma " in text
        assert "JSON summary path; read by every command" in text

    def test_one_parser_serves_a_sequence_of_runs(self, tmp_path):
        # the parser is built once per process; runs of different commands
        # and flags, a refused one among them, write what each writes alone
        argvs = ["kappa --kappa 0.2 --nmax 2", "quasimode --kappa 0.2,0.1 --nmax 2",
                 "spectrum --potential harmonic --gamma 0 --N 16 --k 3",
                 "sigma --potential harmonic --omega 1 --count 4",
                 "kappa --kappa 0.1,0.2 --nmax 1 --count 3",
                 "kappa --kappa 0.1 --nmax 1"]
        assert cli.build_parser() is cli.build_parser()
        codes = {}
        for mode in ("sequence", "single"):
            (tmp_path / mode).mkdir()
            for i, argv in enumerate(argvs):
                if mode == "single":
                    cli.build_parser.cache_clear()
                codes[mode, i] = run(argv.split(), tmp_path / mode,
                                     out=f"{i}.csv", json=f"{i}.json")
        assert [codes["sequence", i] for i in range(len(argvs))] == [
            codes["single", i] for i in range(len(argvs))] == [0, 0, 0, 0, 2, 0]
        names = sorted(p.name for p in (tmp_path / "single").iterdir())
        assert sorted(p.name for p in (tmp_path / "sequence").iterdir()) == names
        assert len(names) == 10
        for name in names:
            single = (tmp_path / "single" / name).read_text()
            assert (tmp_path / "sequence" / name).read_text() == single.replace(
                "/single/", "/sequence/")

    @pytest.mark.parametrize("argv", [["frobnicate"], [], ["sigma", "--bogus", "1"]],
                             ids=["unknown-command", "missing-command", "unknown-flag"])
    def test_bad_command_line_exits_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv, tmp_path)
        assert exc.value.code == 2


# SHA-256 of the CSV and the JSON summary written by the README examples and
# the benchmark's quasimode run, with relative output paths (the JSON holds
# the CSV path); recorded before the single-parser CLI and the one-call
# quadrature, which must leave every byte as it was.  The kappa and converge
# digests were re-recorded when the Dirichlet-Neumann bracket began returning
# the start box's levels instead of the doubled box's: their values moved by
# at most 1 ulp (1.74e-16 relative).  The quasimode_bench JSON digest was
# re-recorded when psi_fourth_derivative became the closed form from the
# oscillator equation: only its "stencil_vs_integral" moved, from
# 5.440092820663267e-15 to 5.329070518200751e-15, because the Taylor-remainder
# integrand now rounds differently; the CSV bytes stayed as they were.  The
# validate digests were re-recorded when the constant positivity floor became
# a growing law: the positive_at_infinity detail, min of V - floor(|x|) on the
# ring, went from 0.50000000000076739 to 0.5 (V - floor is 1/2 identically for
# the double well), and the JSON gained "scan_step": 0.02
README_GOLDEN = {
    "sigma": (
        "sigma --potential harmonic --omega 1 --count 4",
        "1a71a21a616150ad3a0dc5f845ad17f1887181536a9803eda129f110b915eed4",
        "7051ae6441393638d0cc90ed382b626c4a6955c99f01fcf0f14bd8904cade7fe",
    ),
    "spectrum": (
        "spectrum --potential free --M 1 --k 3",
        "119a5f73c25a744e6313a2baaf9308d6b26764c7bb47d7615d1ba0dc2523c9ae",
        "56a200715e1050a915aff10bde5379f727c650ee4bf0128962c8d3befff315a8",
    ),
    "kappa": (
        "kappa --kappa 0.2,0.1,0.05,0.025 --nmax 5",
        "167e3b21b657f49aeaf0977fe5112212737216aaf48b1c6dcbae1e4b7a2e4cb7",
        "e592029537bbe1548eafde0cad4e839eba2e7cdc6024e71babb17137ebace213",
    ),
    "converge": (
        "converge --potential double_well --gamma 0 --N 128,256,512,1024 --nmax 1",
        "446e59b28dd17d71d49024bc05951390b786ebae73d97f42c13c08f773eff8b5",
        "380b1a4ab8a6cf374393a2ed5bb17b8e8ee62101c91f8cbd5d30d9fc541b882e",
    ),
    "regimes": (
        "regimes --gamma=-1 --N 2,4,8 --nmax 2",
        "44abd6002c53a5a51b78777bf168e9df64e37e8537e371f760d4327d2a5506d9",
        "feb2c1eaafbc53d0802984ed13b07807319a3258363ba25af753c4705195dc74",
    ),
    "quasimode": (
        "quasimode --kappa 0.2,0.1 --nmax 3",
        "0910cdd9b73459253c359b98bb5d6fa8ede1dcfdbe2e1413735bab44fce2ed0b",
        "dd9e0f155268b6e5d3fb43b1c771239d1d41c958afcb1be3b1b18c25101a695d",
    ),
    "intervals": (
        "intervals --nmax 2 --kappa 0.05 --delta-spike 0.25 --epsilon 0.1",
        "24d33cef2a8242f75cfd0eefa7a5de45d51a3b94af125a6b623bcf82f691793b",
        "11050f4c0b07031978c77514af09d9851cdd94b40af3707604209e753de3d56a",
    ),
    "ims": (
        "ims --potential double_well --N 256 --gamma 0 --delta-cut 0.2",
        "d644690d2b8a66158b02c45e59dfa9c79c7bd97a07b0a1234ac76e8caf86b431",
        "544d5bb96908589dbd72e8471ab9234ac100dfc503aceacc88efe29b42a976d3",
    ),
    "validate": (
        "validate --potential double_well --grid-step 0.02",
        "1c5b479fdbdba3ac1564749fb8b81021d58f4989fcd34cd03aec76661cf1e273",
        "a1caf319e6b8fb6521e36715d360f6da93cf1becc51187f1bcc448734d48384d",
    ),
    "quasimode_bench": (
        "quasimode --kappa 0.2,0.1,0.05 --nmax 5",
        "e87d3f20a8571c067db32a1d85d5961ec10dafda8f0109d57cbbf81c5b4ffa95",
        "20c318a336df268b90f5058d65cc64ecb4ea7ee412c255904e96ee6400e9dbe1",
    ),
}


# SHA-256 of the triplet dump, the CSV and the JSON summary of each run.  The
# double_well_2d CSV digest was re-recorded when the shift-invert solve began
# factoring H - sigma with the MMD_AT_PLUS_A ordering: E_1 moved from
# 192.53293743466349 to 192.53293743466361 (6.2e-16 relative), now equal to
# E_2, its partner under the x <-> y reflection
DUMP_GOLDEN = {
    "double_well": (
        "spectrum --potential double_well --M 40",
        "e83d2b6213218dde0c5942619863f8c32a64cd5fcc9f9d41dbb19a2f5b198214",
        "8c9d2806c0119ba835e1eedd3665a6215e3fd23e2605eedf0eb8d1c5570d5ae5",
        "80a766841df7330f059fecc97a28dabe5821cfff84bc4ce851e195dfc5ed9df8",
    ),
    "double_well_2d": (
        "spectrum --potential double_well_2d --M 10 --k 3",
        "9bae1b954e8561beb2f2e3c4673b53b1d1ae04802a1601151f7e93df899b9e1d",
        "2023c320e5f2eb63fd06a23550461f3fe041b273f4deee92d931becdba6f28ea",
        "c9e501bdb51ae7d484ab9132a01cb81a1c7f684408b0702c26cf0171f00407c2",
    ),
}


@pytest.mark.parametrize("name", list(DUMP_GOLDEN))
def test_matrix_dump_bytes(tmp_path, monkeypatch, name):
    args, txt_digest, csv_digest, json_digest = DUMP_GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    code = cli.main(args.split() + ["--dump-matrix", f"{name}.txt", "--out",
                                    f"{name}.csv", "--json", f"{name}.json"])
    assert code == cli.EXIT_OK
    for ext, digest in (("txt", txt_digest), ("csv", csv_digest), ("json", json_digest)):
        assert hashlib.sha256((tmp_path / f"{name}.{ext}").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", list(README_GOLDEN))
def test_readme_example_bytes(tmp_path, monkeypatch, name):
    args, csv_digest, json_digest = README_GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    code = cli.main(args.split() + ["--out", f"{name}.csv", "--json", f"{name}.json"])
    assert code == cli.EXIT_OK
    assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest() == json_digest


# SHA-256 of the CSV and the JSON summary of the benchmark's IMS runs and
# their exit codes, recorded before the slice-based IMS kernels and the
# one-solve-per-distinct-block commutator norms, which must leave every byte
# as it was (the 2-d potential floor misses its target at N = 16 and 32); the
# N = 64 and 4096 entries were recorded before the kernels moved onto the
# bumps' support windows
IMS_GOLDEN = {
    "ims_dw2d_N16": (
        "ims --potential double_well_2d --N 16 --delta-cut 0.2", cli.EXIT_ASSERTION,
        "0894a0ddd4fc0a3364b177712a953cae10ff7862e91d6b74be8d470dd86242e2",
        "0b5ab1b4b5897debe1a80aaadff2bca147c925a8c5f183c0bc6de380c73ce294",
    ),
    "ims_dw2d_N32": (
        "ims --potential double_well_2d --N 32 --delta-cut 0.2", cli.EXIT_ASSERTION,
        "318da6fc0b28441ac973107d5f420bbaaa7c86bf16e18e436a02b35e867ef17a",
        "9ea9100feb63b4289283c9caae7ed70ce008e16b10e5f87102875ab0059b7511",
    ),
    "ims_two_well_N4096": (
        "ims --potential two_well --N 4096 --gamma 0.5 --delta-cut 0.2", cli.EXIT_OK,
        "6cf00df1ddb1a9fe78820799dbd89bab2bce8172893d42b8ff45f98a04344d57",
        "febe870f020808b02ff6dcdfcc6dcb8ab829258c9d46b5465951422efae0c493",
    ),
    "ims_dw2d_N64": (
        "ims --potential double_well_2d --N 64 --delta-cut 0.2", cli.EXIT_OK,
        "68af0a9fb4857742ea176e5f1dfe81a8b6bdc1da2e24e5b586d1eb71a0b25274",
        "cb088a2725e1eadabadc4a0ba1969c702aebfd23a6c4cc0d926ab8c7caf2302e",
    ),
    "ims_dw_N4096": (
        "ims --potential double_well --N 4096 --gamma 0 --delta-cut 0.2", cli.EXIT_OK,
        "6fc1d6d3a40b754fc1c0453765fee224ccc30e2d46753c5abca4bd1f638dff23",
        "4df3d659b2171e28fa666a0168233770044f8adc6e357aca44e86b46dfe29bd6",
    ),
}


@pytest.mark.parametrize("name", list(IMS_GOLDEN))
def test_ims_bytes(tmp_path, monkeypatch, name):
    args, exit_code, csv_digest, json_digest = IMS_GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    code = cli.main(args.split() + ["--out", f"{name}.csv", "--json", f"{name}.json"])
    assert code == exit_code
    assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest() == json_digest
