"""Command-line front end: dispatch experiments, emit CSV rows and JSON summaries.

Each flag is declared once, in ``_FLAGS``; each subcommand takes only the
flags its handler reads (``_READS``), plus ``--out``, ``--json`` and
``--config``.  Config lives in a plain ``key=value`` file keyed by flag
name; any flag given on the command line overrides the file.  A flag or
key that the subcommand does not read, or that names no flag, is invalid
configuration, rejected before any work.  Each handler returns its CSV
header and rows, exit code and measured constants, and ``main`` writes
the CSV and the ``--json`` summary.  CSV rows go through ``csv.writer``
(default dialect), numeric fields with 17 significant digits; the big
``sigma`` table is laid out from arrays with the same bytes.  Grids are
solved in grid order, so identical configs produce byte-identical output.

Exit codes: 0 success, 2 invalid configuration, 3 assumption validation
failed, 4 solver non-convergence, 5 an experiment assertion failed (for
example a negative certificate or a broken cover identity).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import eigensolve, hermite, lattice, potentials, semiclassics
from .errors import (AssumptionsFailed, BoxTooSmall, ConvergenceFailure,
                     DegenerateDecomposition, LscError)
from .lattice import LatticeBox

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_ASSERTION = 5


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# diagonal entries or neighbor pairs per dump write, which bounds the text held at once
_DUMP_BLOCK_ROWS = 16_384


def _int_field(values: np.ndarray) -> np.ndarray:
    """Decimal text of each integer (a bool as 0 or 1), one row each, right-aligned
    and left-padded with NUL bytes.  The digits come from repeated floor division
    by 10, in ``uint32`` when every magnitude fits (several times faster than in
    ``uint64``)."""
    negative = values < 0
    rest = values.astype(np.uint64)
    np.negative(rest, out=rest, where=negative)  # modulo 2**64: |v|, also for the minimum
    top = int(rest.max(initial=0))
    width = len(str(top))
    if top <= np.iinfo(np.uint32).max:
        rest = rest.astype(np.uint32)
    columns = np.zeros((width + 1, values.size), dtype=np.uint8)  # row 0 for a sign
    for col in range(width, 0, -1):
        quotient = rest // 10  # a scalar divisor: much faster than divmod or %
        digit = rest - quotient * 10 + ord("0")
        columns[col] = digit if col == width else digit * (rest > 0)  # no leading zeros
        rest = quotient
    if not negative.any():
        return np.ascontiguousarray(columns[1:].T)
    lead = np.count_nonzero(columns == 0, axis=0) - 1  # the sign goes left of the digits
    columns[lead[negative], np.flatnonzero(negative)] = ord("-")
    return np.ascontiguousarray(columns.T)


_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split ``x = high + low``, each half of at most 26 significant bits."""
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, e)`` with ``p = fl(a*b)`` and ``p + e = a*b`` exactly (Dekker 1971),
    barring overflow and underflow."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _runs(key: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of equal consecutive entries of ``key``."""
    bounds = [0, *(np.flatnonzero(np.diff(key)) + 1), key.size]
    return list(zip(bounds[:-1], bounds[1:])) if key.size else []


_DOT, _ZERO, _SIGN, _NUL = 17, 18, 19, 20  # source rows after the 17 digits


def _fixed_layout() -> np.ndarray:
    """For each decimal exponent X = -4 ... 16, the source row of each of the 23
    characters of the fixed-notation text.  The source rows of a value are its 17
    digits (a zero past both the point and the last nonzero digit as NUL), the
    point (NUL when no fraction digit is left), "0", the sign (NUL when positive)
    and a NUL."""
    layout = np.full((21, 23), _NUL, dtype=np.intp)
    for X in range(-4, 17):
        cols = ([_SIGN, *range(X + 1), _DOT, *range(X + 1, 17)] if X >= 0 else
                [_SIGN, _ZERO, _DOT, *[_ZERO] * (-X - 1), *range(17)])
        layout[X + 4, :len(cols)] = cols
    return layout


_FIXED_LAYOUT = _fixed_layout()
_POW10 = np.array([float(10**s) for s in range(21)])  # exact in binary64


def _fixed_texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(fast, rows)``: ``fast`` marks the finite nonzero floats whose ``{:.17g}``
    text is fixed notation, ``10**-4 <= |v| < 10**17``, and whose 17 digits the
    exact product below fixes; ``rows`` holds their text, one NUL-padded row each.

    With ``X = floor(log10|v|)`` the 17 digits are ``D = round(|v| * 10**(16 - X))``,
    ties to even.  ``10**(16 - X)`` is exact in binary64 here, so Dekker's two-product
    gives the product as ``p + e`` exactly and ``D = p + rint(e)`` (``p`` is an even
    integer, so the parity of ``rint(e)`` decides a tie as for the sum).  A value is
    left out when ``log10`` misjudges ``X`` or ``D`` carries into an eighteenth
    digit: then the product is not in ``[10**16, 10**17 - 1/2)``."""
    magnitude = np.abs(values)
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(magnitude))  # -inf at 0, nan at nan
    fast = (exponent >= -4) & (exponent <= 16)
    magnitude, exponent = magnitude[fast], exponent[fast].astype(np.intp)
    p, e = _two_product(magnitude, _POW10[16 - exponent])
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    ok = (digits < 10**17) & ((p > 1e16) | ((p == 1e16) & (e >= 0)))
    fast[fast] = ok
    if not ok.any():
        return fast, np.zeros((0, 0), dtype=np.uint8)
    digits, exponent = digits[ok], exponent[ok]
    # source[k] for k < 17 is the k-th digit, most significant first
    source = np.empty((21, digits.size), dtype=np.uint8)
    high = (digits // 10**9).astype(np.uint32)  # both halves fit in uint32
    for rest, span in (((digits - high * 10**9).astype(np.uint32), range(16, 7, -1)),
                       (high, range(7, -1, -1))):
        for k in span:
            quotient = rest // 10
            source[k] = rest - quotient * 10
            rest = quotient
    last = 16 - np.argmax(source[16::-1] != 0, axis=0)  # the last nonzero digit
    source[:17] += ord("0")
    source[:17] *= np.arange(17)[:, None] <= np.maximum(last, exponent)
    source[_DOT] = (last > exponent) * ord(".")
    source[_ZERO] = ord("0")
    source[_SIGN] = (values[fast] < 0) * ord("-")
    source[_NUL] = 0
    texts = np.empty((_FIXED_LAYOUT.shape[1], digits.size), dtype=np.uint8)
    for a, b in _runs(exponent):  # sorted input has at most 42 runs, 21 per sign
        texts[:, a:b] = source[_FIXED_LAYOUT[exponent[a] + 4], a:b]
    return fast, np.ascontiguousarray(texts[texts.any(axis=1)].T)  # no all-NUL column


def _float_field(values: np.ndarray) -> np.ndarray:
    """``{:.17g}`` text of each float, one row each, padded with NUL bytes (at
    either end).  Each distinct float (by bit pattern, so -0.0 and NaN keep their
    text) is formatted once.  Fixed-notation values go through the exact
    vectorized path of ``_fixed_texts``; the rest (zero, inf, NaN, scientific
    notation, an exponent that ``log10`` misjudges, digits that carry into an
    eighteenth) go through one ``%`` pass,
    CPython's correctly rounded conversion.  Both write the bytes of
    ``format(v, ".17g")``."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    fast, rows = _fixed_texts(distinct)
    out = np.zeros((distinct.size, rows.shape[1]), dtype=np.uint8)
    out[fast] = rows
    if not fast.all():
        rest = distinct[~fast].tolist()
        texts = (("%.17g\n" * len(rest)) % tuple(rest)).encode().split()
        slow = np.array(texts, dtype=bytes).view(np.uint8).reshape(len(rest), -1)
        if slow.shape[1] > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, slow.shape[1] - out.shape[1])))
        out[~fast, :slow.shape[1]] = slow
    return out[inverse]


def _text_field(text: bytes, rows: int) -> np.ndarray:
    return np.broadcast_to(np.frombuffer(text, dtype=np.uint8), (rows, len(text)))


_CSV_SPECIAL_BYTES = (b",", b'"', b"\r", b"\n")


def _table_text(table: np.ndarray) -> str | None:
    """CSV body of a structured array whose fields are bool, int, float64 (or
    narrower float) or bytes of ASCII text, as ``csv.writer`` writes its
    ``tolist()`` rows; ``None`` where a field needs quoting or the per-cell path
    (another type, a lone field)."""
    if len(table.dtype.names or ()) < 2:
        return None
    if table.size == 0:
        return ""
    fields = []
    for name in table.dtype.names:
        column = table[name]
        kind, size = column.dtype.kind, column.dtype.itemsize
        if column.ndim != 1 or kind not in "biufS" or (kind == "f" and size > 8):
            return None
        if kind == "S":
            field = np.ascontiguousarray(column)
            if any(map(field.tobytes().__contains__, _CSV_SPECIAL_BYTES)):
                return None
            field = field.view(np.uint8).reshape(table.size, size)
        elif kind == "f":
            field = _float_field(column.astype(np.float64))
        else:
            field = _int_field(column)
        fields += [field, _text_field(b",", table.size)]
    fields[-1] = _text_field(b"\r\n", table.size)  # the last separator ends the line
    return np.hstack(fields).tobytes().replace(b"\0", b"").decode("ascii")


def write_csv(path: str, header: list[str], rows: list[tuple] | np.ndarray) -> None:
    """Write ``header`` and equal-width ``rows`` through ``csv.writer`` (default
    dialect), each cell as ``_fmt`` writes it.

    ``rows`` is a list of tuples or a NumPy structured array, one field per
    column, which is written as its ``tolist()`` rows would be; a bytes field
    holds ASCII text, and its NUL bytes are padding wherever they sit.  A
    structured array of bool, int, float and unquoted bytes fields is laid out
    as NUL-padded byte rows (each distinct float formatted once), and the
    padding is dropped in one pass, with the same bytes."""
    body = _table_text(rows) if isinstance(rows, np.ndarray) else None
    if body is None and isinstance(rows, np.ndarray):
        rows = [tuple(v.replace(b"\0", b"").decode("ascii") if isinstance(v, bytes)
                      else v for v in row) for row in rows.tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if body is not None:
            fh.write(body)
            return
        writer.writerows(map(_fmt, row) for row in rows)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def dump_matrix(path: str, op) -> None:
    """Coordinate-triplet text dump (row, col, value) of an assembled operator: one
    ``n n value`` line per diagonal entry, then ``i j c`` and ``j i c`` for each
    neighbor pair ``i < j``, every float as ``format(v, ".17g")`` writes it.

    Lines are laid out and written ``_DUMP_BLOCK_ROWS`` diagonal entries or
    neighbor pairs at a time, so the text held at once stays bounded.  The
    diagonal lines are laid out as NUL-padded byte rows (``_int_field``,
    ``_float_field``; no field holds a NUL) and the padding is dropped in one
    pass per block.  The coupling lines need no such pass: each run of
    consecutive pairs in a block whose two indices have the same digit counts
    is one fixed-width array of right-aligned digits cut to that width."""
    digits = _int_field(np.arange(op.size))
    i, j = op.box.neighbor_index_pairs()
    entry = f" {_fmt(-float(op.coupling))}\n".encode()
    with open(path, "wb") as fh:
        for a in range(0, op.size, _DUMP_BLOCK_ROWS):
            rows = digits[a:a + _DUMP_BLOCK_ROWS]
            space, newline = _text_field(b" ", len(rows)), _text_field(b"\n", len(rows))
            fh.write(np.hstack([rows, space, rows, space,
                                _float_field(op.diagonal[a:a + _DUMP_BLOCK_ROWS]), newline]
                               ).tobytes().replace(b"\0", b""))
        for a in range(0, i.size, _DUMP_BLOCK_ROWS):
            bi, bj = i[a:a + _DUMP_BLOCK_ROWS], j[a:a + _DUMP_BLOCK_ROWS]
            wi, wj = (np.searchsorted(_POW10[1:], k, side="right") + 1 for k in (bi, bj))
            for c, e in _runs(wi * 32 + wj):  # digit counts of int64 indices stay below 32
                di, dj = digits[bi[c:e], -wi[c]:], digits[bj[c:e], -wj[c]:]
                pair_space, pair_entry = _text_field(b" ", e - c), _text_field(entry, e - c)
                fh.write(np.hstack([di, pair_space, dj, pair_entry,
                                    dj, pair_space, di, pair_entry]).tobytes())


def _parse_config_file(path: str) -> dict:
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _FLAGS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _FLAGS[key].convert(value.strip())
    return out


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.replace("[", "").replace("]", "").split(",")
            if t.strip()]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.replace("[", "").replace("]", "").split(",")
            if t.strip()]


@dataclass(frozen=True)
class RunConfig:
    """Fully merged and validated run parameters for one subcommand."""

    command: str
    potential: str | None = None
    omega: list[float] | None = None
    wells: list[float] | None = None
    gammas: list[float] | None = None
    Ns: list[int] | None = None
    kappas: list[float] | None = None
    nmax: int | None = None
    delta_spike: float | None = None
    delta_cut: float | None = None
    epsilon: float | None = None
    count: int | None = None
    M: int | None = None
    k: int | None = None
    out: str | None = None
    json_path: str | None = None
    dump_matrix_path: str | None = None
    scan_radius: float | None = None
    grid_step: float | None = None

    def __post_init__(self):
        if self.Ns is not None:
            if any(N <= 0 for N in self.Ns) or any(
                b <= a for a, b in zip(self.Ns, self.Ns[1:])
            ):
                raise ValueError("N list must be strictly increasing positive integers")
        if self.gammas is not None and not all(math.isfinite(g) for g in self.gammas):
            raise ValueError("gamma grid must be finite")
        if self.delta_spike is not None and not 0.0 < self.delta_spike < 0.5:
            raise ValueError("delta_spike must lie in (0, 0.5)")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be at least 1, got k={self.k}")
        if self.M is not None and self.M < 0:
            raise ValueError(f"M must be nonnegative, got M={self.M}")
        if self.nmax is not None and self.nmax < 0:
            raise ValueError(f"nmax must be nonnegative, got nmax={self.nmax}")
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got epsilon={self.epsilon}")


class _Flag(NamedTuple):
    field: str  # the RunConfig field it fills
    convert: Callable[[str], object]  # applied to the command line and the config file
    help: str


# every flag, keyed by its config-key spelling: the flag is "--" + key with "-" for "_"
_FLAGS = {
    "potential": _Flag("potential", str,
                       "harmonic|double_well|double_well_2d|two_well|free"),
    "omega": _Flag("omega", _floats, "comma list of well frequencies"),
    "wells": _Flag("wells", _floats, "two well locations (two_well only)"),
    "gamma": _Flag("gammas", _floats, "scaling exponent (comma list for regimes)"),
    "N": _Flag("Ns", _ints, "comma list of mesh counts"),
    "kappa": _Flag("kappas", _floats, "comma list of reduced scales"),
    "nmax": _Flag("nmax", int, "highest tracked level"),
    "delta_spike": _Flag("delta_spike", float, "spike exponent in (0, 0.5)"),
    "delta_cut": _Flag("delta_cut", float, "cube cutoff exponent in (0, (1-gamma)/2)"),
    "epsilon": _Flag("epsilon", float, "certificate margin"),
    "count": _Flag("count", int, "number of enumerated values"),
    "M": _Flag("M", int, "box half-width override"),
    "k": _Flag("k", int, "number of eigenvalues"),
    "out": _Flag("out", str, "CSV output path (default <command>.csv)"),
    "json": _Flag("json_path", str, "JSON summary path"),
    "dump_matrix": _Flag("dump_matrix_path", str, "triplet dump path"),
    "scan_radius": _Flag("scan_radius", float, "assumption scan radius"),
    "grid_step": _Flag("grid_step", float, "assumption scan step"),
}
# the flags each command's handler reads; main's writer reads "out" and "json" for all
_READS = {
    "spectrum": ("potential", "omega", "wells", "gamma", "N", "kappa", "M", "k",
                 "dump_matrix"),
    "sigma": ("potential", "omega", "wells", "count"),
    "converge": ("potential", "omega", "wells", "scan_radius", "grid_step", "gamma", "N",
                 "nmax"),
    "kappa": ("kappa", "nmax"),
    "regimes": ("omega", "gamma", "N", "nmax"),
    "quasimode": ("kappa", "nmax"),
    "intervals": ("nmax", "kappa", "delta_spike", "epsilon"),
    "ims": ("potential", "omega", "wells", "N", "gamma", "delta_cut", "nmax"),
    "validate": ("potential", "omega", "wells", "scan_radius", "grid_step"),
}
_WRITER_KEYS = ("out", "json")


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: a positional command and every flag, each
    flag's help naming the commands that read it.  Built once per process:
    ``parse_args`` and ``format_help`` leave it as it was."""
    p = argparse.ArgumentParser(
        prog="lsc",
        description="Spectra of lattice Schrodinger operators under coupled "
        "mesh / semiclassical scaling",
    )
    p.add_argument("command", choices=_COMMANDS)
    p.add_argument("--config", help="key=value config file keyed by flag name; "
                   "flags override; read by every command")
    for key, flag in _FLAGS.items():
        readers = ("every command" if key in _WRITER_KEYS else
                   ", ".join(c for c, keys in _READS.items() if key in keys))
        p.add_argument(_flag_name(key), dest=key, type=flag.convert,
                       help=f"{flag.help}; read by {readers}")
    return p


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge the config file and the flags (flags win); a key the command does not
    read, or a list flag given with no value, is a ``ValueError`` naming its flag."""
    merged = _parse_config_file(args.config) if args.config else {}
    merged.update((key, value) for key, value in vars(args).items()
                  if key in _FLAGS and value is not None)
    for key, value in merged.items():
        if key not in _READS[args.command] and key not in _WRITER_KEYS:
            raise ValueError(f"{_flag_name(key)} is not read by {args.command}")
        if value == []:  # an empty list would read as unset
            raise ValueError(f"{_flag_name(key)} needs at least one value")
    return RunConfig(command=args.command,
                     **{_FLAGS[key].field: value for key, value in merged.items()})


def _default(value, fallback):
    return fallback if value is None else value


def _single(values, default, key: str):
    """The value of a list flag that is read as one value, or ``default`` when unset."""
    if not values:
        return default
    if len(values) > 1:
        raise ValueError(f"{_flag_name(key)} takes one value here, got {len(values)}")
    return values[0]


def _resolve_potential(cfg: RunConfig) -> potentials.Potential:
    name = _default(cfg.potential, "harmonic")
    if cfg.wells is not None and name != "two_well":
        raise ValueError(f"--wells is not read by potential {name}")
    if cfg.omega is not None and name in ("double_well", "double_well_2d"):
        raise ValueError(f"--omega is not read by potential {name}")
    if name != "two_well":
        return potentials.builtin_potential(name, cfg.omega)
    omega = _single(cfg.omega, 1.0, "omega")
    if cfg.wells is None:
        return potentials.two_well(omega=omega)
    if len(cfg.wells) != 2:
        raise ValueError("two_well takes exactly two well locations")
    return potentials.two_well(omega=omega, separation=abs(cfg.wells[1] - cfg.wells[0]))


# what a handler returns: the CSV header and rows, the exit code, the measured constants
_Output = tuple[list[str], list[tuple] | np.ndarray, int, dict]


def _write_outputs(cfg: RunConfig, header: list[str], rows: list[tuple] | np.ndarray,
                   exit_code: int, constants: dict) -> int:
    """Write the CSV and, with ``--json``, the summary; return ``exit_code``."""
    path = _default(cfg.out, f"{cfg.command}.csv")
    write_csv(path, header, rows)
    if cfg.json_path:
        params = {key: value for key, value in dataclasses.asdict(cfg).items()
                  if value is not None
                  and key not in ("out", "json_path", "dump_matrix_path")}
        write_json(cfg.json_path, {
            "experiment": cfg.command,
            "params": params,
            "pass": exit_code == EXIT_OK,
            "measured_constants": constants,
            "rows_csv_path": path,
        })
    return exit_code


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _reject_unread(route: str, **given) -> None:
    """Reject each flag (keyword by config key) that is set: ``route`` ignores it."""
    for key, value in given.items():
        if value is not None:
            raise ValueError(f"{_flag_name(key)} is not read by spectrum {route}")


def _no_dump_on_doubling(cfg: RunConfig) -> None:
    if cfg.dump_matrix_path:
        raise ValueError("--dump-matrix needs --M: the box-doubling route "
                         "builds no single matrix to dump")


def cmd_spectrum(cfg: RunConfig) -> _Output:
    k = _default(cfg.k, 6)
    if cfg.potential == "free":
        _reject_unread("--potential free", omega=cfg.omega, wells=cfg.wells,
                       gamma=cfg.gammas, N=cfg.Ns, kappa=cfg.kappas)
        M = _default(cfg.M, 1)
        op = lattice.assemble_laplacian(LatticeBox.centered(1, M))
        values = eigensolve.eigs_tridiag(op, k).values
    elif cfg.kappas:
        _reject_unread("--kappa", potential=cfg.potential, omega=cfg.omega,
                       wells=cfg.wells, gamma=cfg.gammas, N=cfg.Ns)
        kappa = _single(cfg.kappas, None, "kappa")
        if cfg.M is not None:
            op = lattice.assemble_Hkappa(kappa, LatticeBox.centered(1, cfg.M))
            values = eigensolve.eigs_tridiag(op, k).values
        else:
            _no_dump_on_doubling(cfg)
            values = semiclassics.harmonic_levels(kappa, k).values
    else:
        V = _resolve_potential(cfg)
        params = potentials.ScalingParams(
            N=_single(cfg.Ns, 16, "N"), gamma=_single(cfg.gammas, 0.0, "gamma"),
            omega=float(V.wells[0].frequencies[0]),
        )
        if cfg.M is not None:
            op = lattice.assemble_HN(V, params, LatticeBox.centered(V.dimension, cfg.M))
            solve = eigensolve.eigs_tridiag if V.dimension == 1 else eigensolve.eigs_sparse
            values = solve(op, k).values
        else:
            _no_dump_on_doubling(cfg)
            values = semiclassics.levels_HN(V, params, k)
    if cfg.dump_matrix_path:
        dump_matrix(cfg.dump_matrix_path, op)
    return ["n", "E_n"], [(n, float(v)) for n, v in enumerate(values)], EXIT_OK, {}


def cmd_sigma(cfg: RunConfig) -> _Output:
    V = _resolve_potential(cfg)
    seq = semiclassics.sigma_enumerate(V, _default(cfg.count, 8))
    plus = _text_field(b"+", len(seq))
    # "+"-joined NUL-padded digits; the writer drops the padding
    multi = np.hstack([f for m in seq.multi.T for f in (plus, _int_field(m))][1:])
    header = ["n", "e_n", "well", "multi_index"]
    table = np.rec.fromarrays([np.arange(len(seq)), seq.values, seq.wells,
                               multi.view(f"S{multi.shape[1]}")[:, 0]], names=header)
    return header, table, EXIT_OK, {}


def cmd_validate(cfg: RunConfig) -> _Output:
    V = _resolve_potential(cfg)
    radius = _default(cfg.scan_radius, V.positivity_radius + 3.0)
    step = _default(cfg.grid_step, 0.01)
    report = potentials.validate_assumptions(V, radius, step)
    rows = [
        ("nonnegative", report.nonnegative, report.min_value),
        ("wells", report.wells_valid, len(report.well_messages)),
        ("no_unregistered_zeros", not report.unregistered_zeros,
         len(report.unregistered_zeros)),
        ("positive_at_infinity", report.positive_at_infinity, report.floor_margin),
        ("smoothness", True, report.smoothness),
    ]
    return (["check", "passed", "detail"], rows,
            EXIT_OK if report.passed else EXIT_VALIDATION,
            {"zero_count": report.zero_count, "scan_step": report.scan_step})


def cmd_kappa(cfg: RunConfig) -> _Output:
    kappas = _default(cfg.kappas, [0.2, 0.1, 0.05, 0.025])
    n_max = _default(cfg.nmax, 5)
    study = semiclassics.harmonic_kappa_study(kappas, n_max)
    rows = [(r.kappa, r.n, r.energy, r.ratio, r.target, r.abs_err)
            for r in study.rows]
    orders = {str(n): study.deviation_orders[n] for n in range(n_max + 1)}
    return (["kappa", "n", "E_n", "ratio", "target", "abs_err"], rows,
            EXIT_OK if all(study.errors_decreasing.values()) else EXIT_ASSERTION,
            {"deviation_orders": orders})


def cmd_converge(cfg: RunConfig) -> _Output:
    gamma = _single(cfg.gammas, 0.0, "gamma")
    V = _resolve_potential(cfg)
    report = potentials.validate_assumptions(
        V,
        _default(cfg.scan_radius, V.positivity_radius + 3.0),
        _default(cfg.grid_step, 0.02),
    )
    if not report.passed:
        raise AssumptionsFailed("assumption validation failed; see `lsc validate`")
    Ns = _default(cfg.Ns, [128, 256, 512, 1024])
    n_max = _default(cfg.nmax, 1)
    table = semiclassics.converge_study(V, gamma, Ns, n_max)
    rows = [(r.gamma, r.N, r.n, r.energy, r.lam, r.ratio, r.target, r.abs_err)
            for r in table.rows]
    passed = all(table.errors_decreasing.values())
    return (["gamma", "N", "n", "E_n", "lambda_N", "ratio", "target", "abs_err"], rows,
            EXIT_OK if passed else EXIT_ASSERTION,
            {"orders": {str(n): table.orders[n] for n in table.orders}})


def cmd_regimes(cfg: RunConfig) -> _Output:
    gammas = _default(cfg.gammas, [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5])
    Ns = _default(cfg.Ns, [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
    n_max = _default(cfg.nmax, 2)
    omega = _single(cfg.omega, 1.0, "omega")
    if n_max == 0 and all(g < -1.0 for g in gammas):
        raise ValueError("--nmax 0 leaves no slope to judge: below the kink (--gamma "
                         "< -1) the ground level's slope is not judged; raise --nmax "
                         "or add a --gamma at or above -1")
    sweep = semiclassics.regime_sweep(omega, gammas, Ns, n_max)
    rows = [(r.gamma, r.n, r.slope_fit, r.slope_pred, r.limit_const_fit,
             r.limit_const_pred) for r in sweep.rows]
    worst = max(abs(r.slope_fit - r.slope_pred)
                for r in sweep.rows if not (r.gamma < -1.0 and r.n == 0))
    constants = {"worst_slope_error": worst}
    if sweep.minus_one_exact_dev is not None:
        constants["minus_one_exact_dev"] = sweep.minus_one_exact_dev
    return (["gamma", "n", "slope_fit", "slope_pred", "limit_const_fit",
             "limit_const_pred"], rows,
            EXIT_OK if worst <= 0.1 else EXIT_ASSERTION, constants)


def cmd_quasimode(cfg: RunConfig) -> _Output:
    kappas = _default(cfg.kappas, [0.2, 0.1])
    n_max = _default(cfg.nmax, 3)
    rows = []
    cross_worst = 0.0
    passed = True
    for kappa in kappas:
        box = LatticeBox.centered(1, hermite.box_halfwidth(n_max, kappa))
        op = lattice.assemble_Hkappa(kappa, box)
        spectrum = eigensolve.eigs_tridiag(op, n_max + 1).values
        # each quasimode is sampled once: its tail check there implies gram_entry's
        applied = [hermite.quasimode_apply(n, kappa, box) for n in range(n_max + 1)]
        thetas = eigensolve.subspace_upper_bounds(op, [psi for psi, _ in applied])
        for n, (psi, resid) in enumerate(applied):
            sup = float(np.abs(resid).max())
            gram_dev = abs(
                math.fsum(psi * psi)
                - math.sqrt(math.pi) * 2.0**n * math.factorial(n) / kappa
            )
            x0 = int(np.abs(resid).argmax())
            cross = abs(resid[x0] + hermite.residual_integral(n, kappa, box.lo[0] + x0))
            cross_worst = max(cross_worst, cross)
            # the residual grows like sqrt(2^n n!), so the stencil and the
            # quadrature can agree only to rounding at the quasimode's scale
            # (measured <= 15.2 eps max|psi| for kappa in [0.0125, 0.3], n <= 30)
            if (cross > 1e3 * np.finfo(float).eps * float(np.abs(psi).max())
                    or thetas[n] < spectrum[n] - 1e-12 * (1.0 + abs(spectrum[n]))):
                passed = False
            rows.append((kappa, n, sup, sup / kappa**4, gram_dev,
                         float(thetas[n]) / kappa**2))
    return (["kappa", "n", "resid_sup", "resid_over_kappa4", "gram_diag_dev",
             "ritz_over_kappa2"], rows,
            EXIT_OK if passed else EXIT_ASSERTION, {"stencil_vs_integral": cross_worst})


def cmd_intervals(cfg: RunConfig) -> _Output:
    n = _default(cfg.nmax, 2)
    kappa = _single(cfg.kappas, 0.05, "kappa")
    delta = _default(cfg.delta_spike, 0.25)
    epsilon = _default(cfg.epsilon, 0.1)
    report = semiclassics.interval_lowerbound_experiment(n, kappa, delta, epsilon)
    cover = report.decomposition.cover_ok(report.halfwidth)
    rows = [(report.n, report.kappa, r.label, r.lo, r.hi,
             float(report.decomposition.beta[abs(r.label) - 1]) if r.label else 1.0,
             r.modified, r.ground_energy, r.ratio, r.cert_ok, r.cert_slack)
            for r in report.rows]
    passed = cover and report.all_certificates_ok and report.ratio_ok
    # the capped certificate needs kappa^4 x_delta^2 >= threshold kappa^2 past
    # the spike, with x_delta ~ kappa^-(1 + delta): kappa <= threshold^(-1/(2 delta))
    return (["n", "kappa", "j", "lo", "hi", "beta", "modified", "E0", "ratio", "cert_ok",
             "cert_slack"], rows, EXIT_OK if passed else EXIT_ASSERTION, {
        "min_ratio": report.min_ratio,
        "threshold": report.threshold,
        "kappa_admissible_max": report.threshold ** (-0.5 / delta),
        "cover_ok": cover,
    })


def cmd_ims(cfg: RunConfig) -> _Output:
    V = _resolve_potential(cfg)
    delta_cut = _default(cfg.delta_cut, 0.2)
    n_max = _default(cfg.nmax, 3)
    params = potentials.ScalingParams(
        N=_single(cfg.Ns, 256, "N"), gamma=_single(cfg.gammas, 0.0, "gamma"),
        omega=float(V.wells[0].frequencies[0]),
    )
    report = semiclassics.ims_general_experiment(V, params, delta_cut, n_max)
    rows = [("eta0", report.eta0_commutator_norm, report.eta0_bound, 0.0, 0.0, 0.0)]
    rows += [(f"well{i}", r.commutator_norm, r.commutator_bound, r.variation,
              r.potdiff_norm, r.potdiff_scale)
             for i, r in enumerate(report.rows)]
    passed = (
        report.identity_residual <= 1e-12
        and report.commutators_ok
        and report.eta0_commutator_norm <= report.eta0_bound
        and report.floor_ok
    )
    return (["patch", "commutator_norm", "commutator_bound", "variation", "potdiff_norm",
             "potdiff_scale"], rows, EXIT_OK if passed else EXIT_ASSERTION, {
        "identity_residual": report.identity_residual,
        "inner_radius": report.inner_radius,
        "floor_min": report.floor_min,
        "floor_target": report.floor_target,
    })


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "sigma": cmd_sigma,
    "converge": cmd_converge,
    "kappa": cmd_kappa,
    "regimes": cmd_regimes,
    "quasimode": cmd_quasimode,
    "intervals": cmd_intervals,
    "ims": cmd_ims,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _write_outputs(cfg, *_COMMANDS[cfg.command](cfg))
    except (KeyError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionsFailed as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceFailure, BoxTooSmall, DegenerateDecomposition) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"solver failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except LscError as exc:
        print(f"experiment failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
