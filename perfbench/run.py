"""Benchmark entry point: one workload, one seed, one process.

Run from the repository root::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 36 --trace 0

The ``lsc`` package is imported from ``src/`` next to this directory; there
is nothing to build.  The run

1. measures set-up (interpreter start, imports, one warm-up call per LAPACK
   routine the workload uses) in fresh child processes, half of them before
   the timed passes and half after, and keeps the median;
2. draws the workload's inputs from ``--seed`` and repeats passes over its
   items for ``--seconds`` (with ``--trace 1``: half untraced, half with
   spans around the public functions of every ``lsc`` module);
3. runs the items the seed commit is known to fail, outside the timed
   passes, reads the peak memory, then checks every output against
   independent references;
4. prints a human summary, writes details to ``.bench_out/`` and prints one
   JSON line with the metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = "1"  # the dense solves are small; one thread is steadier on a shared box
# fresh set-ups per run; a shared machine's speed drifts over seconds, so
# half run before the timed passes and half after, and the median is kept
SETUP_PROBES = 10
ERR_FLOOR = 1e-17  # an exact match reads as 17 digits


# ----------------------------------------------------------------------
# item execution
# ----------------------------------------------------------------------

@dataclass
class Record:
    """What happened to one item during a run."""

    runs: int = 0
    raised: list = field(default_factory=list)
    exit_codes: set = field(default_factory=set)
    seconds: list = field(default_factory=list)
    last: object = None
    status: str = "pending"  # ok | failed | known_failure
    message: str = ""
    errors: list = field(default_factory=list)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_pass(items, records) -> float:
    """Run every item once; an exception is recorded, never propagated."""
    start = time.perf_counter()
    for item in items:
        rec = records[item.name]
        rec.runs += 1
        t0 = time.perf_counter()
        try:
            out = item.call()
        except Exception as exc:  # the run must go on; the item is marked failed
            rec.raised.append(_describe(exc))
            continue
        finally:
            rec.seconds.append(time.perf_counter() - t0)
        rec.last = out
        if isinstance(out, int):
            rec.exit_codes.add(out)
    return time.perf_counter() - start


def timed_passes(items, records, budget: float) -> list[float]:
    """At least one pass; another only if a median-length pass still fits.

    Stopping on a predicted overrun, rather than on the clock alone, keeps a
    fast first pass from buying a second one that a slow first pass would
    not, which would bias runs with few passes.
    """
    times: list[float] = []
    start = time.perf_counter()
    while not times or (time.perf_counter() - start) + statistics.median(times) <= budget:
        times.append(run_pass(items, records))
    return times


def settle(item, rec) -> None:
    """Decide an item's status from its runs and its oracle check.

    An item that raises the exception the seed commit is known to raise is a
    known failure; a fix makes it an ordinary, checked item.
    """
    if rec.raised:
        rec.status, rec.message = "failed", rec.raised[0]
        if item.known_failure is not None:
            kind, message = item.known_failure
            if rec.raised[0].startswith(f"{kind}: {message}"):
                rec.status = "known_failure"
    elif len(rec.exit_codes) > 1:
        rec.status = "failed"
        rec.message = f"exit codes differ between passes: {sorted(rec.exit_codes)}"
    else:
        try:
            rec.errors = [float(e) for e in item.check(rec.last)]
        except Exception as exc:  # a broken output counts as a failed item
            rec.status, rec.message = "failed", _describe(exc)
        else:
            rec.status = "ok"


def run_known_failures(items, records) -> None:
    """Run once, untimed, the items the seed commit fails on."""
    run_pass([item for item in items if item.known_failure is not None], records)


# ----------------------------------------------------------------------
# tracing targets
# ----------------------------------------------------------------------

def _rows(op) -> int:
    return len(op[0]) if isinstance(op, tuple) else int(op.size)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def trace_targets():
    import numpy as np
    from spans import Target

    def solve_work(a, kw, r):
        n = _rows(_arg(a, kw, 0, "op"))
        return {"rows": n, "rows_k": n * int(_arg(a, kw, 1, "k"))}

    def size_of_result(a, kw, r):
        return {"rows": int(r.size)}

    targets = [
        Target("lsc.eigensolve", "eigs_tridiag", "eigensolve.eigs_tridiag", solve_work),
        Target("lsc.eigensolve", "converged_spectrum", "eigensolve.converged_spectrum"),
        Target("lsc.eigensolve", "eigvec_inverse_iteration", "eigensolve.inverse_iteration"),
        Target("lsc.eigensolve", "eigenpairs", "eigensolve.eigenpairs"),
        Target("lsc.eigensolve", "k_smallest_sums", "eigensolve.k_smallest_sums"),
        Target("lsc.eigensolve", "dense_eigvalsh", "eigensolve.dense_eigvalsh",
               lambda a, kw, r: {"rows": int(r.size)}),
        Target("lsc.lattice:SymmetricLatticeOperator", "restrict", "lattice.restrict"),
        Target("lsc.lattice:SymmetricLatticeOperator", "dense", "lattice.dense",
               lambda a, kw, r: {"rows": int(r.shape[0])}),
        Target("lsc.lattice", "double_commutator_norms", "lattice.double_commutator_norms"),
        Target("lsc.potentials", "sample_on_lattice", "potentials.sample",
               lambda a, kw, r: {"points": int(r.size)}),
        Target("lsc.potentials", "validate_assumptions", "potentials.validate"),
        Target("lsc.hermite", "weighted_eval", "hermite.weighted_eval",
               lambda a, kw, r: {"points": int(np.size(_arg(a, kw, 1, "y")))}),
        Target("lsc.hermite", "residual_integral", "hermite.residual_integral"),
        Target("lsc.hermite", "quasimode_apply", "hermite.quasimode_apply"),
        Target("lsc.hermite", "gram_entry", "hermite.gram_entry"),
        Target("lsc.semiclassics", "sigma_enumerate", "semiclassics.sigma_enumerate",
               lambda a, kw, r: {"values": int(r.values.size)}),
        Target("lsc.semiclassics", "levels_HN", "semiclassics.levels_HN"),
        Target("lsc.cli", "main", "cli.main"),
        Target("lsc.cli", "write_csv", "cli.write_csv",
               lambda a, kw, r: {"rows": len(_arg(a, kw, 2, "rows"))}),
        Target("lsc.cli", "write_json", "cli.write_json"),
        Target("lsc.cli", "dump_matrix", "cli.dump_matrix",
               lambda a, kw, r: {"bytes": os.path.getsize(_arg(a, kw, 0, "path"))}),
    ]
    targets += [Target("lsc.eigensolve", name, "eigensolve.certificates")
                for name in ("verify_superharmonic", "subspace_upper_bounds", "rayleigh")]
    targets += [Target("lsc.lattice", name, "lattice.assemble", size_of_result)
                for name in ("assemble_laplacian", "assemble_Hkappa", "assemble_HN",
                             "assemble_modified")]
    targets += [Target("lsc.lattice", name, "lattice.ims")
                for name in ("ims_partition", "ims_identity_residual",
                             "partition_variation", "ims_remainder")]
    # the other public experiment functions; their self time is orchestration
    targets += [Target("lsc.semiclassics", name, "semiclassics")
                for name in ("harmonic_levels", "harmonic_kappa_study", "converge_study",
                             "regime_sweep", "interval_lowerbound_experiment",
                             "modified_vs_plain", "ims_general_experiment")]
    return targets


def layer_metrics(spans, passes: int) -> dict[str, float]:
    from spans import aggregate, child_calls

    out = aggregate(spans, passes)
    calls = out.get("eigensolve.converged_spectrum.calls", 0.0) * passes
    solves = child_calls(spans, "eigensolve.converged_spectrum", "eigensolve.eigs_tridiag")
    out["eigensolve.converged_spectrum.solves_per_call"] = solves / calls if calls else 0.0
    return out


# ----------------------------------------------------------------------
# set-up and environment
# ----------------------------------------------------------------------

# the LAPACK routines each workload's items reach, found by wrapping the
# numpy/scipy entry points the library calls during one pass
WARM_UPS = {
    "ladder": ("gelsd",),
    "certify": ("gbsv", "gesdd", "sygvd"),
    "multiwell": ("syevd",),
}


def set_up(workload: str) -> None:
    """Import the library and make one call per LAPACK routine the workload uses."""
    import numpy as np
    import scipy.linalg

    import lsc  # noqa: F401  (imports every module of the package)
    import lsc.cli  # noqa: F401

    A = np.random.default_rng(0).standard_normal((256, 256))
    A = A + A.T
    ab = np.ones((3, 8))
    ab[1] = 4.0
    calls = {
        "syevd": lambda: np.linalg.eigvalsh(A),
        "gesdd": lambda: np.linalg.cond(A),
        "gelsd": lambda: np.polyfit(np.arange(8.0), np.arange(8.0) ** 2, 1),
        "sygvd": lambda: scipy.linalg.eigh(A[:4, :4], np.eye(4) * 2.0, eigvals_only=True),
        "gbsv": lambda: scipy.linalg.solve_banded((1, 1), ab, np.ones(8)),
    }
    for routine in WARM_UPS[workload]:
        calls[routine]()


def probe_setup(workload: str) -> float:
    """Seconds from launching a fresh interpreter to the end of :func:`set_up`."""
    before = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - before


def blas_threads_in_effect() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: {k: deps.get(key, {}).get(k) for k in
                       ("name", "version", "openblas configuration")}
                 for key in ("blas", "lapack")},
        "blas_threads": blas_threads_in_effect(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def select(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lsc" / "__init__.py").is_file():
        print(f"no lsc package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.probe_setup:
        set_up(args.workload)
        print(repr(time.time()))
        return 0

    setup_samples = [probe_setup(args.workload) for _ in range(SETUP_PROBES // 2)]
    set_up(args.workload)
    import lsc
    import lsc.cli

    import spans
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = workloads.build(args.workload, inputs, lsc, str(workdir))
        records = {item.name: Record() for item in items}
        timed = [item for item in items if item.known_failure is None]

        with contextlib.redirect_stdout(sys.stderr):
            budget = seconds / 2 if args.trace else seconds
            pass_times = timed_passes(timed, records, budget)
            tracer = spans.Tracer()
            traced_times: list[float] = []
            if args.trace:
                modules = [m for name, m in sys.modules.items()
                           if name == "lsc" or name.startswith("lsc.")]
                with spans.Installed(tracer, trace_targets(), modules):
                    traced_times = timed_passes(timed, records, budget)
            setup_samples += [probe_setup(args.workload)
                              for _ in range(SETUP_PROBES - len(setup_samples))]
            # the known failures are the dense fallbacks, so their memory counts
            run_known_failures(items, records)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

            for item in items:
                settle(item, records[item.name])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [name for name, rec in records.items() if rec.status == "failed"]
    not_ok = [name for name, rec in records.items() if rec.status != "ok"]
    errors = [e for rec in records.values() for e in rec.errors]
    max_err = max(errors, default=0.0)
    q1, wall, q3 = quartiles(pass_times)
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - len(not_ok) / len(items),
        "oracle_digits": -math.log10(max(max_err, ERR_FLOOR)),
    }
    layers = {}
    if args.trace:
        layers = layer_metrics(tracer.spans, len(traced_times))
        layers["trace.wall_s"] = statistics.median(traced_times)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        # a layer the workload never enters reads zero
        reported = select(spec["per_layer"], {**dict.fromkeys(
            (m["name"] for m in spec["per_layer"]), 0.0), **layers})
    else:
        reported = select(spec["end_to_end"], e2e)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_samples_s": setup_samples,
        "pass_times_s": pass_times,
        "wall_s": {"median": wall, "q1": q1, "q3": q3, "n": len(pass_times)},
        "traced_pass_times_s": traced_times,
        "fail_frac": len(not_ok) / len(items),
        "oracle_err": max_err,
        "checked_values": len(errors),
        "items": {name: {"status": rec.status, "runs": rec.runs, "message": rec.message,
                         "median_s": statistics.median(rec.seconds) if rec.seconds else None,
                         "checked": len(rec.errors),
                         "max_err": max(rec.errors, default=None)}
                  for name, rec in records.items()},
        "end_to_end": e2e,
        "per_layer": layers,
        # every traced span: (name, parent index, start, duration, self time)
        "spans": [[s.name, s.parent, s.start, s.duration, s.self_time]
                  for s in tracer.spans],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  inputs: "
          f"{ {k: v for k, v in inputs.items() if isinstance(v, float)} }")
    for name, rec in records.items():
        print(f"  {rec.status:14s} {name:28s} runs={rec.runs:<3d} {rec.message}")
    print(f"  wall_s median {wall:.4f} s over {len(pass_times)} passes "
          f"(q1 {q1:.4f}, q3 {q3:.4f}); fail_frac {detail['fail_frac']:.4f}; "
          f"oracle_err {max_err:.2e} over {len(errors)} values")
    for name, m in reported.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  details: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(items),
                      "failed": len(failed), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
