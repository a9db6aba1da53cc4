"""Tests of the benchmark harness itself (no ``lsc`` import needed)."""

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import spans
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    outer = tracer.open("outer", "a")
    clock.now = 1.0
    inner = tracer.open("inner", "b")
    clock.now = 3.0
    leaf = tracer.open("leaf", "c")
    clock.now = 3.5
    tracer.close(leaf)
    clock.now = 4.0
    tracer.close(inner)
    second = tracer.open("inner", "b")
    clock.now = 6.0
    tracer.close(second)
    clock.now = 10.0
    tracer.close(outer)

    by_name = {(s.name, s.start): s for s in tracer.spans}
    assert by_name[("outer", 0.0)].duration == 10.0
    assert by_name[("outer", 0.0)].self_time == 10.0 - 3.0 - 2.0
    assert by_name[("inner", 1.0)].self_time == 3.0 - 0.5
    assert by_name[("leaf", 3.0)].self_time == 0.5
    totals = spans.aggregate(tracer.spans, passes=1)
    assert totals["b.calls"] == 2
    assert totals["b.self_s"] == 2.5 + 2.0
    assert sum(v for k, v in totals.items() if k.endswith("self_s")) == 10.0
    assert spans.child_calls(tracer.spans, "outer", "inner") == 2
    assert spans.child_calls(tracer.spans, "outer", "leaf") == 0


def test_span_closed_out_of_order_is_an_error():
    tracer = spans.Tracer(FakeClock())
    first = tracer.open("a", "a")
    tracer.open("b", "b")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def test_wrapper_sees_internal_calls_and_restores_originals():
    import types
    import sys

    mod = types.ModuleType("lsc_fake_for_test")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def outer(x):\n    return leaf(x) * 2\n",
        mod.__dict__,
    )
    sys.modules[mod.__name__] = mod
    try:
        original = mod.leaf
        tracer = spans.Tracer()
        targets = [spans.Target(mod.__name__, "leaf", "leaf",
                                lambda a, kw, r: {"values": r})]
        with spans.Installed(tracer, targets, [mod]):
            assert mod.outer(1) == 4
        assert mod.leaf is original
        assert [s.name for s in tracer.spans] == ["lsc_fake_for_test.leaf"]
        assert tracer.spans[0].work == {"values": 2}
    finally:
        del sys.modules[mod.__name__]


def test_oracle_flags_a_perturbed_eigenvalue():
    n = 700  # above DENSE_MAX, so the stemr route is exercised
    x = np.linspace(-1.0, 1.0, n)
    diag, off = 2.0 * x * x + 0.5, -np.full(n - 1, 0.7)
    exact = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[:4]
    ref = oracles.tridiag_lowest(diag, off, 4)
    assert max(oracles.compare("exact", exact, ref, oracles.TOL_1D)) < 1e-12
    perturbed = exact.copy()
    perturbed[2] *= 1.0 + 1e-8
    with pytest.raises(oracles.CheckFailed):
        oracles.compare("perturbed", perturbed, ref, oracles.TOL_1D)
    with pytest.raises(oracles.CheckFailed):
        oracles.compare("nan", [np.nan] * 4, ref, oracles.TOL_1D)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_regenerates_identical_inputs(workload):
    def flat(inputs):
        return json.dumps(inputs, default=lambda a: np.asarray(a).tolist(), sort_keys=True)

    assert flat(workloads.make_inputs(workload, 7)) == flat(workloads.make_inputs(workload, 7))
    assert flat(workloads.make_inputs(workload, 7)) != flat(workloads.make_inputs(workload, 8))


def test_raised_exception_is_a_failure_and_the_run_goes_on():
    def boom():
        raise MemoryError("too big")

    items = [workloads.Item("boom", boom, lambda out: []),
             workloads.Item("fine", lambda: 0, lambda out: [1e-15]),
             workloads.Item("wrong", lambda: 0, lambda out: oracles.compare(
                 "wrong", [1.0], [2.0], oracles.TOL_1D))]
    records = {item.name: run.Record() for item in items}
    run.run_pass(items, records)
    run.run_pass(items, records)
    for item in items:
        run.settle(item, records[item.name])
    assert records["boom"].status == "failed"
    assert records["boom"].message == "MemoryError: too big"
    assert records["fine"].status == "ok" and records["fine"].runs == 2
    assert records["wrong"].status == "failed"


def test_known_failure_is_counted_only_when_it_matches():
    def cap():
        raise MemoryError("capped at 4096 points; requested 6241")

    same = workloads.Item("same", cap, lambda out: [], ("MemoryError", "capped at 4096"))
    other = workloads.Item("other", cap, lambda out: [], ("MemoryError", "different"))
    fixed = workloads.Item("fixed", lambda: 0, lambda out: [], ("MemoryError", "capped"))
    records = {name: run.Record() for name in ("same", "other", "fixed")}
    run.run_known_failures([same, other, fixed], records)
    for item in (same, other, fixed):
        run.settle(item, records[item.name])
    assert records["same"].status == "known_failure"
    assert records["other"].status == "failed"
    assert records["fixed"].status == "ok"


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    groups = {t.group for t in run.trace_targets()}
    for metric in spec["per_layer"]:
        prefix = metric["name"].rsplit(".", 1)[0]
        assert prefix in groups or prefix == "trace", metric["name"]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "peak_rss_mb", "ok_frac", "oracle_digits"]


def test_ritz_oracle_is_exact_on_an_invariant_subspace():
    n = 40
    diag, off = np.linspace(1.0, 3.0, n), -np.full(n - 1, 0.5)
    values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    theta, resid = oracles.ritz_values(diag, off, vectors[:, :3] @ np.triu(np.ones((3, 3))))
    assert max(oracles.compare("ritz", theta, values[:3], oracles.TOL_1D)) < 1e-13
    assert resid < 1e-13


def test_regime_ground_state_below_the_kink_keeps_its_digits():
    # the ground state sits far below the operator's norm, so its relative
    # error grows with the box; the regimes check fits log E to 1e-8 in slope
    omega, N = 1.25, 64
    diag, off = oracles.hn_1d(oracles.harmonic(omega), N, -2.0, 4)
    want = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0]
    got = oracles.regime_energies(omega, -2.0, N, 3)[0]
    assert abs(got - want) / want < 1e-9
