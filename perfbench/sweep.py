"""Run every workload over several seeds and write one results file.

Run from the repository root::

    python3 perfbench/sweep.py --label seed --seeds 10 --out perfbench/results/seed.json

Seeds ``1..N`` run untraced for every workload, interleaved so that a slow
spell of the machine spreads over all workloads; then one traced run per
workload gives the per-layer metrics.  For every end-to-end metric the file
records the values, their median and quartiles, and the spread
``(q3 - q1) / median`` next to the metric's bound.  ``compare.py`` reads
two such files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "fail_frac": detail["fail_frac"],
        "oracle_err": detail["oracle_err"],
        "passes": len(detail["pass_times_s"]),
        "items": {k: v["status"] for k, v in detail["items"].items()},
        "environment": detail["environment"],
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    runs: dict[str, list] = {w: [] for w in names}
    start = time.time()
    for seed in seeds:
        for w in names:
            runs[w].append(run_once(w, seed, spec["run_seconds"], 0))
            m = runs[w][-1]["metrics"]
            print(f"[{time.time() - start:7.1f}s] {w:10s} seed {seed:3d} "
                  + "  ".join(f"{k}={v:.5g}" for k, v in m.items()), flush=True)

    out = {"label": args.label, "run_seconds": spec["run_seconds"],
           "end_to_end": spec["end_to_end"], "workloads": {}}
    for w in names:
        entry = {"runs": runs[w], "summary": {}}
        print(f"\n{w}: correct in {sum(r['correct'] for r in runs[w])}/{len(seeds)} runs")
        for metric in spec["end_to_end"]:
            s = summarize([r["metrics"][metric["name"]] for r in runs[w]])
            entry["summary"][metric["name"]] = s
            flag = "" if s["spread"] < metric["bound"] / 3 else "  <-- spread above bound/3"
            print(f"  {metric['name']:14s} median {s['median']:.5g} {metric['unit']:6s} "
                  f"spread {s['spread']:.4f} (bound {metric['bound']}){flag}")
        entry["per_layer"] = run_once(w, seeds[0], spec["run_seconds"], 1)["metrics"]
        out["workloads"][w] = entry
    out["environment"] = runs[names[0]][0]["environment"]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"\nwrote {args.out} after {time.time() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
