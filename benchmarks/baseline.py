"""Measure the benchmark's baseline: every workload over several seeds, plus a traced run.

    python3 benchmarks/baseline.py --out benchmarks/baseline.json

Seeds run in the outer loop and workloads in the inner one, so slow and
fast periods of a shared machine fall on every workload alike. For each
workload and end-to-end metric it stores the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(q3 - q1) / median, and flags a spread above a third of the metric's
bound in BENCHMARK.json. One traced run per workload (seed 0) gives the
per-layer numbers and the ratios derived from them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = 10


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, list]:
    """One benchmark run: its JSON result and the table lines printed before it."""
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def table_ratios(lines: list, metrics: dict) -> dict:
    """The ratios a traced run prints in its table only: name -> value, None where undefined."""
    ratios = {}
    for line in lines:
        name, _, rest = line.partition(" ")
        shown = rest.split()[:1]
        if "." in name and name not in metrics and shown:
            ratios[name] = None if shown[0] == "null" else float(shown[0])
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    values = {w: {name: [] for name in bounds} for w in workloads}
    raw = {w: {} for w in workloads}
    checks = {w: {"attempted": 0, "failed": 0} for w in workloads}
    environment = None
    for seed in range(SEEDS):
        for workload in workloads:
            doc, lines = run_once(workload, seed, 0)
            environment = next(json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("environment:"))
            checks[workload]["attempted"] += doc["attempted"]
            checks[workload]["failed"] += doc["failed"]
            for name in bounds:
                values[workload][name].append(doc["metrics"][name]["value"])
            # times before scaling to reference speed, from the table notes
            for line in lines:
                if "raw median" in line:
                    seconds = float(line.split("raw median")[1].split()[0])
                    raw[workload].setdefault(line.split()[0], []).append(seconds)
            print(f"seed {seed} {workload}: " + ", ".join(f"{k} {v[-1]:.4g}" for k, v in values[workload].items()),
                  flush=True)

    result = {"environment": environment, "run_seconds": SPEC["run_seconds"], "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in workloads:
        traced, lines = run_once(workload, 0, 1)
        end_to_end = {name: summarise(v) for name, v in values[workload].items()}
        result["workloads"][workload] = {
            "end_to_end": end_to_end,
            "raw_seconds": {name: summarise(v) for name, v in raw[workload].items()},
            "checks": checks[workload],
            "per_layer_seed0": {name: m["value"] for name, m in traced["metrics"].items()},
            "ratios_seed0": table_ratios(lines, traced["metrics"]),
        }
        ok = ok and checks[workload]["failed"] == 0
        ratios = result["workloads"][workload]["ratios_seed0"]
        print(f"{workload:9s} traced: step {ratios['operators.step.share']:.1%} and cfl_limit "
              f"{ratios['spectral.cfl_limit.share']:.1%} of cli.main time, tracing overhead "
              f"{traced['metrics']['trace.overhead_frac']['value']:+.3f}")
        for name, summary in end_to_end.items():
            line = f"{workload:9s} {name:12s} median {summary['median']:.5g} spread {summary['spread']:.4f}"
            if summary["spread"] > bounds[name] / 3:
                line += f"  SPREAD ABOVE bound/3 = {bounds[name] / 3:.4f}"
                ok = False
            print(line)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
