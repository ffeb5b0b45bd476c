"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/stability.py --workloads reproduce-cold,serve-stream \\
        --seeds 1-10 [--out runs.json]

For every workload and end-to-end metric it prints the median over the
runs and the spread: the distance between the first and third quartile
(as ``statistics.quantiles(values, n=4)`` gives them) over the median.
A spread is ``steady`` below a third of the metric's bound in
``BENCHMARK.json`` and ``within`` below the bound itself.  ``--out``
saves every run's result line, so that two sets can be compared with
``--compare A.json B.json``: each metric's second median against the
first, as a share of the first, where positive is worse.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import median, quartile_spread  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {item["name"]: item for item in SPEC["end_to_end"]}


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_set(workloads: list[str], seeds: list[int]) -> dict:
    runs: dict = {}
    for workload in workloads:
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            runs.setdefault(workload, []).append(result)
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
    return runs


def values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def report(runs: dict) -> None:
    for workload, results in runs.items():
        for metric, item in METRICS.items():
            sample = values(results, metric)
            spread = quartile_spread(sample)
            verdict = ("steady" if spread < item["bound"] / 3 else
                       "within" if spread <= item["bound"] else "OVER")
            print(f"{workload:16s} {metric:14s} median {median(sample):12.4f}"
                  f"  spread {spread:.4f}  bound {item['bound']:.2f}  "
                  f"{verdict}")


def compare(first: dict, second: dict) -> None:
    for workload in first:
        for metric, item in METRICS.items():
            a = median(values(first[workload], metric))
            b = median(values(second[workload], metric))
            worse = (b - a) / a if item["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= item["bound"] else "WORSE"
            print(f"{workload:16s} {metric:14s} {a:12.4f} -> {b:12.4f}  "
                  f"{worse:+.4f}  {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="save the result lines here")
    parser.add_argument("--compare", nargs=2, metavar="SET",
                        help="compare two saved sets instead of running")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text())
                         for p in args.compare)
        compare(first, second)
        return 0
    runs = run_set(args.workloads.split(","), seeds_of(args.seeds))
    if args.out:
        Path(args.out).write_text(json.dumps(runs), encoding="utf-8")
    report(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
