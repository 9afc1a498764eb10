"""Record the benchmark's end-to-end metrics, parent against change, in a BENCH JSON file.

Run from the repository root, with a second checkout of the commit to compare
against:

    python3 tools/bench_record.py --parent ../parent --pairs 10 --output BENCH_7.json

Each pair runs ``perfbench/run.py`` (seed 0, ``--trace 0``, the run length of
``BENCHMARK.json``) on every workload of ``BENCHMARK.json``, once in the parent
checkout and once in this one. The side that goes first flips from pair to
pair, so host drift falls on both. The file keeps every run's
``correct``/``failed`` flags and end-to-end metrics, the per-side medians and
interquartile ranges, the change/parent ratio of those medians, the number of
pairs in which the change did better on each metric (in the direction
``BENCHMARK.json`` names), the metrics whose change median is worse than the
parent's by more than their ``bound`` (``outside_bound``, also printed), each
side's commit, ``src/`` digest and ``src/`` line count, and the host note that
``perfbench`` writes to ``.perfbench_out/``. A run that reports ``correct:
false`` or ``failed > 0`` is still recorded, but the script names each such
run (pair, workload, side) and exits non-zero, since ``perfbench/run.py``
itself exits 0 then. Needs only the standard library;
``perfbench`` itself needs numpy, scipy and click.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 0


def describe(checkout: Path) -> dict:
    """The checkout's commit (``-dirty`` for uncommitted edits), a digest of ``src/`` and its
    line count (newlines over ``src/**/*.py``, as ``wc -l`` counts them)."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=checkout, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    digest, lines = hashlib.sha256(), 0
    for path in sorted((checkout / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def run_once(checkout: Path, workload: str, seconds: float):
    """One ``perfbench`` run: its summary line and the environment it recorded."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_record: {' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = checkout / ".perfbench_out" / f"{workload}-seed{SEED}-trace0.json"
    env = json.loads(results.read_text())["environment"]
    run = {"correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
           "metrics": {name: m["value"] for name, m in line["metrics"].items()}}
    return run, env


def iqr(values) -> float:
    """Q3 - Q1, interpolated as ``statistics.quantiles(method="inclusive")`` (and
    numpy's default ``percentile``) do; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(by_side: dict, better: dict, bound: dict | None = None) -> dict:
    """One workload's record from its ``{"parent": runs, "change": runs}``.

    Run ``i`` of each side makes pair ``i``. ``better`` maps a metric to
    ``"lower"`` or ``"higher"``; ``change_wins`` counts the pairs in which the
    change was strictly better, so a tie is no win. ``bound`` maps a metric to
    the fraction of the parent median by which the change median may be worse;
    ``outside_bound`` lists each metric worse by more, in the runs' metric order.
    """
    bound = bound or {}
    values = {side: {name: [r["metrics"][name] for r in runs] for name in runs[0]["metrics"]}
              for side, runs in by_side.items()}
    median = {side: {name: statistics.median(v) for name, v in m.items()}
              for side, m in values.items()}
    wins, outside = {}, []
    for name, sign in ((n, 1 if better.get(n) == "higher" else -1) for n in values["change"]):
        pairs = zip(values["parent"][name], values["change"][name])
        wins[name] = sum(sign * (c - p) > 0 for p, c in pairs)
        parent = median["parent"][name]
        if name in bound and sign * (parent - median["change"][name]) > bound[name] * abs(parent):
            outside.append(name)
    return {
        **{side: {"runs": runs, "median": median[side],
                  "iqr": {name: iqr(v) for name, v in values[side].items()}}
           for side, runs in by_side.items()},
        "change_over_parent": {name: v / median["parent"][name] if median["parent"][name] else None
                               for name, v in median["change"].items()},
        "change_wins": wins,
        "outside_bound": outside,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the commit to compare with")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--output", required=True, type=Path)
    args = p.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = [("parent", args.parent.resolve()), ("change", Path.cwd())]

    runs = {w["name"]: {side: [] for side, _ in sides} for w in spec["workloads"]}
    env = None
    incorrect = []
    for pair in range(args.pairs):
        for workload, by_side in runs.items():
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                run, env = run_once(checkout, workload, seconds)
                by_side[side].append(run)
                if not run["correct"] or run["failed"] > 0:
                    incorrect.append(f"pair {pair} {workload} {side}: correct {run['correct']}, "
                                     f"failed {run['failed']} of {run['attempted']}")
                print(f"pair {pair} {workload} {side}: correct {run['correct']}, "
                      f"latency_s_p50 {run['metrics']['latency_s_p50']:.3f}", flush=True)

    record = {
        "command": f"perfbench/run.py --workload <w> --seed {SEED} --seconds {seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "sides": {side: describe(checkout) for side, checkout in sides},
        "host": {k: env[k] for k in ("note", "nproc", "machine", "python", "numpy", "scipy")},
        "workloads": {},
    }
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, by_side in runs.items():
        record["workloads"][workload] = summarise(by_side, better, bound)
    args.output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for workload, rec in record["workloads"].items():
        for name in better:
            print(f"{workload} {name}: parent {rec['parent']['median'][name]:.4g} "
                  f"(IQR {rec['parent']['iqr'][name]:.3g}), change {rec['change']['median'][name]:.4g} "
                  f"(IQR {rec['change']['iqr'][name]:.3g}), change better in "
                  f"{rec['change_wins'][name]}/{args.pairs} pairs")
        print(f"{workload} outside bound: {', '.join(rec['outside_bound']) or 'none'}")
    print(f"wrote {args.output}")
    if incorrect:
        print("\n".join(incorrect), file=sys.stderr)
        sys.exit(f"bench_record: {len(incorrect)} run(s) above were incorrect or had failures; "
                 f"their metrics are in {args.output}'s medians")


if __name__ == "__main__":
    main()
