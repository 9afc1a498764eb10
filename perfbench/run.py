"""Benchmark of the scribsup toolkit: one closed-loop workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload pseudolabel_224 --seed 0 --seconds 15 --trace 0

One client runs units back to back; the next unit starts after the previous
one finished and was checked. Untimed, checked warm-up units come first
where a workload needs them. Inputs are phantoms generated from ``--seed``.
With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics, measured on traced units that alternate with untraced
ones. Details (environment, phantom parameters, per-unit digests, spans) go
to ``.perfbench_out/``. ``--write-golden`` (seed 0 only) stores the run's
outputs as the golden that later runs on seed 0 must match.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
COMPUTED = ("refnet.forward.gmacs", "supervoxel.window_evals")


def prepare_environment() -> int:
    """Put the checkout's ``src`` first on the path and cap BLAS threads at nproc.

    Must run before numpy is imported.
    """
    if not (ROOT / "src" / "scribsup" / "__init__.py").is_file():
        sys.exit(f"perfbench: {ROOT / 'src' / 'scribsup'} not found; run from the repository root")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        threads = min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    return nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true")
    return p.parse_args(argv)


def run_unit(wl, u, golden, tracer=None):
    """Run unit ``u`` and check it; a unit whose run or check raises has failed.

    Only the run is timed. With a ``tracer``, the unit's spans are recorded.
    """
    if tracer is not None:
        tracer.unit = u
    start = time.perf_counter()
    try:
        rec, errors = wl.unit(u), []
    except Exception as exc:  # a raising unit is a failed unit; keep measuring
        rec, errors = None, [f"raised {type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.unit = None
    if rec is not None:
        try:
            errors = wl.check(u, rec, golden)
        except Exception as exc:
            errors = [f"check raised {type(exc).__name__}: {exc}"]
    return {"unit": u, "latency_s": latency, "traced": tracer is not None, "errors": errors,
            "record": rec}


def run_units(wl, seconds, tracer, golden):
    """Closed loop: run and check units until ``seconds`` of unit time elapsed.

    The clock only runs inside units, so checks between units cost nothing.
    A traced run alternates untraced (odd) and traced (even) units and runs
    at least one of each.
    """
    units, busy, u = [], 0.0, 0
    while busy < seconds or (tracer is not None and u < 2):
        u += 1
        units.append(run_unit(wl, u, golden, tracer if tracer is not None and u % 2 == 0 else None))
        busy += units[-1]["latency_s"]
    return units


def layer_metrics(tracer, units, untraced_p50):
    """Per-unit layer numbers of the traced units, plus rates and trace overhead."""
    layer = tracer.per_unit({x["unit"] for x in units if x["traced"]})
    for count, busy in (("supervoxel.window_evals", "supervoxel.slic3d.busy_s"),
                        ("refnet.forward.gmacs", "refnet.forward.busy_s")):
        layer[f"{count}_per_s"] = layer.get(count, 0.0) / layer[busy] if layer.get(busy) else 0.0
    traced_p50 = statistics.median(x["latency_s"] for x in units if x["traced"])
    if untraced_p50:
        layer["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50
    return layer


def main(argv=None):
    args = parse_args(argv)
    nproc = prepare_environment()

    import numpy
    import scipy

    import scribsup
    from scribsup import refnet

    import opcounts
    import phantom
    import spans
    import workloads

    if not Path(scribsup.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: imported scribsup from {scribsup.__file__}, not from {ROOT / 'src'}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if args.write_golden and args.seed != DEFAULT_SEED:
        sys.exit(f"perfbench: --write-golden needs --seed {DEFAULT_SEED}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = None
    if args.seed == DEFAULT_SEED and not args.write_golden:
        golden = golden_all.get(args.workload)
        if golden is None:
            sys.exit(f"perfbench: no golden for {args.workload} in {GOLDEN}")

    wl = workloads.WORKLOADS[args.workload]()
    workdir = OUT / "work" / wl.name
    setup_times = []
    for _ in range(wl.setup_repeats):
        start = time.perf_counter()
        wl.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
    # Untimed units before the measured phase: the first forward call in a
    # process is slower than later ones, and a stream's pseudo_dice and golden
    # check must cover every input however many measured units fit.
    warmup = [run_unit(wl, u, golden) for u in wl.warmup_units]

    tracer = None
    if args.trace:
        opcounts.self_check(refnet.NetConfig(num_classes=phantom.NUM_CLASSES))
        tracer = spans.Tracer()
        tracer.install()
    try:
        units = run_units(wl, args.seconds, tracer, golden)
    finally:
        if tracer is not None:
            tracer.uninstall()

    checked = warmup + units
    failed = sum(1 for x in checked if x["errors"])
    ok = [x for x in units if not x["errors"]]
    untraced = [x["latency_s"] for x in ok if not x["traced"]]
    outcomes = {}  # input volume -> outcome of its first passing unit
    for x in checked:
        for key, outcome in ((x["record"] or {}).get("outcomes") or {}).items():
            outcomes.setdefault(key, outcome)
    values = {
        "setup_s": statistics.median(setup_times),
        "latency_s_p50": statistics.median(untraced) if untraced else 0.0,
        "volumes_per_s": wl.volumes_per_unit * len(ok) / sum(x["latency_s"] for x in units),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pseudo_dice": statistics.fmean(o["pseudo_dice"] for o in outcomes.values())
        if outcomes and not failed else 0.0,
    }
    if tracer is not None:
        values.update(layer_metrics(tracer, units, values["latency_s_p50"]))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                for m in section}

    correct = failed == 0
    size = "x".join(str(n) for n in wl.shape)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    results = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
        "input_size": size,
        "environment": {
            "nproc": nproc,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "worker_pools": 0,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "note": f"timings come from a shared {nproc}-core sandbox; compare runs of one machine",
        },
        "inputs": wl.params,
        "setup_times_s": setup_times,
        "units": [
            {k: v for k, v in x.items() if k != "record"}
            | {"phase": phase, "outcomes": (x["record"] or {}).get("outcomes")}
            for phase, group in (("warmup", warmup), ("measured", units)) for x in group
        ],
        "attempted": len(checked),
        "failed": failed,
        "failed_frac": failed / len(checked),
        "metrics": reported,
        "computed_not_measured": list(COMPUTED),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(results, indent=1, sort_keys=True))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    if args.write_golden:
        golden_all[wl.name] = {k: workloads.golden_entry(o) for k, o in outcomes.items()}
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")

    print(f"workload {wl.name}: input {size} voxels, closed loop, one client, seed {args.seed}")
    for phase, group in (("warm-up", warmup), ("measured", units)):
        for x in group:
            for err in x["errors"]:
                print(f"{phase} unit {x['unit']} failed: {err}")
    print(f"failed_frac {failed / len(checked):.4f} ({failed} of {len(checked)} attempted units: "
          f"{len(warmup)} warm-up, {len(units)} measured)")
    n_lat = len(untraced)
    for name, m in reported.items():
        note = f" (n={n_lat})" if name == "latency_s_p50" else ""
        note += f" (input {size})" if name == "volumes_per_s" else ""
        note += " (computed)" if name in COMPUTED else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"results in {OUT / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": len(checked), "failed": failed,
                      "metrics": reported}))


if __name__ == "__main__":
    main()
