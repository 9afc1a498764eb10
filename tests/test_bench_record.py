import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0, 10.0], [5.0, 5.0], list(range(10)),
                                    [0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.5]])
def test_iqr_matches_numpy_linear_percentiles(values):
    want = np.percentile(values, 75) - np.percentile(values, 25)
    assert bench_record.iqr(values) == pytest.approx(want, abs=1e-12)


def test_iqr_of_one_value_is_zero():
    assert bench_record.iqr([4.2]) == 0.0


def _runs(**metrics):
    n = len(next(iter(metrics.values())))
    return [{"metrics": {name: v[i] for name, v in metrics.items()}} for i in range(n)]


def test_summarise_counts_strict_pair_wins_in_each_direction():
    by_side = {
        "parent": _runs(peak_rss_mib=[500, 510, 505, 400], volumes_per_s=[1.0, 2.0, 3.0, 4.0],
                        pseudo_dice=[0.7] * 4),
        "change": _runs(peak_rss_mib=[460, 470, 505, 420], volumes_per_s=[1.5, 1.0, 3.0, 5.0],
                        pseudo_dice=[0.7] * 4),
    }
    better = {"peak_rss_mib": "lower", "volumes_per_s": "higher", "pseudo_dice": "higher"}
    rec = bench_record.summarise(by_side, better)
    # pair 2 ties on both: a tie is no win
    assert rec["change_wins"] == {"peak_rss_mib": 2, "volumes_per_s": 2, "pseudo_dice": 0}
    assert rec["parent"]["median"]["peak_rss_mib"] == 502.5
    assert rec["change"]["median"]["peak_rss_mib"] == 465.0
    assert rec["parent"]["iqr"]["pseudo_dice"] == 0.0
    assert rec["change_over_parent"]["peak_rss_mib"] == pytest.approx(465.0 / 502.5)
    assert rec["parent"]["runs"] is by_side["parent"]


def test_summarise_lists_each_metric_outside_its_bound_in_its_better_direction():
    by_side = {
        "parent": _runs(latency_s_p50=[2.0, 2.0, 2.0], volumes_per_s=[1.0, 1.0, 1.0],
                        peak_rss_mib=[100.0] * 3, pseudo_dice=[0.8] * 3),
        "change": _runs(latency_s_p50=[2.49, 2.49, 2.49], volumes_per_s=[0.74, 0.74, 0.74],
                        peak_rss_mib=[50.0] * 3, pseudo_dice=[0.9] * 3),
    }
    better = {"latency_s_p50": "lower", "volumes_per_s": "higher", "peak_rss_mib": "lower",
              "pseudo_dice": "higher"}
    bound = {"latency_s_p50": 0.25, "volumes_per_s": 0.25, "peak_rss_mib": 0.1, "pseudo_dice": 0.1}
    # latency is 24.5 % worse (inside 25 %), volumes_per_s 26 % worse (outside); the
    # other two moved by more than their bounds, but in their better direction
    assert bench_record.summarise(by_side, better, bound)["outside_bound"] == ["volumes_per_s"]
    assert bench_record.summarise(by_side, better)["outside_bound"] == []


def test_main_records_then_fails_on_incorrect_or_failed_runs(tmp_path, monkeypatch, capsys):
    metrics = ["latency_s_p50", "peak_rss_mib"]
    spec = {"run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": [{"name": n, "better": "lower", "bound": 0.25} for n in metrics]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    bad = {("a", "change", 1): {"correct": False}, ("b", "parent", 0): {"failed": 2}}
    calls = []

    def fake_run_once(checkout, workload, seconds):
        side = "change" if checkout == tmp_path else "parent"
        pair = sum(c == (workload, side) for c in calls)
        calls.append((workload, side))
        run = {"correct": True, "attempted": 3, "failed": 0, "metrics": dict.fromkeys(metrics, 1.0)}
        run.update(bad.get((workload, side, pair), {}))
        env = dict.fromkeys(("note", "nproc", "machine", "python", "numpy", "scipy"), "x")
        return run, env

    monkeypatch.setattr(bench_record, "run_once", fake_run_once)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", str(tmp_path / "parent"), "--pairs", "2", "--output", str(out)])
    assert exc.value.code not in (0, None)
    record = json.loads(out.read_text())
    assert record["workloads"]["a"]["change"]["runs"][1]["correct"] is False
    assert record["workloads"]["b"]["parent"]["runs"][0]["failed"] == 2
    assert [record["workloads"][w]["outside_bound"] for w in "ab"] == [[], []]
    named = [line for line in capsys.readouterr().err.splitlines() if line.startswith("pair ")]
    assert named == ["pair 0 b parent: correct True, failed 2 of 3", "pair 1 a change: correct False, failed 0 of 3"]
