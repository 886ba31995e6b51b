"""Tests of the benchmark itself: contract, accounting, self-test.

Run from the repository root with ``python3 -m pytest perfbench -q``
(the repository's own suite collects only ``tests/``).  The
end-to-end cases start the benchmark as a subprocess on short runs.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def bench(workload, seed, seconds, trace=0, *extra, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    return out


def test_benchmark_json_follows_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert BOUND["setup_s"] == max(BOUND.values())


def test_workloads_match_scenarios():
    sys.path.insert(0, str(ROOT / "src"))
    import scenarios

    assert WORKLOADS == list(scenarios.WORKLOADS)
    for name, w in scenarios.WORKLOADS.items():
        assert w.config.executor_threads == 0
    assert any(w.fixed_rps for w in scenarios.WORKLOADS.values())


# name, start, end, parent, req_id, units
RECORDED = [
    ["service.batch", 0, 100, -1, None, 0],
    ["sieve.query", 10, 80, 0, None, 64],
    ["sieve.match_all", 20, 50, 1, None, 64],
    ["sieve.load_query_batch", 50, 60, 1, None, 64],
    ["service.submit", 120, 130, -1, 7, 1],
]


def test_self_times_subtract_direct_children():
    st = spans.self_times(RECORDED)
    assert st["service.batch"]["self_ns"] == 30
    assert st["sieve.query"]["self_ns"] == 30
    assert st["sieve.match_all"]["self_ns"] == 30
    assert spans.top_level_ns(RECORDED) == 110
    assert spans.accounting_errors(RECORDED, [(0, 100), (110, 140)]) == []


@pytest.mark.parametrize(
    "change, windows, error",
    [
        # a root span ending after its window closes
        (None, [(0, 100), (110, 125)], "outside every measured window"),
        # a root span before the first window opens
        (None, [(5, 100), (110, 140)], "outside every measured window"),
        # two root spans covering the same time
        (["loop.idle", 90, 115, -1, None, 0], [(0, 140)], "overlaps"),
        # a child outlasting its parent
        (["sieve.match_all", 70, 90, 1, None, 64], [(0, 140)], "outside its parent"),
    ],
)
def test_accounting_fails_when_spans_do_not_tile_the_windows(change, windows, error):
    recorded = [list(span) for span in RECORDED] + ([change] if change else [])
    errors = spans.accounting_errors(recorded, windows)
    assert any(error in e for e in errors), errors


def test_recorder_rejects_out_of_order_close():
    rec = spans.SpanRecorder()
    outer = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def test_windowed_p99_uses_ten_samples_beyond():
    values = list(range(1, 2501))
    # windows 1..1000 and 1001..2500 (the short tail folds in)
    assert run.windowed_p99(values) == statistics.median([990, 2485])
    assert run.percentile([5.0], 99) == 5.0


def test_scale_takes_host_time_to_reference_speed():
    ref = speed.REFERENCE_PROBE_S
    # A host twice as slow as the reference halves its measured times.
    assert speed.scale_of([2 * ref, 2 * ref]) == pytest.approx(0.5)
    assert speed.scale_of([ref, 3 * ref]) == pytest.approx(0.5)
    assert speed.probe_s() > 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 1, 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_to_time_under_sanitizer():
    env = dict(os.environ, SIEVE_SANITIZE="1")
    proc = bench(WORKLOADS[0], 1, 1, env=env)
    assert proc.returncode == 2 and '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_report_every_metric_and_counters_match_under_tracing(workload):
    untraced = result(bench(workload, 5, 2))
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    # The traced run fails itself when counters drift between its
    # untraced and traced passes or span times do not add up to wall.
    traced = result(bench(workload, 5, 2, 1))
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def _paired_changes(workload, seeds, seconds, *extra):
    """Per metric, the median over seeds of how much worse the ``extra``
    run is than the plain run of the same seed.  The two runs of a pair
    go back to back, in alternating order, so host-speed drift hits
    both sides alike."""
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    changes = {name: [] for name in better}
    for i, seed in enumerate(seeds):
        order = ((), extra) if i % 2 == 0 else (extra, ())
        runs = {
            args: result(bench(workload, seed, seconds, 0, *args))["metrics"]
            for args in order
        }
        for name in better:
            base, other = runs[()][name]["value"], runs[extra][name]["value"]
            change = (other - base) / base
            changes[name].append(change if better[name] == "lower" else -change)
    return {name: statistics.median(v) for name, v in changes.items()}


def test_instrument_sees_a_slower_sieve_only_where_sieve_runs():
    seeds = (31, 32, 33, 34)
    slow = ("--slow-sieve", "1.5")
    worse = _paired_changes("classify_device_skewed", seeds, 4, *slow)
    assert worse["ns_per_kmer"] > BOUND["ns_per_kmer"]
    worse = _paired_changes("classify_host_open", seeds, 8, *slow)
    for metric, bound in BOUND.items():
        assert worse[metric] <= bound, (metric, worse[metric])
