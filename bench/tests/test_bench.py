"""Self-tests of the benchmark: a small-config smoke of each workload.

Run from the repository root:  python3 -m pytest bench/tests -q

The smoke runs go through the same child processes as the benchmark. The call
counts of the traced runs must equal the counts the config implies; a wrapper
that missed one of a function's name bindings breaks them.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMALL_CLUSTER = {"perplexity": 5.0, "tsne_iters": 100}
SMALL = {
    "paper600": {"cohort": {"n_stays": 150}, "model": {"epochs": 2},
                 "cluster": SMALL_CLUSTER, "evaluate": {"outer_folds": 2}},
    "cohort1500": {"cohort": {"n_stays": 150}, "cluster": SMALL_CLUSTER,
                   "evaluate": {"outer_folds": 2}},
    "nestedcv": {"cohort": {"n_stays": 120}, "model": {"epochs": 1},
                 "evaluate": {"outer_folds": 2}},
}


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """(untraced, traced) summaries of one small-config workload, seed 1."""
    name = request.param
    return name, tuple(run.run_workload(name, 1, 0.0, trace, SMALL[name])
                       for trace in (False, True))


def test_every_metric_printed_with_unit(runs):
    name, (plain, traced) = runs
    for summary, kind, trace in ((plain, "end_to_end", False), (traced, "per_layer", True)):
        assert summary["correct"], summary["checks"]
        names = [m["name"] for m in SPEC[kind]]
        result = run.result_json(summary, names)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(names)
        lines = run.report_lines(summary, trace)
        for metric in names:
            unit = result["metrics"][metric]["unit"]
            assert any(line.startswith(f"{name} {metric} = ") and line.endswith(f" {unit}")
                       for line in lines), metric
    assert plain["metrics"]["setup_s"] > 0 and plain["setup_samples"] >= run.SETUP_SAMPLES
    assert 0 <= traced["metrics"]["trace_overhead_frac"] < 0.5


def test_traced_call_counts_match_config(runs):
    name, (_, traced) = runs
    m, n = traced["metrics"], traced["n_labeled"]
    cfg = SMALL[name]
    outer = cfg["evaluate"]["outer_folds"]
    if name == "paper600":
        assert m["autodiff.backward.calls"] == cfg["model"]["epochs"] * math.ceil(n / 32)
    if name == "cohort1500":
        assert m["autodiff.backward.calls"] == 0
        assert m["nn.Adam.step.s"] == 0
    if name in ("paper600", "cohort1500"):
        assert m["cohort.read_cohort.calls"] == 6
        assert m["features.summarize_for_baselines.calls"] == n + outer * n
    if name == "nestedcv":
        assert m["cohort.read_cohort.calls"] == 2
        assert m["features.summarize_for_baselines.calls"] == 2 * outer * n
        assert m["features.prepare_stays.calls"] == 2 * outer * 3
    for metric, want in traced["expected_counts"].items():
        assert m[metric] == want, metric


def test_outputs_fingerprint_repeats_with_and_without_tracing(runs):
    _, (plain, traced) = runs
    assert plain["fingerprint"] == traced["fingerprint"]
    assert plain["outputs"] == traced["outputs"]


def test_failing_stage_is_counted_and_reported():
    # perplexity 30 needs more than 90 cases; 150 stays give about 30, so
    # cluster raises and interpret, which needs its output, fails too
    overrides = {**SMALL["paper600"], "cluster": {"tsne_iters": 100}}
    summary = run.run_workload("paper600", 1, 0.0, False, overrides)
    assert summary["failed"] == 2 and not summary["correct"]
    assert any(c.startswith("cluster: ") for c in summary["checks"])
    result = run.result_json(summary, [m["name"] for m in SPEC["end_to_end"]])
    assert result["attempted"] > result["failed"] == 2


def test_tracer_replaces_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    from akisub import stages  # noqa: F401  (imports every akisub module)
    modules = [m for n, m in sys.modules.items() if n.startswith("akisub.")]
    originals = {}
    for module_name, attr_path, _ in tracer.TARGETS:
        if "." not in attr_path:
            originals[attr_path] = getattr(sys.modules[f"akisub.{module_name}"], attr_path)
    t = tracer.Tracer().install()
    try:
        for attr, original in originals.items():
            still = [m.__name__ for m in modules for value in vars(m).values()
                     if value is original]
            assert not still, f"{attr} unwrapped in {still}"
    finally:
        t.uninstall()
    for module_name, attr_path, _ in tracer.TARGETS:
        if "." not in attr_path:
            assert getattr(sys.modules[f"akisub.{module_name}"], attr_path) \
                is originals[attr_path]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_reported_units():
    assert SPEC["command"][1] == "bench/run.py" and SPEC["paths"] == ["bench"]
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert metric["unit"] == run.unit_of(metric["name"]), metric
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
