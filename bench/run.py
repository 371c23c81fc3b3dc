"""akisub benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload paper600 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --trace 1

Each pass of a workload runs in a fresh child process (bench/worker.py). With
--trace 0 the run repeats untraced passes until their timed regions add up to
--seconds (at least one), adds set-up-only children until it has
SETUP_SAMPLES set-up times, and reports the median of each end-to-end metric.
With --trace 1 the passes are traced and it reports the median of each
per-layer metric, the tracing overhead among them.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metrics are the end_to_end (--trace 0) or
per_layer (--trace 1) names in BENCHMARK.json. The lines before it print every
metric, the output quality, the output fingerprint and the environment. Run
directories go to .bench_runs/ under the checkout; the akisub artifacts are
deleted once measured, the result and trace files are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS_DIR = ROOT / ".bench_runs"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "disk_mb": "MB", "resume_s": "s", "failed_frac": "ratio"}


class BenchError(Exception):
    pass


def unit_of(name: str) -> str:
    """Unit of any metric this benchmark reports."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.startswith(("auc_", "ari_")):
        return "score"
    for suffix, unit in ((".stays_per_s", "1/s"), (".s", "s"), (".calls", "count"),
                         (".tape_nodes", "count"), ("bytes", "bytes"),
                         ("_eff", "ratio"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    raise BenchError(f"no unit for metric {name!r}")


def spawn(pass_dir: Path, spec: dict, deadline: float) -> dict:
    """Run one worker process and return its result, with setup_s added."""
    pass_dir.mkdir(parents=True)
    (pass_dir / "spec.json").write_text(json.dumps(spec))
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), str(pass_dir)],
                          stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker for {pass_dir.name} exited with {proc.returncode}")
    result = json.loads((pass_dir / "result.json").read_text())
    result["setup_s"] = result["t_first_op"] - t_spawn
    shutil.rmtree(pass_dir / "run", ignore_errors=True)
    return result


def median_of(dicts: list[dict]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None) -> dict:
    """Measure one workload; returns every metric, quality and check."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    run_dir = RUNS_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    spec = {"workload": workload, "seed": seed, "trace": trace, "setup_only": False,
            "overrides": overrides or {}}
    full: list[dict] = []
    timed = 0.0
    # stop early rather than start a pass that would end past the deadline
    while not full or (timed < seconds and time.monotonic()
                       + (time.monotonic() - start) / len(full) < deadline):
        full.append(spawn(run_dir / f"pass{len(full)}", spec, deadline))
        timed += full[-1]["metrics"]["wall_s"]
    extra: list[dict] = []
    while not trace and len(full) + len(extra) < SETUP_SAMPLES:
        extra.append(spawn(run_dir / f"setup{len(extra)}", {**spec, "setup_only": True},
                           deadline))

    everyone = full + extra
    attempted = sum(r["attempted"] for r in everyone)
    failed = sum(r["failed"] for r in everyone)
    checks = sorted({c for r in everyone for c in r["checks"]})
    fingerprints = {r["fingerprint"] for r in full}
    if len(fingerprints) > 1:
        checks.append(f"fingerprints differ between passes of one seed: {sorted(fingerprints)}")
    metrics = median_of([r["metrics"] for r in full])
    if trace:  # traced passes give the layers; their end-to-end figures are not reported
        metrics = {"wall_s": metrics["wall_s"], **median_of([r["layers"] for r in full])}
    else:
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in everyone)
    metrics["failed_frac"] = failed / attempted
    summary = {"workload": workload, "correct": not checks and failed == 0,
               "attempted": attempted, "failed": failed, "metrics": metrics,
               "quality": full[0]["quality"], "fingerprint": full[0]["fingerprint"],
               "outputs": full[0]["outputs"], "env": full[0]["env"], "checks": checks,
               "n_labeled": full[0]["n_labeled"], "passes": len(full),
               "setup_samples": len(everyone)}
    if trace:
        summary["spans"] = full[0]["spans"]
        summary["expected_counts"] = full[0].get("expected_counts", {})
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    return summary


def report_lines(summary: dict, trace: bool) -> list[str]:
    w = summary["workload"]
    lines = [f"{w} env {json.dumps(summary['env'], sort_keys=True)}",
             f"{w} passes={summary['passes']} setup_samples={summary['setup_samples']} "
             f"attempted={summary['attempted']} failed={summary['failed']}"]
    for name, value in sorted(summary["metrics"].items()):
        lines.append(f"{w} {name} = {value:.6g} {unit_of(name)}")
    for name, value in sorted(summary["quality"].items()):
        lines.append(f"{w} quality {name} = {value:.4f} {unit_of(name)}")
    if trace:
        lines.append(f"{w} spans (calls, inclusive s, self s), by self time:")
        for name, row in sorted(summary["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"{w}   {name:40s} {row['calls']:8d} {row['s']:10.3f} "
                         f"{row['self_s']:10.3f}")
    lines.append(f"{w} fingerprint {summary['fingerprint']}")
    lines += [f"{w} CHECK FAILED: {c}" for c in summary["checks"]]
    return lines


def result_json(summary: dict, names: list[str]) -> dict:
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {n: {"value": summary["metrics"][n], "unit": unit_of(n)}
                        for n in names}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "akisub").is_dir():
        raise BenchError(f"no akisub sources under {ROOT / 'src'}")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    results = {}
    for workload in (workloads if args.workload == "all" else [args.workload]):
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(report_lines(summary, bool(args.trace))), flush=True)
        results[workload] = result_json(summary, names)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
