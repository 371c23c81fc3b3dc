"""One pass of one benchmark workload, run in a fresh child process.

Usage: python3 bench/worker.py PASS_DIR

PASS_DIR/spec.json names the workload, seed, config overrides, whether to
trace, and whether to stop after set-up. The pass writes the akisub run into
PASS_DIR/run and its measurements to PASS_DIR/result.json (and, when traced,
its spans to PASS_DIR/trace.jsonl). bench/run.py starts these processes.
"""

import os

# Pin BLAS to one thread before numpy loads: the thread count changes results
# (k-selection and the t-SNE layout differ between 1 and 2 OpenBLAS threads).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from akisub import clustering, crossval, stages  # noqa: E402
from akisub.cohort import read_cohort  # noqa: E402
from tracer import Tracer  # noqa: E402

# Workload name -> config (merged over the defaults), the stages run before the
# timed region, and the stages it times. Why each exists is in bench/README.md.
WORKLOADS = {
    "paper600": {"config": {"cohort": {"n_stays": 600}},
                 "setup": (), "timed": stages.STAGES},
    "cohort1500": {"config": {"cohort": {"n_stays": 1500}, "model": {"epochs": 0}},
                   "setup": (), "timed": stages.STAGES},
    "nestedcv": {"config": {"cohort": {"n_stays": 160},
                            "evaluate": {"models": list(crossval.MODEL_IDS),
                                         "outer_folds": 3, "grid": []}},
                 "setup": ("synth", "label"), "timed": ("evaluate",)},
}

RESUME_REPEATS = 7
NEURAL_MODELS = ("lstm", "hielstm", "memnet")
LR_MODELS = ("lr", "lr_bow")
# run_all stages whose body reads cohort.jsonl (synth reads it only from cohort_path)
COHORT_READERS = ("label", "featurize", "train", "embed", "interpret", "evaluate")


def merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        out[key] = merge(out[key], value) if isinstance(value, dict) \
            and isinstance(out.get(key), dict) else value
    return out


def monotonic() -> float:
    """System-wide monotonic clock, comparable with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Operations:
    """Runs stages, counting operations: a stage call, or one fold x model fit
    of the evaluate stage. A stage that raises is logged and counted as failed."""

    def __init__(self, config):
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.ran: list[str] = []
        self.errors: list[str] = []

    def run(self, stage: str) -> None:
        ev = self.config.evaluate
        weight = ev.outer_folds * len(ev.models) if stage == "evaluate" else 1
        self.attempted += weight
        try:
            stages.run_stage(stage, self.config)
            self.ran.append(stage)
        except Exception as e:  # a failing stage is measured, not fatal
            traceback.print_exc()
            self.failed += weight
            self.errors.append(f"{stage}: {type(e).__name__}: {e}")


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a git repo
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "akisub").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS), "seed": seed}


def manifests(config, ran) -> dict[str, dict]:
    paths = {stage: Path(config.out_dir) / "manifests" / f"{stage}.json" for stage in ran}
    return {stage: json.loads(path.read_text()) for stage, path in paths.items()
            if path.exists()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(config, ops: Operations, found: dict) -> list[str]:
    """Problems with the run's outputs; an empty list means they are correct."""
    out_dir = Path(config.out_dir)
    problems = list(ops.errors)
    for stage in ops.ran:
        if stage not in found:
            problems.append(f"{stage}: no manifest")
            continue
        for name, digest in found[stage]["outputs"].items():
            if not (out_dir / name).exists() or sha256(out_dir / name) != digest:
                problems.append(f"{stage}: {name} missing or not as in its manifest")
    if "embed" in ops.ran:
        _, rows = stages.read_representations(out_dir / "representations.csv")
        n_labeled = len(stages.read_labels(out_dir / "labels.csv"))
        width = config.model.emb_dim + config.model.static_proj_dim
        if rows.shape != (n_labeled, width) or not np.all(np.isfinite(rows)):
            problems.append(f"embed: representations {rows.shape} not finite "
                            f"({n_labeled}, {width})")
    if "cluster" in ops.ran:
        _, points, clusters = stages.read_embedding2d(out_dir / "embedding2d.csv")
        if not np.all(np.isfinite(points)) or len(set(clusters)) not in config.cluster.k_range:
            problems.append("cluster: embedding not finite or k outside k_range")
    if "evaluate" in ops.ran:
        aucs = read_aucs(out_dir / "metrics.csv")
        if sorted(aucs) != sorted(config.evaluate.models) \
                or not all(0.0 <= a <= 1.0 for a in aucs.values()):
            problems.append(f"evaluate: AUCs {aucs} not one in [0, 1] per model")
    return problems


def read_aucs(path: Path) -> dict[str, float]:
    """Mean outer-fold AUC per model from metrics.csv ('0.7101 +/- 0.0775')."""
    lines = path.read_text().splitlines()[1:]
    return {line.split(",")[0]: float(line.split(",")[1].split()[0]) for line in lines}


def quality(config, ops: Operations) -> dict[str, float]:
    out_dir = Path(config.out_dir)
    out = {}
    if "cluster" in ops.ran:
        ids, _, clusters = stages.read_embedding2d(out_dir / "embedding2d.csv")
        planted = {s.stay_id: s.planted_subtype for s in read_cohort(out_dir / "cohort.jsonl")}
        out["ari_planted"] = clustering.adjusted_rand_index(
            clusters, [planted[sid] for sid in ids])
    if "evaluate" in ops.ran:
        for model, value in read_aucs(out_dir / "metrics.csv").items():
            out[f"auc_{model}"] = value
    return out


def resume_seconds(config, ran: list[str]) -> tuple[float, list[str]]:
    """Median time of re-running every stage when each is a no-op."""
    manifest_dir = Path(config.out_dir) / "manifests"
    before = {p.name: p.stat().st_mtime_ns for p in manifest_dir.iterdir()}
    times = []
    for _ in range(RESUME_REPEATS):
        start = time.perf_counter()
        for stage in ran:
            stages.run_stage(stage, config)
        times.append(time.perf_counter() - start)
    after = {p.name: p.stat().st_mtime_ns for p in manifest_dir.iterdir()}
    problems = [] if after == before else ["resume: a stage re-ran instead of a no-op"]
    return statistics.median(times), problems


def expected_counts(config, ops: Operations) -> dict[str, int]:
    """Call counts the config implies; a wrapper that missed a binding breaks them."""
    out_dir = Path(config.out_dir)
    labels = stages.read_labels(out_dir / "labels.csv")
    labeled = [s for s in read_cohort(out_dir / "cohort.jsonl") if s.stay_id in labels]
    n = len(labeled)
    hyper, ev = config.model, config.evaluate
    backward = hyper.epochs * math.ceil(n / hyper.batch_size) if "train" in ops.ran else 0
    summaries = n if "featurize" in ops.ran else 0
    if "evaluate" in ops.ran:
        if len(ev.grid) > 1:
            raise ValueError("call-count identities assume no inner-CV grid")
        ints = {sid: int(lab.is_case) for sid, lab in labels.items()}
        folds = crossval.grouped_stratified_folds(labeled, ints, ev.outer_folds, ev.seed)
        n_neural = sum(m in NEURAL_MODELS for m in ev.models)
        for fold in range(ev.outer_folds):
            n_train = int(np.sum(folds != fold))
            backward += n_neural * hyper.epochs * math.ceil(n_train / hyper.batch_size)
        summaries += ev.outer_folds * n * sum(m in LR_MODELS for m in ev.models)
    return {"autodiff.backward.calls": backward,
            "cohort.read_cohort.calls": sum(s in COHORT_READERS for s in ops.ran),
            "features.summarize_for_baselines.calls": summaries}


def stage_bytes(config, found: dict) -> dict[str, float]:
    out_dir = Path(config.out_dir)
    out = {f"stages.{stage}.out_bytes": float(sum(
        (out_dir / name).stat().st_size for name in found[stage]["outputs"]))
        if stage in found else 0.0 for stage in stages.STAGES}
    for metric, name in (("memnet.checkpoint.bytes", "checkpoint.json"),
                         ("cohort.cohort_jsonl.bytes", "cohort.jsonl")):
        path = out_dir / name
        out[metric] = float(path.stat().st_size) if path.exists() else 0.0
    return out


def run_pass(pass_dir: Path) -> dict:
    spec = json.loads((pass_dir / "spec.json").read_text())
    workload = WORKLOADS[spec["workload"]]
    raw = merge(merge({"seed": spec["seed"], "out_dir": str(pass_dir / "run")},
                      workload["config"]), spec["overrides"])
    config = stages.config_from_dict(raw)
    tracer = Tracer().install() if spec["trace"] else None
    ops = Operations(config)
    for stage in workload["setup"]:
        ops.run(stage)
    result = {"t_first_op": monotonic()}
    if spec["setup_only"]:
        return {**result, "attempted": ops.attempted, "failed": ops.failed,
                "checks": ops.errors}

    setup_overhead = tracer.overhead_s if tracer is not None else 0.0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for stage in workload["timed"]:
        ops.run(stage)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.uninstall()

    found = manifests(config, ops.ran)
    checks = check_outputs(config, ops, found)
    resume = 0.0
    if tracer is None and not ops.errors:
        resume, problems = resume_seconds(config, ops.ran)
        checks += problems
    out_dir = Path(config.out_dir)
    result.update({
        "env": environment(spec["seed"]),
        "n_labeled": len(stages.read_labels(out_dir / "labels.csv")) if "label" in ops.ran else 0,
        "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
                    "disk_mb": sum(p.stat().st_size for p in out_dir.rglob("*")
                                   if p.is_file()) / 1e6,
                    "resume_s": resume},
        "quality": quality(config, ops),
        "outputs": {stage: m["outputs"] for stage, m in found.items()},
        "fingerprint": hashlib.sha256(json.dumps(
            {stage: m["outputs"] for stage, m in found.items()},
            sort_keys=True).encode()).hexdigest(),
    })
    if tracer is not None:
        layers = {**tracer.layer_metrics(), **stage_bytes(config, found)}
        if not ops.errors:
            result["expected_counts"] = expected_counts(config, ops)
            for name, want in result["expected_counts"].items():
                if layers[name] != want:
                    checks.append(f"trace: {name} = {layers[name]}, config implies {want}")
        # the wrappers' own time in the timed region against the wall time without it
        overhead = tracer.overhead_s - setup_overhead
        layers["trace_overhead_frac"] = overhead / (wall - overhead)
        result["layers"] = layers
        result["spans"] = tracer.totals()
        tracer.write(pass_dir / "trace.jsonl")
    result["checks"] = checks
    return result


def main(argv) -> int:
    pass_dir = Path(argv[1])
    result = run_pass(pass_dir)
    (pass_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
