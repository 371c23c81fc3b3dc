"""Stage runner: synth -> label -> featurize -> train -> embed -> cluster ->
interpret -> evaluate, each idempotent and resumable.

`STAGE_TABLE` declares each stage once, in pipeline order: its body, the files
of the run directory it reads and writes, and the `RunConfig` fields hashed
into its manifest. Artifacts are named by their file names, and the stage that
produces each file is derived from the table.

Every stage writes a manifest (config hash, input/output SHA-256) under
<out_dir>/manifests/. A stage whose manifest, config hash, inputs, and outputs
all match is a no-op; a manifest that is not such an object is stale. A missing
prerequisite raises a dependency error naming the artifact and the stage that
produces it. A stage body gets the hashes of the files it reads, an external
cohort's too, and hands a cohort's to `read_cohort`, which then hashes nothing.

Every hash is `cohort.file_sha256`, which reads a file once per content in a
process: it keeps each digest with the file's device, inode, size, mtime and
ctime, and hashes again when a fresh stat differs in any of them. A file whose
ctime is within `cohort.RACY_MARGIN_NS` (1 s) of the hash is hashed on every
call, since a write in the same timestamp tick could leave its stat as it was.
Every artifact is written atomically, as a new inode. So a no-op check stats
the files it names and reads none it has read before in this process, and a
file changed by any writer is hashed again. A filesystem that does not update
ctime on a write is not supported.

Synth generates the cohort and writes `cohort.jsonl` on all the CPUs the process
may use, in forked children that end before the stage does (see `cohort`).
`write_cohort` keeps the stays it wrote as `read_cohort`'s parse under the hash
of the bytes it wrote, so within one process the stages after synth read
`cohort.jsonl` without parsing it: the hash each of them takes matches.
"""

from __future__ import annotations

import functools
import hashlib
import json
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import clustering, crossval, features, kdigo, memnet, stats
from .cohort import (CohortConfig, file_sha256, generate_cohort, read_cohort, write_cohort,
                     write_rows, write_text)
from .errors import ArgumentError, ConfigError, DataError, ParseError, StageDependencyError
from .kdigo import AkiLabel
from .memnet import HyperConfig

MANIFEST_VERSION = 1
CONFIG_SCHEMA_VERSION = 1


def _check_minimums(where: str, obj, **minimums) -> None:
    """ConfigError unless each named field of dataclass `obj` is at least its minimum."""
    for name, low in minimums.items():
        value = getattr(obj, name)
        if not value >= low:
            raise ConfigError(f"'{where}{name}' must be >= {low}, got {value!r}")


@dataclass
class ClusterConfig:
    method: str = "tsne"                  # tsne | pca
    k_range: tuple[int, ...] = (2, 3, 4, 5, 6)
    perplexity: float = 30.0
    tsne_iters: int = 1000
    seed: int = 0

    def validate(self):
        if self.method not in ("tsne", "pca"):
            raise ConfigError(f"unknown cluster method {self.method!r}")
        if not self.k_range or not all(type(k) is int and 2 <= k <= stats.MAX_GROUPS
                                       for k in self.k_range):
            raise ConfigError(f"'cluster.k_range' must hold integers from 2 to "
                              f"{stats.MAX_GROUPS}, got {list(self.k_range)!r}")
        if not self.perplexity > 0:
            raise ConfigError(f"'cluster.perplexity' must be > 0, got {self.perplexity!r}")
        _check_minimums("cluster.", self, tsne_iters=0)

    def check_cases(self, n_cases: int):
        """Raise DataError unless `n_cases` case stays can be clustered: k-means
        needs more cases than the largest k, and t-SNE more than 3*perplexity."""
        k_max = max(self.k_range)
        if n_cases < k_max + 1:
            raise DataError(f"only {n_cases} cases; too few for k up to {k_max}")
        if self.method == "tsne" and n_cases <= 3 * self.perplexity:
            raise DataError(f"only {n_cases} cases; t-SNE perplexity {self.perplexity:g} "
                            f"needs more than {3 * self.perplexity:g}")


@dataclass
class EvaluateConfig:
    models: tuple[str, ...] = ("lr",)
    outer_folds: int = 5
    inner_folds: int = 5
    grid: tuple[dict, ...] = ()
    seed: int = 0

    def validate(self):
        if not self.models or len(set(self.models)) < len(self.models) \
                or not set(self.models) <= set(crossval.MODEL_IDS):
            raise ConfigError(f"'evaluate.models' must be one or more distinct models of "
                              f"{crossval.MODEL_IDS}, got {list(self.models)!r}")
        _check_minimums("evaluate.", self, outer_folds=2, inner_folds=2)


@dataclass
class RunConfig:
    seed: int = 0
    t1_hours: int = 24
    out_dir: str = "run"
    cohort_path: str | None = None
    cohort: CohortConfig = field(default_factory=CohortConfig)
    model: HyperConfig = field(default_factory=HyperConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    evaluate: EvaluateConfig = field(default_factory=EvaluateConfig)

    def validate(self):
        """ConfigError unless every setting holds a value of its type and range, and
        each section's seed and each grid point's seed is `seed`. `run_stage` calls
        this first, so a config built in code gets the checks a parsed one gets."""
        _check_types("", self)
        if self.t1_hours not in features.T1_HOURS:
            raise ConfigError(f"'t1_hours' must be one of {features.T1_HOURS}, "
                              f"got {self.t1_hours!r}")
        sections = [name for name, hint in _field_types(RunConfig).items()
                    if is_dataclass(hint)]
        # a sequence of the wrong shape or element type, or a grid entry that is not a
        # mapping of HyperConfig fields, raises TypeError or ValueError
        try:
            grid = [replace(self.model, **g) for g in self.evaluate.grid]
            for name in sections:
                getattr(self, name).validate()
            for hyper in grid:
                _check_types("model.", hyper)
                hyper.validate()
        except (TypeError, ValueError) as e:
            raise ConfigError(f"malformed config value: {e}") from None
        seeds = [(f"{name}.seed", getattr(self, name).seed) for name in sections]
        seeds += [("evaluate.grid seed", hyper.seed) for hyper in grid]
        for where, seed in seeds:
            if seed != self.seed:
                raise ConfigError(f"'{where}' must equal 'seed' ({self.seed}), got {seed!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = CONFIG_SCHEMA_VERSION
        return d


# what a value of each scalar field type may be; a bool is not a number here
_SCALAR_TYPES = {int: (int,), float: (int, float), str: (str,),
                 str | None: (str, type(None))}


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> type of dataclass `cls`, resolved once per class."""
    return typing.get_type_hints(cls)


def _check_types(where: str, obj) -> None:
    """ConfigError unless each scalar field of dataclass `obj` holds a value of its
    type and each dataclass field holds its class, checked the same way."""
    for name, hint in _field_types(type(obj)).items():
        value = getattr(obj, name)
        if is_dataclass(hint):
            if type(value) is not hint:
                raise ConfigError(f"'{where}{name}' must be a {hint.__name__}, got {value!r}")
            _check_types(f"{where}{name}.", value)
            continue
        allowed = _SCALAR_TYPES.get(hint)
        if allowed and (isinstance(value, bool) or not isinstance(value, allowed)):
            raise ConfigError(f"'{where}{name}' must be {getattr(hint, '__name__', hint)}, "
                              f"got {value!r}")


def _from_dict(cls, raw, where: str, **defaults):
    """The `cls` that `raw` describes over `defaults` and the field defaults. Each key
    names a field of `cls`; a JSON array given to a tuple field becomes a tuple, and a
    dataclass field is read from its own object, whose `seed` defaults to this one's."""
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where.rstrip('.')}' must be an object, got {raw!r}")
    types = _field_types(cls)
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(where + key for key in unknown)}")
    values = {**defaults, **raw}
    sections = {name: values.pop(name, {}) for name, hint in types.items()
                if is_dataclass(hint)}
    for name, value in values.items():
        if isinstance(value, list) and typing.get_origin(types[name]) is tuple:
            values[name] = tuple(value)
    obj = cls(**values)
    for name, payload in sections.items():
        setattr(obj, name, _from_dict(types[name], payload, f"{where}{name}.", seed=obj.seed))
    return obj


def config_from_dict(raw: dict) -> RunConfig:
    """The RunConfig `raw` describes over the defaults; any malformed value raises
    ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(raw).__name__}")
    raw = dict(raw)
    version = raw.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version}")
    config = _from_dict(RunConfig, raw, "")
    config.validate()
    return config


def _path(config: RunConfig, filename: str) -> Path:
    return Path(config.out_dir) / filename


# ---------------------------------------------------------------------------
# label / feature IO helpers
# ---------------------------------------------------------------------------

LABEL_COLUMNS = ["stay_id", "is_case", "onset_hours", "stage", "rule"]
EMBEDDING_COLUMNS = ["stay_id", "x", "y", "cluster"]


def _representation_columns(width: int) -> list[str]:
    return ["stay_id"] + [f"v{i:03d}" for i in range(width)]


def _csv_rows(path, header):
    """Yield (line number, fields) per row of a CSV artifact. ParseError names the line
    unless line 1 is `header`, or `header(n)` for its n fields, and every row is as wide."""
    with open(path, encoding="utf-8") as fh:
        try:
            found = fh.readline().rstrip("\n").split(",")
            want = header(len(found)) if callable(header) else header
            if found != want:
                raise ParseError(f"{path}: line 1: header must be {','.join(want)!r}, "
                                 f"got {','.join(found)!r}")
            for lineno, line in enumerate(fh, start=2):
                fields = line.rstrip("\n").split(",")
                if len(fields) != len(want):
                    raise ParseError(f"{path}: line {lineno}: {len(fields)} fields, "
                                     f"expected {len(want)}")
                yield lineno, fields
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None


def _finite(fields) -> list[float]:
    """The fields as floats; ValueError unless each is a finite number."""
    values = [float(x) for x in fields]
    if not np.isfinite(values).all():
        raise ValueError("values must be finite numbers")
    return values


def write_labels(kept: list[tuple], path) -> None:
    write_rows(path, LABEL_COLUMNS, (
        (stay.stay_id, str(int(label.is_case)),
         repr(label.onset_offset_hours) if label.is_case else "",
         str(label.stage) if label.stage is not None else "", label.triggering_rule or "")
        for stay, label in kept))


def read_labels(path) -> dict[str, AkiLabel]:
    out: dict[str, AkiLabel] = {}
    try:
        for lineno, (sid, is_case, onset, stage, rule) in _csv_rows(path, LABEL_COLUMNS):
            if is_case not in ("0", "1"):
                raise ValueError(f"is_case must be 0 or 1, got {is_case!r}")
            if stage not in ("", "1", "2", "3"):
                raise ValueError(f"stage must be 1, 2, 3 or empty, got {stage!r}")
            out[sid] = AkiLabel(is_case=is_case == "1",
                                onset_offset_hours=float(onset) if onset else None,
                                stage=int(stage) if stage else None,
                                triggering_rule=rule or None)
    except ValueError as e:
        raise ParseError(f"{path}: line {lineno}: {e}") from None
    return out


def write_scaling(scaling: features.ScalingStats, path) -> None:
    payload = {"split_id": scaling.split_id, "variables": list(scaling.variables),
               "mean": scaling.mean.tolist(), "vmin": scaling.vmin.tolist(),
               "vmax": scaling.vmax.tolist()}
    write_text(path, [json.dumps(payload, sort_keys=True)])


def read_scaling(path) -> features.ScalingStats:
    """ParseError unless `path` holds the scaling of features.TIME_VARIABLES."""
    try:
        payload = json.loads(Path(path).read_bytes())
        arrays = {key: np.array(_finite(payload[key])) for key in ("mean", "vmin", "vmax")}
        if tuple(payload["variables"]) != features.TIME_VARIABLES or \
                any(a.shape != (len(features.TIME_VARIABLES),) for a in arrays.values()):
            raise ValueError("expected mean, vmin and vmax of the time variables in order")
        return features.ScalingStats(split_id=payload["split_id"], **arrays)
    except (ValueError, KeyError, TypeError) as e:
        raise ParseError(f"{path}: malformed scaling ({type(e).__name__}: {e})") from None


def write_vocab(vocab: features.Vocabulary, path) -> None:
    write_text(path, ["\n".join(vocab.tokens) + "\n"])


def read_vocab(path) -> features.Vocabulary:
    try:
        tokens = Path(path).read_bytes().decode("utf-8").removesuffix("\n").split("\n")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None
    if tokens[:1] != [features.PAD_TOKEN] or "" in tokens or len(set(tokens)) < len(tokens):
        raise ParseError(f"{path}: expected distinct non-empty tokens, one per line, "
                         f"{features.PAD_TOKEN} first")
    return features.Vocabulary(tokens=tuple(tokens))


def write_representations(stay_ids, matrix: np.ndarray, path) -> None:
    write_rows(path, _representation_columns(matrix.shape[1]),
               ([sid, *(repr(float(x)) for x in row)] for sid, row in zip(stay_ids, matrix)))


def read_representations(path) -> tuple[list[str], np.ndarray]:
    ids, rows = [], []
    try:
        for lineno, (sid, *values) in _csv_rows(path, lambda n: _representation_columns(n - 1)):
            ids.append(sid)
            rows.append(_finite(values))
    except ValueError as e:
        raise ParseError(f"{path}: line {lineno}: {e}") from None
    return ids, np.array(rows)


def write_embedding2d(stay_ids, Y: np.ndarray, clusters: np.ndarray, path) -> None:
    write_rows(path, EMBEDDING_COLUMNS,
               ((sid, repr(float(x)), repr(float(y)), str(int(c)))
                for sid, (x, y), c in zip(stay_ids, Y, clusters)))


def read_embedding2d(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    ids, pts, clusters = [], [], []
    try:
        for lineno, (sid, x, y, c) in _csv_rows(path, EMBEDDING_COLUMNS):
            ids.append(sid)
            pts.append(_finite((x, y)))
            clusters.append(int(c))
    except ValueError as e:
        raise ParseError(f"{path}: line {lineno}: {e}") from None
    return ids, np.array(pts), np.array(clusters)


# ---------------------------------------------------------------------------
# stage bodies
# ---------------------------------------------------------------------------

def _load_labeled(config: RunConfig, inputs: dict[str, str]):
    stays = read_cohort(_path(config, "cohort.jsonl"), inputs["cohort.jsonl"])
    labels = read_labels(_path(config, "labels.csv"))
    labeled = [s for s in stays if s.stay_id in labels]
    return labeled, labels


def _stage_synth(config: RunConfig, inputs: dict[str, str]):
    if config.cohort_path:
        stays = read_cohort(config.cohort_path, inputs[config.cohort_path])
    else:
        stays = generate_cohort(config.cohort)
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    write_cohort(stays, _path(config, "cohort.jsonl"))


def _stage_label(config: RunConfig, inputs: dict[str, str]):
    stays = read_cohort(_path(config, "cohort.jsonl"), inputs["cohort.jsonl"])
    kept, excluded = kdigo.apply_exclusions(stays, config.t1_hours)
    write_labels(kept, _path(config, "labels.csv"))
    write_rows(_path(config, "exclusions.csv"), ("stay_id", "reason"), excluded)


def _stage_featurize(config: RunConfig, inputs: dict[str, str]):
    labeled, _ = _load_labeled(config, inputs)
    if not labeled:
        raise DataError("no labeled stays to featurize")
    scaling = features.fit_scaling([features.bin_events(s, config.t1_hours) for s in labeled],
                                   split_id="full-cohort")
    write_scaling(scaling, _path(config, "scaling.json"))
    write_vocab(features.build_vocabulary(labeled), _path(config, "vocab.txt"))
    fill = dict(zip(scaling.variables, scaling.mean))
    features.write_baseline_features(
        [s.stay_id for s in labeled],
        [features.summarize_for_baselines(s, config.t1_hours, fill) for s in labeled],
        _path(config, "baseline_features.csv"))


def _prepared(config: RunConfig, inputs: dict[str, str]):
    labeled, labels = _load_labeled(config, inputs)
    scaling = read_scaling(_path(config, "scaling.json"))
    vocab = read_vocab(_path(config, "vocab.txt"))
    label_ints = {sid: int(lab.is_case) for sid, lab in labels.items()}
    tensors = {s.stay_id: features.bin_events(s, config.t1_hours) for s in labeled}
    prepared = features.prepare_stays(labeled, label_ints, tensors, vocab, scaling,
                                      config.model.max_note_len)
    return labeled, labels, prepared, vocab


def _stage_train(config: RunConfig, inputs: dict[str, str]):
    _, _, prepared, vocab = _prepared(config, inputs)
    result = memnet.train(prepared, config.model, len(vocab))
    memnet.save_checkpoint(result, _path(config, "checkpoint.npz"))
    write_rows(_path(config, "loss_history.csv"), ("epoch", "mean_loss"),
               ((str(i), repr(loss)) for i, loss in enumerate(result.loss_history)))


def _stage_embed(config: RunConfig, inputs: dict[str, str]):
    labeled, _, prepared, vocab = _prepared(config, inputs)
    result = memnet.load_checkpoint(_path(config, "checkpoint.npz"))
    n_rows = len(result.params["word_emb"].data)
    if len(vocab) != n_rows:
        raise ParseError(f"{_path(config, 'vocab.txt')}: {len(vocab)} tokens for the "
                         f"checkpoint's {n_rows} word_emb rows")
    rows = memnet.embed_stays(result, prepared)
    write_representations([s.stay_id for s in labeled], rows,
                          _path(config, "representations.csv"))


def _stage_cluster(config: RunConfig, inputs: dict[str, str]):
    ids, X = read_representations(_path(config, "representations.csv"))
    labels = read_labels(_path(config, "labels.csv"))
    missing = [sid for sid in ids if sid not in labels]
    if missing:
        raise DataError(f"represented stays missing from labels.csv: {missing[:3]}")
    is_case = np.array([labels[sid].is_case for sid in ids], dtype=bool)
    case_ids = [sid for sid, case in zip(ids, is_case) if case]
    case_rows = X[is_case]
    cc = config.cluster
    cc.check_cases(len(case_ids))
    if cc.method == "tsne":
        Y = clustering.tsne_embed(case_rows, perplexity=cc.perplexity,
                                  iters=cc.tsne_iters, seed=cc.seed)
    else:
        Y = clustering.pca_project(case_rows)
    best, table = clustering.select_k(Y, cc.k_range, seed=cc.seed)
    write_embedding2d(case_ids, Y, best.labels, _path(config, "embedding2d.csv"))
    write_rows(_path(config, "ktable.csv"), ("k", "mcclain_rao", "selected"),
               ((str(k), repr(value), str(int(k == len(best.centroids)))) for k, value in table))


def _stage_interpret(config: RunConfig, inputs: dict[str, str]):
    labeled, labels = _load_labeled(config, inputs)
    ids, _, clusters = read_embedding2d(_path(config, "embedding2d.csv"))
    by_id = {s.stay_id: s for s in labeled}
    missing = [sid for sid in ids if sid not in by_id]
    if missing:
        raise DataError(f"clustered stays missing from cohort: {missing[:3]}")
    case_stays = [by_id[sid] for sid in ids]
    report = stats.build_subtype_report(case_stays, clusters)
    stats.write_report_csv(report, _path(config, "subtype_report.csv"))
    stats.write_report_text(report, _path(config, "subtype_report.txt"))
    stats.write_heatmap_matrix(report, _path(config, "heatmap.csv"))
    counts, pct = stats.stage_composition(clusters, [labels[sid] for sid in ids])
    stats.write_stage_composition(counts, pct, _path(config, "stage_composition.csv"))


def _stage_evaluate(config: RunConfig, inputs: dict[str, str]):
    labeled, labels = _load_labeled(config, inputs)
    label_ints = {sid: int(lab.is_case) for sid, lab in labels.items()}
    records = crossval.nested_cv(labeled, label_ints, list(config.evaluate.models),
                                 config.t1_hours, config.model,
                                 outer_folds=config.evaluate.outer_folds,
                                 inner_folds=config.evaluate.inner_folds,
                                 grid=[dict(g) for g in config.evaluate.grid],
                                 seed=config.evaluate.seed)
    crossval.write_metrics_table(records, _path(config, "metrics.csv"))


class Stage(typing.NamedTuple):
    body: typing.Callable[[RunConfig, dict[str, str]], None]  # (config, hashes by file read)
    inputs: tuple[str, ...]         # files in the run directory it reads
    outputs: tuple[str, ...]        # files in the run directory it writes
    config_fields: tuple[str, ...]  # RunConfig fields hashed into its manifest, with seed


STAGE_TABLE = {
    "synth": Stage(_stage_synth, (), ("cohort.jsonl",), ("cohort", "cohort_path")),
    "label": Stage(_stage_label, ("cohort.jsonl",), ("labels.csv", "exclusions.csv"),
                   ("t1_hours",)),
    "featurize": Stage(_stage_featurize, ("cohort.jsonl", "labels.csv"),
                       ("scaling.json", "vocab.txt", "baseline_features.csv"), ("t1_hours",)),
    "train": Stage(_stage_train, ("cohort.jsonl", "labels.csv", "scaling.json", "vocab.txt"),
                   ("checkpoint.npz", "loss_history.csv"), ("t1_hours", "model")),
    "embed": Stage(_stage_embed, ("cohort.jsonl", "labels.csv", "scaling.json", "vocab.txt",
                                  "checkpoint.npz"),
                   ("representations.csv",), ("t1_hours", "model")),
    "cluster": Stage(_stage_cluster, ("representations.csv", "labels.csv"),
                     ("embedding2d.csv", "ktable.csv"), ("cluster",)),
    "interpret": Stage(_stage_interpret, ("cohort.jsonl", "labels.csv", "embedding2d.csv"),
                       ("subtype_report.csv", "subtype_report.txt", "heatmap.csv",
                        "stage_composition.csv"), ("t1_hours",)),
    "evaluate": Stage(_stage_evaluate, ("cohort.jsonl", "labels.csv"), ("metrics.csv",),
                      ("t1_hours", "model", "evaluate")),
}
STAGES = tuple(STAGE_TABLE)
_PRODUCER = {name: stage for stage, spec in STAGE_TABLE.items() for name in spec.outputs}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _hashes(config: RunConfig, names) -> dict[str, str]:
    return {name: file_sha256(_path(config, name)) for name in names}


def run_stage(stage: str, config: RunConfig, force: bool = False) -> dict:
    """Execute one stage (or return its manifest unchanged if nothing changed).
    Directories are made only to write into, so a stage that fails on its config or
    its input leaves no run directory behind."""
    if stage not in STAGES:
        raise ArgumentError(f"unknown stage {stage!r}; expected one of {STAGES}")
    spec = STAGE_TABLE[stage]
    config.validate()
    mpath = Path(config.out_dir) / "manifests" / f"{stage}.json"

    for name in spec.inputs:
        if not _path(config, name).exists():
            raise StageDependencyError(f"stage '{stage}' requires artifact '{name}' "
                                       f"(run stage '{_PRODUCER[name]}' first)")
    input_hashes = _hashes(config, spec.inputs)
    read_hashes = dict(input_hashes)  # and an external cohort's, keyed by its path
    fields = config.to_dict()
    payload = {name: fields[name] for name in spec.config_fields}
    payload["seed"] = config.seed
    if "cohort_path" in spec.config_fields and config.cohort_path:
        if not Path(config.cohort_path).is_file():
            raise ConfigError(f"cohort_path {config.cohort_path!r} is not a file")
        # the hash of the file, not its name, goes into the config hash
        payload["cohort_sha256"] = read_hashes[config.cohort_path] = file_sha256(config.cohort_path)
    config_hash = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    if not force and mpath.exists():
        try:
            manifest = json.loads(mpath.read_text(encoding="utf-8"))
        except ValueError:  # not UTF-8 JSON
            manifest = None
        # no-op only for a manifest object whose config, inputs and outputs all match
        if isinstance(manifest, dict) and manifest.get("config_hash") == config_hash \
                and manifest.get("inputs") == input_hashes \
                and all(_path(config, name).exists() for name in spec.outputs) \
                and manifest.get("outputs") == _hashes(config, spec.outputs):
            return manifest

    spec.body(config, read_hashes)

    manifest = {
        "stage": stage,
        "version": MANIFEST_VERSION,
        "seed": config.seed,
        "config_hash": config_hash,
        "inputs": input_hashes,
        "outputs": _hashes(config, spec.outputs),
    }
    mpath.parent.mkdir(parents=True, exist_ok=True)
    write_text(mpath, [json.dumps(manifest, indent=2, sort_keys=True)])
    return manifest


def run_all(config: RunConfig, force: bool = False) -> list[dict]:
    """Run every stage in order. Right after label, the case count is checked
    against the cluster config, so an infeasible run stops before training."""
    manifests = []
    for stage in STAGES:
        manifests.append(run_stage(stage, config, force=force))
        if stage == "label":
            labels = read_labels(_path(config, "labels.csv"))
            config.cluster.check_cases(sum(lab.is_case for lab in labels.values()))
    return manifests
