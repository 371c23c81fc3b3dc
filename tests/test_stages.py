import codecs
import dataclasses
import functools
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import akisub
from akisub import cohort, errors, features, stages
from akisub.cli import build_parser, main, resolve_config
from akisub.clustering import pca_project
from akisub.cohort import CohortConfig, generate_cohort, read_cohort, write_cohort
from akisub.errors import ConfigError, DataError, StageDependencyError
from akisub.stages import (_SCALAR_TYPES, STAGE_TABLE, STAGES, RunConfig, config_from_dict,
                           read_embedding2d, read_labels, read_representations, read_scaling,
                           read_vocab, run_all, run_stage, write_embedding2d,
                           write_representations, write_scaling, write_vocab)


# each holds one value out of its documented range
OUT_OF_RANGE_CONFIGS = [
    {"evaluate": {"outer_folds": 1}},
    {"evaluate": {"inner_folds": 0}},
    {"cluster": {"perplexity": -1}},
    {"cluster": {"tsne_iters": -5}},
    {"cluster": {"k_range": [2.5, 3]}},
    {"cluster": {"k_range": [2, 11]}},  # the Tukey table stops at 10 groups
    {"model": {"epochs": -1}},
    {"evaluate": {"grid": [{"lr": -1}]}},
    {"evaluate": {"models": []}},
    {"evaluate": {"models": ["lr", "lr"]}},
    {"cluster": {"seed": 7}},  # a section or grid seed must be the run's seed
    {"evaluate": {"grid": [{"seed": 7}]}},
]

# each sets a setting, or a value of one, the config does not have: the memory
# size is the row count of the stay tensors, the cohort's noise, note vocabulary
# and subtype mixture are fixed, a linear autoencoder's layout is the PCA one, the
# top note LSTM's width is the embedding width, and k-means restarts and the
# McClain-Rao tolerance are constants of `clustering` that `select_k` uses
REMOVED_SETTINGS = [
    {"model": {"memory_size": 7}},
    {"evaluate": {"grid": [{"memory_size": 6}]}},
    {"cohort": {"noise_scale": 1.0}},
    {"cohort": {"vocab_size": 160}},
    {"cohort": {"subtype_mixture": [0.6, 0.1, 0.3]}},
    {"cluster": {"autoencoder_epochs": 400}},
    {"cluster": {"method": "autoencoder"}},
    {"model": {"top_hidden": 128}},
    {"evaluate": {"grid": [{"top_hidden": 64}]}},
    {"cluster": {"restarts": 4}},
    {"cluster": {"select_rel_tol": 0.4}},
]

# each holds one value of the wrong type, shape or range, or an unknown key
MALFORMED_CONFIGS = [
    {"cohort": {"n_stays": "abc"}},
    {"cluster": {"k_range": "x"}},
    {"model": {"epochs": "ten"}},
    {"seed": "x"},
    {"t1_hours": None},
    {"model": {"epochs": 2.5}},
    {"evaluate": {"outer_folds": 2.5}},
    {"cohort_path": 5},
    {"cohort": 3},
    {"evaluate": {"grid": [{"lr": "x"}]}},
    {"evaluate": {"grid": [{"width": 3}]}},
    [1],
    {"t2_days": 7},
    *OUT_OF_RANGE_CONFIGS,
    *REMOVED_SETTINGS,
]


def _one_setting(raw):
    """(section names, field, value) of the one value `raw` sets, or None unless
    `raw` sets exactly one value of a field the config has."""
    obj, path = RunConfig(), []
    while isinstance(raw, dict) and len(raw) == 1:
        (name, value), = raw.items()
        if not hasattr(obj, name):
            return None
        if not (isinstance(value, dict) and dataclasses.is_dataclass(getattr(obj, name))):
            return path, name, value
        obj, raw = getattr(obj, name), value
        path.append(name)
    return None


# the malformed configs that set one value of an existing field, so code can set it too
SET_IN_CODE = [raw for raw in MALFORMED_CONFIGS if _one_setting(raw)]


def small_config(out_dir, seed=11, t1_hours=24):
    return config_from_dict({
        "seed": seed,
        "t1_hours": t1_hours,
        "out_dir": str(out_dir),
        "cohort": {"n_stays": 120, "case_fraction": 0.3},
        "model": {"emb_dim": 16, "bottom_hidden": 12,
                  "word_emb_dim": 8, "static_proj_dim": 4, "epochs": 2,
                  "batch_size": 16, "max_note_len": 12},
        "cluster": {"method": "tsne", "k_range": [2, 3, 4], "perplexity": 8,
                    "tsne_iters": 300},
        "evaluate": {"models": ["lr"], "outer_folds": 3},
    })


def _edit_row(text: str, row: int, edit) -> str:
    """`text` with the fields of CSV line `row` (0 is the header) replaced by
    `edit(fields)`."""
    lines = text.split("\n")
    lines[row] = ",".join(edit(lines[row].split(",")))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = small_config(out)
    manifests = run_all(config)
    return out, config, manifests


class TestFullPipeline:
    def test_all_manifests_present(self, pipeline_run):
        out, config, manifests = pipeline_run
        assert len(manifests) == 8
        assert [m["stage"] for m in manifests] == list(STAGES)
        for stage in STAGES:
            assert (out / "manifests" / f"{stage}.json").exists()

    def test_all_artifacts_exist(self, pipeline_run):
        out, _, _ = pipeline_run
        for filename in (name for spec in STAGE_TABLE.values() for name in spec.outputs):
            assert (out / filename).exists(), filename

    def test_evaluate_table_written(self, pipeline_run):
        out, _, _ = pipeline_run
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "model,auc,precision,recall"
        assert lines[1].startswith("lr,")
        assert "+/-" in lines[1]

    def test_representations_aligned_with_labels(self, pipeline_run):
        out, _, _ = pipeline_run
        labels = read_labels(out / "labels.csv")
        ids, X = read_representations(out / "representations.csv")
        assert set(ids) == set(labels)
        assert X.shape == (len(ids), 16 + 4)

    def test_cluster_outputs_consistent(self, pipeline_run):
        out, _, _ = pipeline_run
        labels = read_labels(out / "labels.csv")
        ids, Y, clusters = read_embedding2d(out / "embedding2d.csv")
        assert all(labels[sid].is_case for sid in ids)
        assert Y.shape == (len(ids), 2)
        ktable = (out / "ktable.csv").read_text().splitlines()
        assert ktable[0] == "k,mcclain_rao,selected"
        assert sum(int(line.split(",")[2]) for line in ktable[1:]) == 1

    def test_pca_layout_projects_the_case_rows(self, pipeline_run, tmp_path):
        out, config, _ = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        pca = dataclasses.replace(config.cluster, method="pca")
        run_stage("cluster", dataclasses.replace(config, out_dir=str(run_dir), cluster=pca))
        labels = read_labels(run_dir / "labels.csv")
        ids, X = read_representations(run_dir / "representations.csv")
        is_case = np.array([labels[sid].is_case for sid in ids])
        case_ids, Y, _ = read_embedding2d(run_dir / "embedding2d.csv")
        assert case_ids == [sid for sid, case in zip(ids, is_case) if case]
        assert np.array_equal(Y, pca_project(X[is_case]))

    def test_rerun_is_noop(self, pipeline_run):
        out, config, manifests = pipeline_run
        mtime = (out / "cohort.jsonl").stat().st_mtime_ns
        again = run_stage("synth", config)
        assert again == manifests[0]
        assert (out / "cohort.jsonl").stat().st_mtime_ns == mtime

    def test_forced_synth_rerun_bit_identical(self, pipeline_run):
        out, config, manifests = pipeline_run
        before = hashlib.sha256((out / "cohort.jsonl").read_bytes()).hexdigest()
        run_stage("synth", config, force=True)
        after = hashlib.sha256((out / "cohort.jsonl").read_bytes()).hexdigest()
        assert before == after
        assert manifests[0]["outputs"]["cohort.jsonl"] == after


def test_changed_external_cohort_reruns_synth(tmp_path):
    external = tmp_path / "external.jsonl"
    write_cohort(generate_cohort(CohortConfig(n_stays=5, seed=1)), external)
    config = dataclasses.replace(small_config(tmp_path / "run"), cohort_path=str(external))
    first = run_stage("synth", config)
    write_cohort(generate_cohort(CohortConfig(n_stays=7, seed=1)), external)
    second = run_stage("synth", config)
    assert second["config_hash"] != first["config_hash"]
    assert len(read_cohort(tmp_path / "run" / "cohort.jsonl")) == 7


def test_cli_missing_external_cohort_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cohort_path": str(tmp_path / "absent.jsonl"),
                               "out_dir": str(tmp_path / "run")}))
    assert main(["--config", str(cfg), "synth"]) == errors.EXIT_CODES["config"]
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def _external_run(tmp_path, stays, edit=None) -> Path:
    """A run config file over an external cohort of `stays`, whose first stay record
    `edit` changes, and the run directory `tmp_path/run`."""
    external = tmp_path / "external.jsonl"
    write_cohort(stays, external)
    if edit:
        lines = external.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[1])
        edit(rec)
        lines[1] = json.dumps(rec)
        external.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cohort_path": str(external), "out_dir": str(tmp_path / "run")}))
    return cfg


def test_cli_external_cohort_with_zero_creatinine_creates_nothing(tmp_path, capsys):
    def zero_creatinine(rec):
        rec["labs"]["creatinine"][0][1] = 0.0

    cfg = _external_run(tmp_path, generate_cohort(CohortConfig(n_stays=2, seed=1)),
                        zero_creatinine)
    assert main(["--config", str(cfg), "synth"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "parse"
    assert not (tmp_path / "run").exists()


def test_cli_external_cohort_with_comma_in_stay_id_creates_nothing(tmp_path, capsys):
    """A stay id that labels.csv cannot hold fails synth, naming the cohort's line."""
    cfg = _external_run(tmp_path, generate_cohort(CohortConfig(n_stays=4, seed=1)),
                        lambda rec: rec.update(stay_id="s,00003"))
    assert main(["--config", str(cfg), "synth"]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "parse"
    assert re.search(r"external\.jsonl: line 2: .*stay_id 's,00003'", error["message"])
    assert not (tmp_path / "run" / "labels.csv").exists()


def test_stages_write_utf8_under_an_ascii_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, the default text encoding is ASCII;
    synth, label and featurize still write a non-ASCII stay id and token as UTF-8."""
    stays = generate_cohort(CohortConfig(n_stays=20, seed=1))
    stays[0].stay_id = "s00000-\u00e9"
    stays[0].notes[0].tokens[0] = "cr\u00e9atinine"
    cfg = _external_run(tmp_path, stays)
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": str(Path(akisub.__file__).parents[1])}
    python = [sys.executable, "-X", "utf8=0"]
    encoding = subprocess.run(
        python + ["-c", "import locale; print(locale.getpreferredencoding(False))"],
        env=env, capture_output=True, check=True).stdout.decode()
    assert codecs.lookup(encoding.strip()).name == "ascii"
    for stage in ("synth", "label", "featurize"):
        done = subprocess.run(python + ["-m", "akisub.cli", "--config", str(cfg), stage],
                              env=env, capture_output=True)
        assert done.returncode == 0, (stage, done.stderr.decode(errors="replace"))
    run = tmp_path / "run"
    assert "cr\u00e9atinine" in read_vocab(run / "vocab.txt").tokens
    assert "s00000-\u00e9" in read_labels(run / "labels.csv")


def test_48_hour_window_runs_through_embed(tmp_path):
    config = small_config(tmp_path, t1_hours=48)
    for stage in STAGES[:STAGES.index("embed") + 1]:
        run_stage(stage, config)
    ids, X = read_representations(tmp_path / "representations.csv")
    assert set(ids) == set(read_labels(tmp_path / "labels.csv"))
    assert X.shape == (len(ids), 16 + 4) and np.isfinite(X).all()


@pytest.mark.parametrize("t1_hours", features.T1_HOURS)
def test_config_round_trips_through_its_dict(tmp_path, t1_hours):
    config = small_config(tmp_path, t1_hours=t1_hours)
    assert config_from_dict(config.to_dict()) == config


def test_run_all_parses_the_cohort_once(tmp_path, monkeypatch):
    """Synth keeps the stays it wrote as the parse of `cohort.jsonl`, so no stage of a
    one-process run parses the file; the one parse is this test's own."""
    parse, parsed = cohort._parse_cohort, []
    monkeypatch.setattr(cohort, "_last_parse", None)
    monkeypatch.setattr(cohort, "_parse_cohort", lambda path: parsed.append(path) or parse(path))
    config = small_config(tmp_path, seed=12)
    config.model = dataclasses.replace(config.model, epochs=0)
    run_all(config)
    assert parsed == []
    # no stage mutated the shared stays
    assert read_cohort(tmp_path / "cohort.jsonl") == parse(tmp_path / "cohort.jsonl")
    assert parsed == []


def test_feature_memo_never_shows_in_an_output(tmp_path):
    """A one-process `run_all` shares the kept parse's stays, and so their feature
    memo, between its stages. Every artifact it writes has the SHA-256 of the one
    written when the memo is dropped before each stage. Some stays lack a lab
    series, so featurize and each outer fold fill their summaries differently."""
    stays = generate_cohort(CohortConfig(n_stays=120, case_fraction=0.3, seed=12))
    for stay in stays[::3]:
        stay.lab_series["bun"] = cohort.EventSeries("bun")
    for stay in stays[::5]:
        stay.lab_series["wbc"] = cohort.EventSeries("wbc")
    write_cohort(stays, tmp_path / "external.jsonl")
    config = dataclasses.replace(small_config(tmp_path / "warm", seed=12),
                                 cohort_path=str(tmp_path / "external.jsonl"))
    config.evaluate = dataclasses.replace(config.evaluate, models=("lr", "lr_bow"))
    warm = run_all(config)
    labels = read_labels(tmp_path / "warm" / "labels.csv")
    assert all(("bins", 24) in s.feature_memo and ("summary", 24) in s.feature_memo
               for s in cohort._last_parse[1] if s.stay_id in labels)
    cold_config = dataclasses.replace(config, out_dir=str(tmp_path / "cold"))
    cold = []
    for stage in STAGES:
        for stay in cohort._last_parse[1] if cohort._last_parse else ():
            stay.feature_memo.clear()
        cold.append(run_stage(stage, cold_config))
    assert [m["outputs"] for m in cold] == [m["outputs"] for m in warm]
    assert all(m["outputs"] for m in warm)


@pytest.fixture
def hashed(monkeypatch):
    """The name of each file `file_sha256` hashes from here on, in order."""
    sha256, names = cohort.file_sha256, []

    def counting(path):
        names.append(Path(path).name)
        return sha256(path)

    monkeypatch.setattr(cohort, "file_sha256", counting)
    monkeypatch.setattr(stages, "file_sha256", counting)
    return names


def test_run_all_hashes_the_cohort_once_per_stage(tmp_path, hashed):
    """Synth asks for the hash of the cohort it wrote and each reader asks for it once,
    for its manifest; `read_cohort` takes that hash and asks only when called without."""
    config = small_config(tmp_path, seed=12)
    config.model = dataclasses.replace(config.model, epochs=0)
    run_all(config)
    readers = [name for name, spec in STAGE_TABLE.items() if "cohort.jsonl" in spec.inputs]
    assert len(readers) == 6
    assert hashed.count("cohort.jsonl") == 1 + len(readers)
    read_cohort(tmp_path / "cohort.jsonl")
    assert hashed.count("cohort.jsonl") == 2 + len(readers)


def test_synth_hashes_an_external_cohort_once(tmp_path, hashed, monkeypatch):
    """Synth asks for the hash of an external cohort once: the hash `run_stage` takes
    for the config hash is the one synth parses by."""
    monkeypatch.setattr(cohort, "_last_parse", None)
    external = tmp_path / "external.jsonl"
    write_cohort(generate_cohort(CohortConfig(n_stays=5, seed=1)), external)
    config = dataclasses.replace(small_config(tmp_path / "run"), cohort_path=str(external))
    manifest = run_stage("synth", config)
    assert hashed == ["external.jsonl", "cohort.jsonl"]
    assert run_stage("synth", config, force=True) == manifest
    assert hashed.count("external.jsonl") == 2
    assert cohort._last_parse[0] == cohort.file_sha256(external)


def test_noop_run_all_reads_each_artifact_once_per_process(tmp_path, digests, aged,
                                                            hash_reads):
    """Past the racy margin, a no-op `run_all` reads each artifact once in a fresh
    process (the digests cleared), and none in a process that has read them."""
    config = small_config(tmp_path, seed=12)
    config.model = dataclasses.replace(config.model, epochs=0)
    manifests = run_all(config)
    digests.clear()
    hash_reads.clear()
    assert run_all(config) == manifests
    artifacts = {name for spec in STAGE_TABLE.values() for name in spec.outputs}
    assert len(artifacts) == 16
    assert hash_reads == {name: (tmp_path / name).stat().st_size for name in artifacts}
    hash_reads.clear()
    assert run_all(config) == manifests
    assert sum(hash_reads.values()) == 0


def test_tampered_cohort_of_same_size_and_mtime_reruns_label(tmp_path, digests, aged,
                                                             rewrite_in_place):
    """Past the racy margin, in a process that kept the cohort's digest, a one-digit
    change that keeps the file's size and mtime still re-runs label."""
    config = small_config(tmp_path, seed=12)
    config.model = dataclasses.replace(config.model, epochs=0)
    label = run_all(config)[1]
    assert run_stage("label", config) == label
    path = tmp_path / "cohort.jsonl"
    assert str(path) in digests
    data = path.read_bytes()
    age = re.search(rb'"age": \d+\.\d*(\d)', data)
    tampered = data[:age.start(1)] + str((int(age[1]) + 1) % 10).encode() + data[age.end(1):]
    rewrite_in_place(path, tampered)
    again = run_stage("label", config)
    assert again["inputs"]["cohort.jsonl"] == hashlib.sha256(tampered).hexdigest()
    assert again["inputs"] != label["inputs"]
    assert json.loads((tmp_path / "manifests" / "label.json").read_text(encoding="utf-8")) \
        == again


def test_cohort_changed_between_stages_is_parsed_again(tmp_path):
    config = small_config(tmp_path, seed=12)
    run_stage("synth", config)
    run_stage("label", config)  # keeps the parse of the full cohort
    kept = cohort._last_parse
    stays = generate_cohort(config.cohort)
    # written elsewhere and copied, so that the kept parse is still the full cohort's
    write_cohort(stays[:40], tmp_path / "cut.jsonl")
    (tmp_path / "cohort.jsonl").write_bytes((tmp_path / "cut.jsonl").read_bytes())
    cohort._last_parse = kept
    run_stage("featurize", config)
    labels = read_labels(tmp_path / "labels.csv")
    rows = (tmp_path / "baseline_features.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == \
        [s.stay_id for s in stays[:40] if s.stay_id in labels]


def test_every_setting_has_a_type_validate_checks():
    """Each field is a scalar that `RunConfig.validate` type-checks, a section it
    checks field by field, or a tuple its range checks read; each section has a seed."""
    sections = [hint for hint in typing.get_type_hints(RunConfig).values()
                if dataclasses.is_dataclass(hint)]
    assert len(sections) == 4
    for cls in (RunConfig, *sections):
        for name, hint in typing.get_type_hints(cls).items():
            assert hint in _SCALAR_TYPES or typing.get_origin(hint) is tuple \
                or (cls is RunConfig and hint in sections), f"{cls.__name__}.{name}: {hint}"
    assert all(typing.get_type_hints(section)["seed"] is int for section in sections)


def test_stage_table_invariants():
    assert STAGES == ("synth", "label", "featurize", "train", "embed", "cluster",
                      "interpret", "evaluate")
    assert STAGES == tuple(STAGE_TABLE)
    run_fields = {f.name for f in dataclasses.fields(RunConfig)}
    produced = set()
    for stage, spec in STAGE_TABLE.items():
        assert set(spec.inputs) <= produced, stage  # made by an earlier stage
        assert not produced & set(spec.outputs), stage  # one producer per file
        assert len(set(spec.outputs)) == len(spec.outputs), stage
        assert set(spec.config_fields) <= run_fields, stage
        produced |= set(spec.outputs)


class TestDependsAndErrors:
    def test_cluster_before_embed_fails(self, tmp_path):
        config = small_config(tmp_path / "fresh")
        with pytest.raises(StageDependencyError, match="representations.csv"):
            run_stage("cluster", config)
        assert not (tmp_path / "fresh").exists()

    def test_dependency_error_names_producer(self, tmp_path):
        config = small_config(tmp_path / "fresh2")
        with pytest.raises(StageDependencyError, match="synth"):
            run_stage("label", config)
        assert not (tmp_path / "fresh2").exists()

    def test_bad_t1_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"t1_hours": 36})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"bogus": 1})

    def test_cluster_feasibility_check(self):
        cluster = small_config("unused").cluster  # k up to 4, t-SNE perplexity 8
        cluster.check_cases(25)
        with pytest.raises(DataError, match="perplexity 8 needs more than 24"):
            cluster.check_cases(24)
        cluster.method = "pca"
        cluster.check_cases(5)
        with pytest.raises(DataError, match="too few for k up to 4"):
            cluster.check_cases(4)

    def test_default_cohort_has_enough_cases_to_cluster(self, tmp_path):
        # the stages after label are too slow for this suite; run_all checks the
        # same count right after label
        config = config_from_dict({"out_dir": str(tmp_path)})
        for stage in ("synth", "label"):
            run_stage(stage, config)
        labels = read_labels(tmp_path / "labels.csv")
        config.cluster.check_cases(sum(lab.is_case for lab in labels.values()))

    def test_unknown_grid_field_fails_before_synth(self, tmp_path):
        config = small_config(tmp_path / "run")
        config.evaluate.grid = ({"width": 3},)  # built in code, not by config_from_dict
        with pytest.raises(ConfigError, match="width"):
            run_stage("synth", config)
        assert not (tmp_path / "run" / "cohort.jsonl").exists()

    def test_run_all_fails_fast_before_featurize(self, tmp_path):
        # default cluster config: t-SNE perplexity 30 needs more than 90 cases
        config = config_from_dict({"seed": 2, "out_dir": str(tmp_path),
                                   "cohort": {"n_stays": 60}})
        with pytest.raises(DataError, match="needs more than 90"):
            run_all(config)
        assert (tmp_path / "manifests" / "label.json").exists()
        assert not (tmp_path / "manifests" / "featurize.json").exists()

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"evaluate": {"models": ["xgboost"]}})

    @pytest.mark.parametrize("raw", MALFORMED_CONFIGS, ids=json.dumps)
    def test_malformed_value_rejected(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_set_in_code_covers_each_single_field_case(self):
        assert len(SET_IN_CODE) == 26

    @pytest.mark.parametrize("raw", SET_IN_CODE, ids=json.dumps)
    def test_malformed_value_set_in_code_fails_before_synth(self, raw, tmp_path):
        config = config_from_dict({"out_dir": str(tmp_path / "run")})
        path, name, value = _one_setting(raw)
        setattr(functools.reduce(getattr, path, config), name,
                tuple(value) if isinstance(value, list) else value)
        with pytest.raises(ConfigError):
            run_stage("synth", config)
        assert not (tmp_path / "run").exists()

    def test_run_seed_set_alone_in_code_fails_before_synth(self, tmp_path):
        config = RunConfig(seed=3, out_dir=str(tmp_path / "run"))
        with pytest.raises(ConfigError, match="'cohort.seed' must equal 'seed' \\(3\\)"):
            run_stage("synth", config)
        assert not (tmp_path / "run").exists()

    def test_section_seed_equal_to_the_run_seed_is_valid(self):
        config = config_from_dict({"seed": 3, "model": {"seed": 3}})
        seeds = [config.seed, config.cohort.seed, config.model.seed, config.cluster.seed,
                 config.evaluate.seed]
        assert seeds == [3] * 5

    def test_emb_dim_alone_is_valid(self):
        # the top note LSTM takes the embedding width; no second setting must agree
        assert config_from_dict({"model": {"emb_dim": 8}}).model.emb_dim == 8


class TestCli:
    def test_cli_synth_and_label(self, tmp_path, capsys):
        cfg = {
            "seed": 3,
            "out_dir": str(tmp_path / "cli-run"),
            "cohort": {"n_stays": 25, "case_fraction": 0.3},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path), "synth"]) == 0
        assert main(["--config", str(cfg_path), "label"]) == 0
        out = capsys.readouterr().out
        assert "[synth] ok" in out and "[label] ok" in out
        assert (tmp_path / "cli-run" / "labels.csv").exists()

    def test_cli_dependency_failure_exit_code_and_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"out_dir": str(tmp_path / "nope")}))
        code = main(["--config", str(cfg_path), "cluster"])
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert code == 3
        assert payload["error"] == "stage_dependency"
        assert not (tmp_path / "nope").exists()

    def test_cli_malformed_config_value_exit_code_and_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"cohort": {"n_stays": "abc"}}))
        code = main(["--config", str(cfg_path), "synth"])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 2
        assert payload["error"] == "config"
        assert "n_stays" in payload["message"]

    @pytest.mark.parametrize("raw", OUT_OF_RANGE_CONFIGS + REMOVED_SETTINGS, ids=json.dumps)
    def test_cli_out_of_range_value_fails_before_synth(self, raw, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**raw, "out_dir": str(out)}))
        code = main(["--config", str(cfg_path), "synth"])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 2
        assert payload["error"] == "config"
        assert not out.exists()

    def test_exit_codes_match_error_categories(self):
        subclasses, todo = set(), [errors.AkisubError]
        while todo:
            for sub in todo.pop().__subclasses__():
                subclasses.add(sub)
                todo.append(sub)
        categories = {sub.category for sub in subclasses}
        assert categories <= set(errors.EXIT_CODES)
        assert set(errors.EXIT_CODES) - categories == {"internal"}

    def test_cli_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        code = main(["--config", str(cfg_path), "synth"])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 2
        assert payload["error"] == "config"

    def test_cli_embed_truncated_checkpoint_exit_code_and_json(self, pipeline_run,
                                                                  tmp_path, capsys):
        out, config, _ = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**config.to_dict(), "out_dir": str(run_dir)}))
        checkpoint = run_dir / "checkpoint.npz"
        checkpoint.write_bytes(checkpoint.read_bytes()[:4096])
        code = main(["--config", str(cfg_path), "embed"])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 4
        assert payload["error"] == "parse"
        assert "checkpoint.npz" in payload["message"]

    @pytest.mark.parametrize("stage,name,corrupt,category,needle", [
        ("cluster", "labels.csv", lambda t: _edit_row(t, 1, lambda f: [f[0], "x", *f[2:]]),
         "parse", "labels.csv: line 2: is_case must be 0 or 1, got 'x'"),
        ("cluster", "labels.csv", lambda t: t.replace("is_case", "case", 1),
         "parse", "labels.csv: line 1: header"),
        ("cluster", "labels.csv", lambda t: _edit_row(t, 1, lambda f: [*f[:3], "0", f[4]]),
         "parse", "labels.csv: line 2: stage must be 1, 2, 3 or empty, got '0'"),
        ("cluster", "labels.csv", lambda t: _edit_row(t, 1, lambda f: [*f[:2], "?", *f[3:]]),
         "parse", "labels.csv: line 2: could not convert"),
        ("cluster", "representations.csv", lambda t: _edit_row(t, 2, lambda f: f[:-1]),
         "parse", "representations.csv: line 3: 20 fields, expected 21"),
        ("cluster", "representations.csv", lambda t: _edit_row(t, 1, lambda f: [f[0], "?", *f[2:]]),
         "parse", "representations.csv: line 2: could not convert"),
        ("cluster", "representations.csv", lambda t: _edit_row(t, 1, lambda f: ["S_X", *f[1:]]),
         "data", "'S_X'"),
        ("interpret", "embedding2d.csv", lambda t: _edit_row(t, 1, lambda f: f[:3]),
         "parse", "embedding2d.csv: line 2: 3 fields, expected 4"),
        ("interpret", "embedding2d.csv", lambda t: _edit_row(t, 1, lambda f: [*f[:3], "a"]),
         "parse", "embedding2d.csv: line 2: invalid literal"),
        ("interpret", "embedding2d.csv", lambda t: "", "parse", "embedding2d.csv: line 1"),
        ("cluster", "representations.csv",
         lambda t: _edit_row(t, 1, lambda f: [f[0], "nan", *f[2:]]),
         "parse", "representations.csv: line 2: values must be finite numbers"),
        ("interpret", "embedding2d.csv",
         lambda t: _edit_row(t, 2, lambda f: [f[0], "inf", *f[2:]]),
         "parse", "embedding2d.csv: line 3: values must be finite numbers"),
        ("embed", "scaling.json",
         lambda t: json.dumps({**json.loads(t), "vmax": [float("nan")] * 21}),
         "parse", "scaling.json: malformed scaling (ValueError: values must be finite numbers)"),
        ("embed", "scaling.json", lambda t: "{}", "parse", "scaling.json: malformed scaling"),
        ("embed", "scaling.json", lambda t: t.replace('"creatinine", ', "", 1),
         "parse", "scaling.json: malformed scaling (ValueError"),
        ("embed", "vocab.txt", lambda t: "<pad>\n",
         "parse", "vocab.txt: 1 tokens for the checkpoint's"),
        ("train", "vocab.txt", lambda t: "", "parse", "vocab.txt: expected distinct"),
        ("train", "vocab.txt", lambda t: t + t.split("\n")[1] + "\n",
         "parse", "vocab.txt: expected distinct"),
    ], ids=["labels-is-case", "labels-header", "labels-stage", "labels-onset", "reps-short-row",
            "reps-cell", "reps-unknown-stay", "emb-short-row", "emb-cluster", "emb-empty",
            "reps-nan", "emb-inf", "scaling-nan",
            "scaling-empty", "scaling-variables", "vocab-size", "vocab-empty",
            "vocab-duplicate"])
    def test_cli_malformed_artifact_exit_code_and_json(self, pipeline_run, tmp_path, capsys,
                                                       stage, name, corrupt, category, needle):
        out, config, _ = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**config.to_dict(), "out_dir": str(run_dir)}))
        path = run_dir / name
        path.write_text(corrupt(path.read_text()))
        code = main(["--config", str(cfg_path), stage])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (code, payload["error"]) == (4, category)
        assert needle in payload["message"]

    @pytest.mark.parametrize("reader", [read_labels, read_representations, read_embedding2d,
                                        read_vocab])
    def test_reader_rejects_non_utf8(self, reader, tmp_path):
        path = tmp_path / "artifact.csv"
        path.write_bytes(b"stay_id,\xff\n")
        with pytest.raises(errors.ParseError, match="not UTF-8"):
            reader(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_read_representations_rejects_non_finite_numbers(self, value, tmp_path):
        path = tmp_path / "representations.csv"
        write_representations(["a", "b"], np.ones((2, 3)), path)
        path.write_text(_edit_row(path.read_text(), 2, lambda f: [*f[:3], value]))
        with pytest.raises(errors.ParseError,
                           match=re.escape(f"{path}: line 3: values must be finite")):
            read_representations(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_read_embedding2d_rejects_non_finite_numbers(self, value, tmp_path):
        path = tmp_path / "embedding2d.csv"
        write_embedding2d(["a", "b"], np.ones((2, 2)), np.array([0, 1]), path)
        path.write_text(_edit_row(path.read_text(), 1, lambda f: [f[0], value, *f[2:]]))
        with pytest.raises(errors.ParseError,
                           match=re.escape(f"{path}: line 2: values must be finite")):
            read_embedding2d(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_read_scaling_rejects_non_finite_numbers(self, value, tmp_path):
        path = tmp_path / "scaling.json"
        d = len(features.TIME_VARIABLES)
        mean = np.zeros(d)
        mean[3] = value
        write_scaling(features.ScalingStats("s", mean, np.zeros(d), np.ones(d)), path)
        with pytest.raises(errors.ParseError, match="values must be finite numbers"):
            read_scaling(path)

    def test_vocab_round_trips_tokens_with_other_line_breaks(self, tmp_path):
        vocab = features.Vocabulary(tokens=("<pad>", "a\u2028b", "c\x85", "d\re"))
        write_vocab(vocab, tmp_path / "vocab.txt")
        assert read_vocab(tmp_path / "vocab.txt") == vocab

    @pytest.mark.parametrize("stage,corrupt", [
        ("synth", lambda manifest: [1]),
        ("synth", lambda manifest: "x"),
        ("label", lambda manifest: {k: v for k, v in manifest.items() if k != "outputs"}),
    ], ids=["synth-list", "synth-string", "label-without-outputs"])
    def test_cli_malformed_manifest_is_stale(self, stage, corrupt, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"seed": 3, "out_dir": str(tmp_path / "run"),
                                        "cohort": {"n_stays": 25, "case_fraction": 0.3}}))
        for name in ("synth", "label"):
            assert main(["--config", str(cfg_path), name]) == 0
        mpath = tmp_path / "run" / "manifests" / f"{stage}.json"
        valid = json.loads(mpath.read_text())
        mpath.write_text(json.dumps(corrupt(valid)))
        assert main(["--config", str(cfg_path), stage]) == 0
        assert json.loads(mpath.read_text()) == valid

    def test_cli_t1_override_derives_memory_size(self):
        """--t1 changes t1_hours alone; the memory size is its count of 2-hour windows."""
        config = resolve_config(build_parser().parse_args(["--t1", "48", "synth"]))
        assert config == dataclasses.replace(config_from_dict({}), t1_hours=48)
        assert features.bin_count(config.t1_hours) == 24

    @pytest.mark.parametrize("raw", [None, {"seed": 3, "model": {"seed": 3}}])
    def test_cli_seed_sets_every_seed(self, raw, tmp_path):
        argv = ["--seed", "5", "synth"]
        if raw is not None:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(raw))
            argv = ["--config", str(cfg_path), *argv]
        config = resolve_config(build_parser().parse_args(argv))
        seeds = [config.seed, config.cohort.seed, config.model.seed, config.cluster.seed,
                 config.evaluate.seed]
        assert seeds == [5] * 5

    @pytest.mark.parametrize("content", [None, b'{"seed": "\xff"}'], ids=["absent", "not-utf8"])
    def test_cli_unreadable_config_exit_code(self, content, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        if content is not None:
            cfg_path.write_bytes(content)
        code = main(["--config", str(cfg_path), "synth"])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (code, payload["error"]) == (2, "config")

    def test_cli_seed_and_out_overrides(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--seed", "5", "--out", str(out_a), "synth"]) == 0
        assert main(["--seed", "5", "--out", str(out_b), "synth"]) == 0
        assert (out_a / "cohort.jsonl").read_bytes() == (out_b / "cohort.jsonl").read_bytes()
