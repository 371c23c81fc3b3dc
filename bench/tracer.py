"""In-memory span tracer that wraps akisub's public functions from outside.

`Tracer.install()` replaces each target function with a timing wrapper, both
on the module that defines it and on every akisub module that imported it by
name (for example `stages.read_cohort` or `memnet.backward`); a wrapper placed
only on the defining module would miss calls made through those bindings.
Spans stay in memory until `write()`; `layer_metrics()` turns them into the
per-layer metrics named `<module>.<function>.<measure>`.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path, span name); `stages.run_stage` is named per stage.
TARGETS = (
    ("stages", "run_stage", None),
    ("autodiff", "backward", "autodiff.backward"),
    ("nn", "lstm_cell", "nn.lstm_cell"),
    ("nn", "Adam.step", "nn.Adam.step"),
    ("memnet", "train", "memnet.train"),
    ("memnet", "batch_loss", "memnet.batch_loss"),
    ("memnet", "encode_notes_batch", "memnet.encode_notes_batch"),
    ("memnet", "multi_hop_batch", "memnet.multi_hop_batch"),
    ("memnet", "embed_stays", "memnet.embed_stays"),
    ("memnet", "predict_stays", "memnet.predict_stays"),
    ("memnet", "save_checkpoint", "memnet.save_checkpoint"),
    ("memnet", "load_checkpoint", "memnet.load_checkpoint"),
    ("baselines", "lr_train", "baselines.lr_train"),
    ("baselines", "lr_predict", "baselines.lr_predict"),
    ("baselines", "lstm_baseline_train", "baselines.lstm_baseline_train"),
    ("baselines", "lstm_baseline_predict", "baselines.lstm_baseline_predict"),
    ("baselines", "hielstm_only_train", "baselines.hielstm_only_train"),
    ("baselines", "hielstm_only_predict", "baselines.hielstm_only_predict"),
    ("crossval", "nested_cv", "crossval.nested_cv"),
    ("crossval", "grouped_stratified_folds", "crossval.grouped_stratified_folds"),
    ("cohort", "generate_cohort", "cohort.generate_cohort"),
    ("cohort", "write_cohort", "cohort.write_cohort"),
    ("cohort", "read_cohort", "cohort.read_cohort"),
    ("kdigo", "apply_exclusions", "kdigo.apply_exclusions"),
    ("features", "bin_events", "features.bin_events"),
    ("features", "summarize_for_baselines", "features.summarize_for_baselines"),
    ("features", "prepare_stays", "features.prepare_stays"),
    ("features", "impute_and_scale", "features.impute_and_scale"),
    ("features", "build_vocabulary", "features.build_vocabulary"),
    ("features", "write_stay_tensors", "features.write_stay_tensors"),
    ("features", "write_baseline_features", "features.write_baseline_features"),
    ("clustering", "tsne_embed", "clustering.tsne_embed"),
    ("clustering", "select_k", "clustering.select_k"),
    ("clustering", "kmeans", "clustering.kmeans"),
    ("stats", "build_subtype_report", "stats.build_subtype_report"),
    ("stats", "stage_composition", "stats.stage_composition"),
)

# span names whose call count is a per-layer metric
COUNTED = ("autodiff.backward", "nn.lstm_cell", "cohort.read_cohort",
           "features.bin_events", "features.summarize_for_baselines",
           "features.prepare_stays", "clustering.kmeans")


class Tracer:
    """Records (name, start, end, parent) spans, a few work counters, and the
    time spent on its own bookkeeping."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.overhead_s = 0.0  # time the wrappers spent outside the wrapped calls
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _wrap(self, fn, name, on_call):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            if on_call is not None:
                on_call(self, args, kwargs)
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self.overhead_s += span[1] - entered + clock() - span[2]
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every target wherever akisub binds it; returns self."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "akisub" or n.startswith("akisub.")]
        for module_name, attr_path, span_name in TARGETS:
            owner = sys.modules[f"akisub.{module_name}"]
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name or _stage_span_name,
                                 _HOOKS.get(span_name))
            self._set(owner, attr, wrapper)
            if outer:
                continue  # a method is reached through its class only
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)
        return self

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every original binding back (spans and counters are kept)."""
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def write(self, path) -> None:
        """One JSON line per span: id, parent id, name, start and end seconds."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans and counters."""
        totals = self.totals()
        metrics: dict[str, float] = {}
        for module_name, attr_path, span_name in TARGETS:
            if span_name is not None:
                metrics[f"{span_name}.s"] = totals.get(span_name, {}).get("s", 0.0)
        from akisub.stages import STAGES
        for stage in STAGES:
            metrics[f"stages.{stage}.s"] = totals.get(f"stages.{stage}", {}).get("s", 0.0)
        for name in COUNTED:
            metrics[f"{name}.calls"] = totals.get(name, {}).get("calls", 0)
        c = self.counters
        metrics["autodiff.backward.tape_nodes"] = _per(
            c.get("tape_nodes", 0), metrics["autodiff.backward.calls"])
        metrics["memnet.word_pad_eff"] = _per(c.get("word_steps_used", 0),
                                              c.get("word_steps", 0))
        metrics["memnet.note_pad_eff"] = _per(c.get("note_steps_used", 0),
                                              c.get("note_steps", 0))
        metrics["memnet.train.stays_per_s"] = _per(c.get("train_stays", 0),
                                                   metrics["memnet.train.s"])
        return metrics


def _per(num, den) -> float:
    return num / den if den else 0.0


def _stage_span_name(args) -> str:
    return f"stages.{args[0]}"


def _on_backward(tracer, args, kwargs):
    tracer.count("tape_nodes", len(args[0]))


def _on_encode_notes_batch(tracer, args, kwargs):
    """Padding efficiency of the word-level and note-level LSTMs for one call.

    The word LSTM runs every note for the longest note's length; the note LSTM
    runs every stay for the most notes any stay has (a stay with no notes reads
    one null note)."""
    batch_seqs = args[1]
    lengths = [len(seq) for seqs in batch_seqs for seq in seqs]
    if lengths:
        tracer.count("word_steps_used", sum(lengths))
        tracer.count("word_steps", len(lengths) * max(lengths))
    notes = [max(len(seqs), 1) for seqs in batch_seqs]
    tracer.count("note_steps_used", sum(notes))
    tracer.count("note_steps", len(notes) * max(notes))


def _on_train(tracer, args, kwargs):
    prepared, hyper = args[0], args[1]
    tracer.count("train_stays", len(prepared) * hyper.epochs)


_HOOKS = {
    "autodiff.backward": _on_backward,
    "memnet.encode_notes_batch": _on_encode_notes_batch,
    "memnet.train": _on_train,
}
