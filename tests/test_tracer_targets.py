"""The benchmark's tracer (`bench/tracer.py`) wraps akisub functions by name and
its hooks read some of their positional arguments; a rename or a reordered
signature would pass every other test and only break a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("akisub_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("module_name,attr_path", [t[:2] for t in TARGETS],
                         ids=[f"{m}.{a}" for m, a, _ in TARGETS])
def test_target_resolves(module_name, attr_path):
    owner = importlib.import_module(f"akisub.{module_name}")
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("module_name,function,names", [
    ("stages", "run_stage", ["stage"]),
    ("autodiff", "backward", ["tape"]),
    ("memnet", "train", ["prepared", "hyper"]),
    ("memnet", "encode_notes_batch", ["params", "batch_seqs"]),
])
def test_hooked_arguments_keep_their_positions(module_name, function, names):
    fn = getattr(importlib.import_module(f"akisub.{module_name}"), function)
    assert list(inspect.signature(fn).parameters)[:len(names)] == names
