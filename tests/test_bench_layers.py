"""The benchmark's traced pass wraps functions by name; a rename in
``src/lintab`` that drops one of them would crash it, so each name is
checked here.  ``bench/layers.py`` is only loaded, never edited."""

import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in bench/
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("targets", ["LAYER_TARGETS", "ORACLE_TARGETS", "CLI_TARGETS"])
def test_every_traced_target_resolves(layers, targets):
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in getattr(layers, targets) if not hasattr(owner, attr)]
    assert missing == []
