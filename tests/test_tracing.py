"""The benchmark's tracer must find every function it wraps by name, so that
renaming or deleting a traced helper fails here and not in a traced bench run."""

import importlib.util
import sys
from pathlib import Path

import bpgates.cli  # noqa: F401  (LAYERS names modules the package does not import)
import bpgates.io  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "bpbench" / "tracing.py"


def test_tracer_wraps_every_layer():
    spec = importlib.util.spec_from_file_location("bpbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = {
        (short, fname): getattr(sys.modules[f"bpgates.{short}"], fname)
        for short, names in tracing.LAYERS.items()
        for fname in names
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (short, fname), original in originals.items():
            wrapped = getattr(sys.modules[f"bpgates.{short}"], fname)
            assert wrapped is not original, f"{short}.{fname} was not wrapped"
            assert wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (short, fname), original in originals.items():
        assert getattr(sys.modules[f"bpgates.{short}"], fname) is original
