"""The benchmark's tracer wraps names by (module, attribute); every one of
them must resolve in the package, or a traced run fails far from the cause."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"memsched.{module}.{attr}"
        for module, attr in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"memsched.{module}"), attr, None))
    ]
    assert not missing, (
        f"bench/tracing.py wraps names the package no longer provides: {', '.join(missing)}"
    )
