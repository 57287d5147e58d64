"""The shared fixtures of ``conftest.py``: the ``calls`` counter."""

import sys

import pytest


class Box:
    def add(self, x, y=0):
        return x + y

    def fail(self):
        raise ValueError("boom")


def scale(x, by=1):
    return x * by


def test_calls_logs_every_target_in_one_call_order(calls):
    box, module = Box(), sys.modules[__name__]
    log = calls((Box, "add"), (Box, "fail"), (module, "scale"))
    assert box.add(1, y=2) == 3
    assert module.scale(3, by=2) == 6
    with pytest.raises(ValueError, match="boom"):
        box.fail()
    assert box.add(4) == 4
    assert log == [("add", (box, 1)), ("scale", (3,)), ("fail", (box,)), ("add", (box, 4))]


def test_calls_restores_every_target(calls, monkeypatch):
    module = sys.modules[__name__]
    originals = Box.__dict__["add"], module.scale
    calls((Box, "add"), (module, "scale"))
    assert (Box.__dict__["add"], module.scale) != originals
    monkeypatch.undo()
    assert (Box.__dict__["add"], module.scale) == originals
