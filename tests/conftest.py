"""A time limit per test, so a scheduling loop that never ends fails its
test instead of stalling the suite. It uses ``signal.alarm`` and is
installed only where the platform has ``SIGALRM``. The ``line_budget``
fixture measures work as executed lines, which do not depend on the host's
speed. The ``calls`` fixture counts the calls a run makes to chosen
functions. The ``golden`` fixture builds the golden corpus once per
session."""

import contextlib
import signal
import sys

import pytest

TEST_LIMIT_S = 60

if hasattr(signal, "SIGALRM"):

    @pytest.fixture(autouse=True)
    def time_limit():
        def expire(signum, frame):
            raise TimeoutError(f"test ran longer than {TEST_LIMIT_S} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(TEST_LIMIT_S)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def _line_budget(module, limit):
    path = module.__file__
    ran = [0]

    def count(frame, event, arg):
        if event == "line":
            ran[0] += 1
            if ran[0] > limit:
                raise AssertionError(f"{module.__name__} ran more than {limit} lines")
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code.co_filename == path else None)
    try:
        yield ran
    finally:
        sys.settrace(previous)


@pytest.fixture
def line_budget():
    """``with line_budget(module, limit) as ran:`` counts in ``ran[0]`` the
    lines ``module``'s own functions execute inside the block, and fails the
    test as soon as more than ``limit`` run, so a loop that walks every cycle
    fails at once instead of running to its end."""
    return _line_budget


@pytest.fixture
def calls(monkeypatch):
    """``log = calls((owner, name), ...)`` replaces each ``owner.name`` with a
    wrapper that appends ``(name, args)`` to ``log``, one list shared by every
    target in call order, and then runs the original. Each target is
    restored at teardown."""
    log = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            log.append((name, args))
            return original(*args, **kwargs)
        return wrapper

    def count(*targets):
        for owner, name in targets:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        return log

    return count


@pytest.fixture(scope="session")
def golden():
    """``golden_corpus.build()``: every golden instance, its outputs and
    safety findings, and the time each corpus took."""
    import golden_corpus

    return golden_corpus.build()
