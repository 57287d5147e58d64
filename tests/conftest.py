"""A time limit per test, so a scheduling loop that never ends fails its
test instead of stalling the suite. It uses ``signal.alarm`` and is
installed only where the platform has ``SIGALRM``."""

import signal

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
