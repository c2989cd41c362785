import contextlib
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


class Overrun(BaseException):
    """Raised in a call that outlives its time_limit; a BaseException, so
    that the CLI's catch-all does not turn it into an exit code."""


@pytest.fixture
def time_limit():
    """time_limit(s) is a context manager that stops its block with Overrun
    after s seconds of wall time, by SIGALRM in the main thread."""
    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise Overrun(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return limit
