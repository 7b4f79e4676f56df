"""Shared fixtures for the repro test suite."""

import contextlib
import signal
import threading

import numpy as np
import pytest

from repro.desim import Simulator

#: Per-test wall-clock ceiling (s), far above the slowest test (a few
#: seconds), so a hang fails its test instead of stalling the suite.
#: ``faulthandler_timeout`` in pytest.ini dumps every thread's stack
#: shortly before it fires.
TEST_CEILING_S = 180.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail the running test once it exceeds ``TEST_CEILING_S``."""
    if not (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    ):
        return (yield)

    def _expired(signum, frame):
        pytest.fail(
            f"{item.nodeid} exceeded the {TEST_CEILING_S:.0f}s "
            "per-test ceiling"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_CEILING_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator starting at t=0."""
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for tests that sample."""
    return np.random.default_rng(12345)


@pytest.fixture
def exact_tier(monkeypatch):
    """Context-manager factory pinning the fast path's exact tier.

    Inside ``with exact_tier():`` every vectorized certificate declines,
    so ``engine="fast"`` replays through ``_replay_exact`` even on
    traces the closed form would certify.
    """
    from repro.memsys import fastpath

    @contextlib.contextmanager
    def pinned():
        with monkeypatch.context() as patch:
            patch.setattr(fastpath, "_vector_plan", lambda *args: None)
            yield

    return pinned
