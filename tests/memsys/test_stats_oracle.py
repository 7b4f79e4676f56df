"""The array reduction against the event engine's streaming collectors.

Every engine reduces :class:`~repro.memsys.MemSysStats` from per-request
times with :func:`~repro.memsys.system.reduce_stats`.  The event engine's
:class:`~repro.memsys.controller.ChannelController` still streams its
``Tally`` / ``TimeWeighted`` / ``StateTimer`` / ``Counter`` collectors as
it runs, so they are an independent oracle for that reduction: on the
engine-equivalence grids, counts must match exactly and every float to
within 1e-12 relative (the collectors sum in calendar order, the
reduction with numpy).  The queue peak follows the reduction's
admission-first rule, so it may exceed the calendar's by one transient
slot, never past the queue depth.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings

from repro.desim import Simulator
from repro.memsys import (
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    PackedTrace,
    SCHEMES,
    synthesize_trace,
)
from tests.memsys.test_exact_tier import (
    IRREGULAR,
    REFRESH,
    TRAFFIC,
    build_trace,
    mixed_streams,
)

REL = 1e-12


def close(actual, expected, what):
    if math.isnan(expected):
        assert math.isnan(actual), what
    else:
        assert actual == pytest.approx(expected, rel=REL, abs=0.0), what


def assert_matches_collectors(system, stats):
    """The reduction's stats and extremes against the collectors."""
    now = system.sim.now
    depth = system.config.queue_depth
    merged = None
    queue_sum = busy_sum = 0.0
    for controller, row, extremes in zip(
        system.controllers, stats.per_channel, system.channel_metrics
    ):
        what = f"channel {controller.channel_id}"
        assert row["requests"] == controller.completed.count, what
        assert (
            row["gbit_delivered"] == controller.bits_delivered.count / 1e9
        ), what
        latency = controller.latency
        close(row["mean_latency_ns"], latency.mean, what)
        close(extremes["latency_min_ns"], latency.minimum, what)
        close(extremes["latency_max_ns"], latency.maximum, what)
        busy = controller.utilization.fraction("busy", now)
        close(extremes["busy_fraction"], busy, what)
        peak = controller.queue_len.maximum
        assert peak <= extremes["queue_max"] <= min(peak + 1, depth), what
        queue = controller.queue_len.time_average(now)
        queue_sum += 0.0 if math.isnan(queue) else queue
        busy_sum += 0.0 if math.isnan(busy) else busy
        merged = latency if merged is None else merged.merge(latency)
    n_channels = len(system.controllers)
    assert stats.n_requests == sum(
        c.completed.count for c in system.controllers
    )
    assert stats.total_bits == sum(
        c.bits_delivered.count for c in system.controllers
    )
    assert stats.makespan_ns == now
    close(stats.mean_queue_latency_ns, merged.mean, "mean latency")
    close(stats.mean_queue_length, queue_sum / n_channels, "queue length")
    close(stats.channel_utilization, busy_sum / n_channels, "utilization")


def replay_event(config, trace):
    system = MemorySystem(config)
    stats = system.replay(trace, engine="event")
    return system, stats


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("policy", ("fcfs", "frfcfs"))
@pytest.mark.parametrize("pattern", ("sequential", "strided", "random"))
def test_scheme_policy_pattern_grid(scheme, policy, pattern):
    config = MemSysConfig(scheme=scheme, policy=policy)
    trace = synthesize_trace(
        pattern, 1500, config, seed=11, write_fraction=0.25
    )
    assert_matches_collectors(*replay_event(config, trace))


@pytest.mark.parametrize("traffic", sorted(TRAFFIC))
@pytest.mark.parametrize("timestamped", [False, True])
@pytest.mark.parametrize("refresh", sorted(REFRESH))
@pytest.mark.parametrize("queue_depth", [1, 4])
@pytest.mark.parametrize("policy", ["fcfs", "frfcfs"])
def test_traffic_refresh_arrival_grid(
    policy, queue_depth, refresh, timestamped, traffic
):
    """Host/PIM/AB mixes, refresh stalls, idle gaps and same-instant
    arrivals, on timings whose float sums are inexact."""
    config = MemSysConfig(
        policy=policy,
        queue_depth=queue_depth,
        **REFRESH[refresh],
        **IRREGULAR,
    )
    ops, addrs, times = build_trace(
        config, traffic, timestamped, n=400, seed=queue_depth
    )
    trace = PackedTrace(ops, addrs, times)
    assert_matches_collectors(*replay_event(config, trace))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(stream=mixed_streams())
def test_mixed_streams(stream):
    config, codes, addrs, times = stream
    trace = PackedTrace(codes, addrs, times)
    assert_matches_collectors(*replay_event(config, trace))


def test_requests_submitted_before_the_replay_count():
    """A request submitted (and served) before the replay is part of
    the arrays the event engine reduces."""
    config = MemSysConfig()
    system = MemorySystem(config)
    system.submit(MemRequest(Op.READ, 0))
    system.sim.run()
    stats = system.replay(synthesize_trace("sequential", 64, config))
    assert stats.n_requests == 65
    assert_matches_collectors(system, stats)


def test_observation_starts_at_construction():
    """On a shared clock that already advanced, time averages span from
    the controllers' construction, not from zero."""
    sim = Simulator()

    def ticker():
        yield sim.timeout(50.0)

    sim.process(ticker())
    sim.run()
    config = MemSysConfig()
    system = MemorySystem(config, sim=sim)
    stats = system.replay(
        synthesize_trace("random", 300, config, seed=3), engine="event"
    )
    assert_matches_collectors(system, stats)
