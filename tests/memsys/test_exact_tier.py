"""The exact fast-path tier must reproduce the event engine bit for bit.

Under the ``exact_tier`` fixture's pin, ``engine="fast"`` replays every
trace with the exact tier's own index-based loop; the desim event engine
(driving :class:`~repro.memsys.controller.ChannelController`) is the
oracle.  Every case requires, with ``==`` and no tolerance:

* every controller's :meth:`~ChannelController.export_state` (bank
  counters and open rows, applied refresh epochs);
* all eight latency-recorder arrays;
* the runtime fields written back onto object traces;
* ``repr`` of the :class:`~repro.memsys.MemSysStats` (per-channel rows
  included) and the per-channel extremes.

The grid crosses policy, row policy, queue depth, refresh, timestamps
and traffic mix; a hypothesis test covers arbitrary mixed streams.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.dram import DramMacroTiming
from repro.errors import ReplayStateError
from repro.memsys import MemRequest, MemorySystem, MemSysConfig, Op
from repro.memsys.fastpath import _check_progress
from repro.memsys.trace import PackedTrace
from repro.telemetry import ReplayTelemetry

RECORDER_ARRAYS = (
    "arrival", "start_service", "finish", "outcome_code",
    "channel", "bank", "row", "op_code",
)
WRITE_BACK_FIELDS = (
    "coords", "bank_index", "arrival", "start_service", "finish",
    "outcome", "bits",
)
#: Timings whose sums are inexact in binary floating point (and whose
#: conflicts cost more than misses), so any change in the order or
#: association of a float accumulation shows up in the last ulp.
IRREGULAR = {
    "timing": DramMacroTiming(row_access_ns=19.7, page_access_ns=2.3),
    "precharge_ns": 0.9,
}
REFRESH = {
    "none": {},
    "per-rank": {"trefi_ns": 400.0, "trfc_ns": 50.0},
    "per-bank": {
        "trefi_ns": 400.0,
        "trfc_ns": 30.0,
        "refresh_granularity": "per-bank",
    },
}
TIMINGS = {"paper": {}, "irregular": IRREGULAR}
#: Op mix per traffic kind: (READ, WRITE, PIM, AB) weights.
TRAFFIC = {
    "host": (0.6, 0.4, 0.0, 0.0),
    "pim": (0.0, 0.0, 1.0, 0.0),
    "ab": (0.45, 0.3, 0.0, 0.25),
    "mixed": (0.4, 0.25, 0.2, 0.15),
}
OPS = (Op.READ, Op.WRITE, Op.PIM, Op.AB)


def build_trace(config, traffic, timestamped, n=240, seed=0):
    """Random requests over a few rows per bank (so FR-FCFS finds hits),
    optionally timestamped with gaps (in tenths of a ns, inexact in
    binary) that both idle and flood queues and include same-instant
    arrivals."""
    rng = np.random.default_rng(seed)
    ops = rng.choice(4, size=n, p=TRAFFIC[traffic])
    fields = {
        "channel": rng.integers(0, config.n_channels, n),
        "bankgroup": rng.integers(0, config.bankgroups, n),
        "bank": rng.integers(0, config.banks_per_group, n),
        "row": rng.integers(0, 3, n),
        "column": rng.integers(0, 4, n),
    }
    addrs = config.address_map().encode_fields(fields)
    times = None
    if timestamped:
        gaps = np.round(rng.exponential(6.0, n) * 10.0) / 10.0
        times = np.cumsum(gaps)
    return ops, addrs, times


def object_trace(ops, addrs, times):
    return [
        MemRequest(
            OPS[code], addr, None if times is None else float(times[i])
        )
        for i, (code, addr) in enumerate(zip(ops.tolist(), addrs.tolist()))
    ]


def replay_pair(config, trace_builder, exact_tier):
    """(system, telemetry, requests) for the event engine and the
    pinned exact tier, each on a fresh system and fresh requests."""
    event_requests = trace_builder()
    event_system = MemorySystem(config)
    event_telemetry = ReplayTelemetry()
    event_system.replay(
        event_requests, engine="event", telemetry=event_telemetry
    )
    fast_requests = trace_builder()
    fast_system = MemorySystem(config)
    fast_telemetry = ReplayTelemetry()
    with exact_tier():
        fast_system.replay(
            fast_requests, engine="fast", telemetry=fast_telemetry
        )
    assert fast_system.last_replay_engine == "fast-exact"
    return (
        (event_system, event_telemetry, event_requests),
        (fast_system, fast_telemetry, fast_requests),
    )


def assert_bit_identical(event, fast):
    event_system, event_telemetry, event_requests = event
    fast_system, fast_telemetry, fast_requests = fast
    assert fast_system.sim.now == event_system.sim.now
    assert repr(fast_telemetry.stats) == repr(event_telemetry.stats)
    assert repr(fast_system.channel_metrics) == repr(
        event_system.channel_metrics
    )
    for expected, actual in zip(
        event_system.controllers, fast_system.controllers
    ):
        assert actual.export_state() == expected.export_state()
    for name in RECORDER_ARRAYS:
        expected = getattr(event_telemetry.recorder, name)
        actual = getattr(fast_telemetry.recorder, name)
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name
    if isinstance(fast_requests, list):
        for expected, actual in zip(event_requests, fast_requests):
            for name in WRITE_BACK_FIELDS:
                assert getattr(actual, name) == getattr(expected, name), (
                    name
                )


@pytest.mark.parametrize("traffic", sorted(TRAFFIC))
@pytest.mark.parametrize("timestamped", [False, True])
@pytest.mark.parametrize("refresh", sorted(REFRESH))
@pytest.mark.parametrize("queue_depth", [1, 2, 16])
@pytest.mark.parametrize("row_policy", ["open", "closed"])
@pytest.mark.parametrize("policy", ["fcfs", "frfcfs"])
def test_exact_tier_matches_event_engine(
    policy, row_policy, queue_depth, refresh, timestamped, traffic,
    exact_tier,
):
    config = MemSysConfig(
        policy=policy,
        row_policy=row_policy,
        queue_depth=queue_depth,
        **REFRESH[refresh],
        **IRREGULAR,
    )
    ops, addrs, times = build_trace(
        config, traffic, timestamped, seed=queue_depth
    )
    event, fast = replay_pair(
        config, lambda: object_trace(ops, addrs, times), exact_tier
    )
    assert_bit_identical(event, fast)


@pytest.mark.parametrize("timestamped", [False, True])
def test_packed_trace_matches_event_engine(timestamped, exact_tier):
    """Packed inputs take the same loop; only the write-back is skipped."""
    config = MemSysConfig(trefi_ns=400.0, trfc_ns=30.0, **IRREGULAR)
    ops, addrs, times = build_trace(config, "mixed", timestamped, n=600)
    event, fast = replay_pair(
        config, lambda: PackedTrace(ops, addrs, times), exact_tier
    )
    assert_bit_identical(event, fast)


def test_idle_channel_reduces_to_an_empty_row(exact_tier):
    """A channel no request routes to reduces to zero requests, NaN
    latencies and a zero busy fraction on both engines."""
    config = MemSysConfig(n_channels=4)
    ops, addrs, times = build_trace(config, "host", False)
    fields = config.address_map().decode_fields(addrs)
    keep = fields["channel"] != 3
    event, fast = replay_pair(
        config,
        lambda: object_trace(ops[keep], addrs[keep], None),
        exact_tier,
    )
    assert_bit_identical(event, fast)
    assert fast[1].stats.per_channel[3]["requests"] == 0
    assert math.isnan(fast[1].stats.per_channel[3]["mean_latency_ns"])
    assert fast[0].channel_metrics[3]["busy_fraction"] == 0.0
    assert fast[0].channel_metrics[3]["queue_max"] == 0.0


@st.composite
def mixed_streams(draw):
    n_channels = draw(st.sampled_from([1, 2, 4]))
    config = MemSysConfig(
        n_channels=n_channels,
        policy=draw(st.sampled_from(["fcfs", "frfcfs"])),
        row_policy=draw(st.sampled_from(["open", "closed"])),
        queue_depth=draw(st.integers(1, 6)),
        **REFRESH[draw(st.sampled_from(sorted(REFRESH)))],
        **TIMINGS[draw(st.sampled_from(sorted(TIMINGS)))],
    )
    n = draw(st.integers(1, 80))
    requests = draw(
        st.lists(
            st.tuples(
                st.sampled_from(range(4)),  # op code
                st.integers(0, n_channels - 1),
                st.integers(0, config.banks_per_channel - 1),
                st.integers(0, 2),  # row
            ),
            min_size=n,
            max_size=n,
        )
    )
    gaps = None
    if draw(st.booleans()):
        gaps = draw(
            st.lists(
                st.sampled_from([0.0, 0.1, 0.5, 2.0, 7.3, 22.0, 60.0]),
                min_size=n,
                max_size=n,
            )
        )
    codes = np.array([r[0] for r in requests])
    flat = np.array([r[2] for r in requests])
    fields = {
        "channel": np.array([r[1] for r in requests]),
        "bankgroup": flat // config.banks_per_group,
        "bank": flat % config.banks_per_group,
        "row": np.array([r[3] for r in requests]),
    }
    addrs = config.address_map().encode_fields(fields)
    times = None if gaps is None else np.cumsum(gaps)
    return config, codes, addrs, times


@settings(
    max_examples=120,
    deadline=None,
    # exact_tier hands out a fresh pin per example, so sharing the
    # function-scoped fixture across examples is safe
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture
    ],
)
@given(stream=mixed_streams())
def test_exact_tier_matches_event_engine_on_mixed_streams(
    exact_tier, stream
):
    config, codes, addrs, times = stream
    event, fast = replay_pair(
        config, lambda: object_trace(codes, addrs, times), exact_tier
    )
    assert_bit_identical(event, fast)


class TestProgressInvariant:
    def test_unfinished_request_is_named(self):
        finish = np.array([4.0, 9.0, math.nan, 13.0, math.nan])
        channel = np.array([0, 1, 1, 0, 0])
        with pytest.raises(ReplayStateError) as caught:
            _check_progress(finish, channel)
        message = str(caught.value)
        assert "2 request(s) unfinished" in message
        assert "trace index 2" in message
        assert "channel 1" in message
        assert isinstance(caught.value, RuntimeError)

    def test_complete_replay_passes(self):
        _check_progress(np.array([1.0, 2.0]), np.array([0, 1]))
