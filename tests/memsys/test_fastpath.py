"""Engine-equivalence suite: event engine vs. the event-free fast path.

Every combination of interleaving scheme x scheduling policy x access
pattern (plus PIM all-bank traces) is replayed through both engines and
the resulting :class:`MemSysStats` must agree to the last bit (``repr``
equality, per-channel rows included), as must the per-channel extremes:
every engine produces the same per-request times and reduces them with
the one shared :func:`~repro.memsys.system.reduce_stats`.
"""

import dataclasses

import pytest

from repro.desim import Simulator
from repro.desim.trace import Tracer
from repro.memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    PackedTrace,
    SCHEMES,
    synthesize_trace,
)

SCHEME_NAMES = sorted(SCHEMES)
POLICY_NAMES = ("fcfs", "frfcfs")
PATTERN_NAMES = ("sequential", "strided", "random")


def fresh(trace):
    return [MemRequest(r.op, r.addr) for r in trace]


def pim_all_bank_trace(config, n):
    """All-bank PIM commands round-robining channels, sweeping rows."""
    amap = config.address_map()
    pages = config.timing.pages_per_row
    requests = []
    for i in range(n):
        k = i // config.n_channels
        coords = Coordinates(
            channel=i % config.n_channels,
            row=(k // pages) % config.rows_per_bank,
            column=k % pages,
        )
        requests.append(MemRequest(Op.PIM, amap.encode(coords)))
    return requests


def replay_both(config, trace, copy=fresh):
    """Replay one trace through both engines on fresh systems; the
    per-channel extremes must agree to the last bit as well."""
    event_system = MemorySystem(config)
    event_stats = event_system.replay(copy(trace), engine="event")
    fast_system = MemorySystem(config)
    fast_stats = fast_system.replay(copy(trace), engine="fast")
    assert repr(fast_system.channel_metrics) == repr(
        event_system.channel_metrics
    )
    return event_stats, fast_stats, fast_system


def assert_stats_equivalent(event_stats, fast_stats):
    """Bit-exact comparison: ``repr`` of every field, NaNs and
    per-channel rows included."""
    assert repr(fast_stats) == repr(event_stats)


class TestEngineEquivalence:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_scheme_policy_pattern_grid(self, scheme, policy, pattern):
        config = MemSysConfig(scheme=scheme, policy=policy)
        trace = synthesize_trace(
            pattern, 1500, config, seed=11, write_fraction=0.25
        )
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_pim_all_bank(self, policy):
        config = MemSysConfig(n_channels=2, policy=policy)
        trace = pim_all_bank_trace(config, 1024)
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert_stats_equivalent(event_stats, fast_stats)

    def test_mixed_host_and_pim_trace(self):
        config = MemSysConfig(n_channels=1)
        host = synthesize_trace("sequential", 512, config)
        pim = pim_all_bank_trace(config, 512)
        trace = [
            r for pair in zip(host, pim) for r in pair
        ]
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        # mixed streams reset all-bank state: only the exact tier applies
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats)

    def test_small_and_sub_queue_depth_traces(self):
        config = MemSysConfig()
        for n in (1, 3, config.queue_depth, config.queue_depth + 1):
            trace = synthesize_trace("sequential", n, config)
            event_stats, fast_stats, _ = replay_both(config, trace)
            assert_stats_equivalent(event_stats, fast_stats)

    def test_queue_depth_one(self):
        config = MemSysConfig(queue_depth=1, n_channels=2)
        trace = synthesize_trace("random", 600, config, seed=9)
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    def test_explicit_precharge(self):
        config = MemSysConfig(
            n_channels=1, bankgroups=1, banks_per_group=1,
            precharge_ns=7.5,
        )
        trace = synthesize_trace("random", 800, config, seed=2)
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize(
        "pattern", ("sequential", "strided", "random")
    )
    def test_closed_page_policy(self, policy, pattern):
        config = MemSysConfig(policy=policy, row_policy="closed")
        trace = synthesize_trace(
            pattern, 1200, config, seed=5, write_fraction=0.25
        )
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        # no hits exist to hoist: the closed form stays exact
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert fast_stats.row_hits == 0
        assert fast_stats.row_conflicts == 0
        assert_stats_equivalent(event_stats, fast_stats)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_closed_page_pim_all_bank(self, policy):
        config = MemSysConfig(
            n_channels=2, policy=policy, row_policy="closed"
        )
        trace = pim_all_bank_trace(config, 512)
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert fast_stats.row_hits == 0
        assert_stats_equivalent(event_stats, fast_stats)

    def test_ab_broadcast_stream_uses_exact_tier(self):
        """Register-broadcast traffic always runs the exact tier and
        matches the event engine bit-for-bit."""
        config = MemSysConfig(n_channels=2)
        host = synthesize_trace("sequential", 300, config)
        trace = []
        for i, request in enumerate(host):
            trace.append(request)
            if i % 3 == 0:
                trace.append(MemRequest(Op.AB, request.addr))
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats)


class TestTierSelection:
    def test_streaming_uses_vectorized_tier(self):
        config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
        system = MemorySystem(config)
        system.replay(
            synthesize_trace("sequential", 2048, config), engine="fast"
        )
        assert system.last_replay_engine == "fast-vectorized"

    def test_random_frfcfs_uses_exact_tier(self):
        config = MemSysConfig(
            n_channels=2, scheme="channel-interleaved", policy="frfcfs"
        )
        system = MemorySystem(config)
        system.replay(
            synthesize_trace("random", 2048, config, seed=1),
            engine="fast",
        )
        assert system.last_replay_engine == "fast-exact"

    def test_exact_tier_is_bit_identical(self):
        """The exact tier replicates the event calendar's scheduling
        order, so even float aggregates match bit-for-bit."""
        config = MemSysConfig(policy="frfcfs")
        trace = synthesize_trace(
            "random", 2000, config, seed=4, write_fraction=0.3
        )
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats)


class TestEngineSelection:
    def test_auto_picks_fast_on_private_sim(self):
        config = MemSysConfig()
        system = MemorySystem(config)
        system.replay(synthesize_trace("sequential", 64, config))
        assert system.last_replay_engine.startswith("fast")

    def test_auto_picks_event_on_advanced_private_clock(self):
        """A private sim whose clock already moved (e.g. via submit +
        run) must fall back to the event engine, not raise."""
        config = MemSysConfig()
        system = MemorySystem(config)
        system.submit(MemRequest(Op.READ, 0))
        system.sim.run()
        assert system.sim.now > 0.0
        stats = system.replay(synthesize_trace("sequential", 64, config))
        assert system.last_replay_engine == "event"
        assert stats.n_requests == 65  # the submitted request counts too

    def test_auto_picks_event_on_shared_sim(self):
        config = MemSysConfig()
        system = MemorySystem(config, sim=Simulator())
        system.replay(synthesize_trace("sequential", 64, config))
        assert system.last_replay_engine == "event"

    def test_auto_picks_event_with_tracer(self):
        config = MemSysConfig()
        system = MemorySystem(config)
        system.sim.tracer = Tracer()
        system.replay(synthesize_trace("sequential", 64, config))
        assert system.last_replay_engine == "event"

    def test_unknown_engine_rejected(self):
        config = MemSysConfig()
        with pytest.raises(ValueError, match="unknown engine"):
            MemorySystem(config).replay(
                synthesize_trace("sequential", 16, config),
                engine="warp",
            )

    def test_fast_engine_requires_fresh_clock(self):
        sim = Simulator()

        def ticker():
            yield sim.timeout(5.0)

        sim.process(ticker())
        sim.run()
        config = MemSysConfig()
        system = MemorySystem(config, sim=sim)
        with pytest.raises(RuntimeError, match="fresh simulator clock"):
            system.replay(
                synthesize_trace("sequential", 16, config),
                engine="fast",
            )

    def test_second_replay_rejected_on_fast_engine(self):
        config = MemSysConfig()
        system = MemorySystem(config)
        system.replay(
            synthesize_trace("sequential", 16, config), engine="fast"
        )
        with pytest.raises(RuntimeError, match="fresh MemorySystem"):
            system.replay(
                synthesize_trace("sequential", 16, config),
                engine="fast",
            )


class TestFastPathSideEffects:
    def test_request_fields_written_back(self):
        """Object traces get the same per-request runtime fields from
        both engines, in both fast tiers."""
        for pattern, expected_tier in (
            ("sequential", "fast-vectorized"),
            ("random", "fast-exact"),
        ):
            config = MemSysConfig(
                scheme="channel-interleaved", policy="frfcfs"
            )
            trace = synthesize_trace(pattern, 2048, config, seed=8)
            event_trace = fresh(trace)
            MemorySystem(config).replay(event_trace, engine="event")
            fast_trace = fresh(trace)
            fast_system = MemorySystem(config)
            fast_system.replay(fast_trace, engine="fast")
            assert fast_system.last_replay_engine == expected_tier
            for event_req, fast_req in zip(event_trace, fast_trace):
                assert fast_req.coords == event_req.coords
                assert fast_req.bank_index == event_req.bank_index
                assert fast_req.arrival == event_req.arrival
                assert fast_req.start_service == event_req.start_service
                assert fast_req.finish == event_req.finish
                assert fast_req.outcome == event_req.outcome
                assert fast_req.bits == event_req.bits

    def test_queue_peak_matches_event_collector_at_line_rate(self):
        """Under line-rate injection the reduction's admission-first
        queue peak (clipped at the depth) is exactly the event
        engine's ``TimeWeighted`` maximum."""
        config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
        for n in (4, config.queue_depth, 2048):
            trace = synthesize_trace("sequential", n, config)
            event_system = MemorySystem(config)
            event_system.replay(fresh(trace), engine="event")
            fast_system = MemorySystem(config)
            fast_system.replay(fresh(trace), engine="fast")
            assert fast_system.last_replay_engine == "fast-vectorized"
            for event_ctrl, metrics in zip(
                event_system.controllers, fast_system.channel_metrics
            ):
                assert metrics["queue_max"] == event_ctrl.queue_len.maximum

    def test_bank_state_matches_event_engine(self):
        config = MemSysConfig()
        trace = synthesize_trace("random", 500, config, seed=6)
        event_system = MemorySystem(config)
        event_system.replay(fresh(trace), engine="event")
        fast_system = MemorySystem(config)
        fast_system.replay(fresh(trace), engine="fast")
        for event_ctrl, fast_ctrl in zip(
            event_system.controllers, fast_system.controllers
        ):
            for event_bank, fast_bank in zip(
                event_ctrl.banks, fast_ctrl.banks
            ):
                assert fast_bank.open_row == event_bank.open_row
                assert fast_bank.hits == event_bank.hits
                assert fast_bank.misses == event_bank.misses
                assert fast_bank.conflicts == event_bank.conflicts

    def test_packed_trace_replay_matches_object_replay(self):
        config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
        objects = synthesize_trace(
            "sequential", 1024, config, write_fraction=0.5, seed=3
        )
        packed = PackedTrace.from_requests(objects)
        object_stats = MemorySystem(config).replay(
            fresh(objects), engine="fast"
        )
        packed_stats = MemorySystem(config).replay(packed, engine="fast")
        assert dataclasses.asdict(packed_stats) == dataclasses.asdict(
            object_stats
        )

    def test_packed_trace_through_event_engine(self):
        config = MemSysConfig()
        packed = synthesize_trace(
            "sequential", 256, config, packed=True
        )
        system = MemorySystem(config)
        stats = system.replay(packed, engine="event")
        assert system.last_replay_engine == "event"
        assert stats.n_requests == 256


def ab_all_bank_trace(config, n):
    """All-bank broadcast commands with the same geometry as
    :func:`pim_all_bank_trace` — the lockstep ``unit_mode="vectorized"``
    machines emit exactly this shape when staging register files."""
    return [
        MemRequest(Op.AB, request.addr)
        for request in pim_all_bank_trace(config, n)
    ]


def replay_both_timed(config, trace):
    """Like :func:`replay_both` but keeping arrival timestamps —
    ``fresh`` strips them, which would hide the backpressure tier."""

    def copy(trace):
        return [
            MemRequest(r.op, r.addr, timestamp=r.timestamp)
            for r in trace
        ]

    return replay_both(config, trace, copy)


class TestAbCertificate:
    """Admission and decline cases for the AB fastpath certificate."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_pure_ab_stream_admitted(self, policy):
        config = MemSysConfig(n_channels=2, policy=policy)
        trace = ab_all_bank_trace(config, 512)
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert fast_stats.n_requests == 512
        assert_stats_equivalent(event_stats, fast_stats)

    def test_ab_prefix_then_pim_admitted(self):
        """The broadcast-then-execute shape every lockstep kernel run
        produces: GRF/SRF staging broadcasts followed by the all-bank
        compute stream stays on the closed-form tier."""
        config = MemSysConfig(n_channels=2)
        trace = ab_all_bank_trace(config, 64) + pim_all_bank_trace(
            config, 512
        )
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert fast_stats.n_requests == 64 + 512
        assert_stats_equivalent(event_stats, fast_stats)

    def test_ab_interleaved_with_pim_admitted(self):
        """AB and PIM may interleave freely: both are all-bank ops, so
        the certificate holds with no host traffic in the channel."""
        config = MemSysConfig(n_channels=2)
        ab = ab_all_bank_trace(config, 256)
        pim = pim_all_bank_trace(config, 256)
        trace = [r for pair in zip(ab, pim) for r in pair]
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert_stats_equivalent(event_stats, fast_stats)

    def test_slow_timestamped_ab_stream_admitted(self):
        """Timestamped arrivals slower than service keep the queue
        empty, so the backpressure certificate passes."""
        config = MemSysConfig(n_channels=2)
        trace = [
            MemRequest(r.op, r.addr, timestamp=i * 1000.0)
            for i, r in enumerate(ab_all_bank_trace(config, 256))
        ]
        event_stats, fast_stats, fast_system = replay_both_timed(
            config, trace
        )
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert_stats_equivalent(event_stats, fast_stats)

    def test_burst_timestamped_ab_stream_declined(self):
        """All arrivals at t=0 overflow the queue: the backpressure
        certificate fails and the exact tier reproduces the event
        calendar bit-for-bit."""
        config = MemSysConfig(n_channels=2)
        trace = [
            MemRequest(r.op, r.addr, timestamp=0.0)
            for r in ab_all_bank_trace(config, 256)
        ]
        event_stats, fast_stats, fast_system = replay_both_timed(
            config, trace
        )
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats)

    def test_per_bank_refresh_ab_stream_declined(self):
        """Per-bank refresh staggers the banks out of lockstep, which
        an all-bank closed form cannot express: exact tier, bit-exact."""
        config = MemSysConfig(
            n_channels=2,
            trefi_ns=3900.0,
            trfc_ns=350.0,
            refresh_granularity="per-bank",
        )
        trace = ab_all_bank_trace(config, 512)
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats)

    def test_host_traffic_poisons_the_certificate(self):
        """A single host read inside an otherwise pure AB channel must
        decline the whole channel — no silent approximation."""
        config = MemSysConfig(n_channels=2)
        trace = ab_all_bank_trace(config, 256)
        host = synthesize_trace("sequential", 1, config)
        trace.insert(128, host[0])
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats)


class TestVectorCommit:
    """The vectorized tier loads its closed-form bank state through
    ``ChannelController.load_state``, one call per controller, and the
    loaded state matches the event engine's banks."""

    def _traces(self):
        config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
        ab = ab_all_bank_trace(config, 128)
        pim = pim_all_bank_trace(config, 128)
        refresh = MemSysConfig(
            n_channels=2,
            scheme="channel-interleaved",
            trefi_ns=500.0,
            trfc_ns=60.0,
        )
        return {
            "streaming": (config, synthesize_trace("sequential", 512, config)),
            "pim-ab": (config, [r for pair in zip(ab, pim) for r in pair]),
            "timestamped": (
                config,
                synthesize_trace(
                    "sequential", 512, config, interarrival_ns=3.0
                ),
            ),
            "per-rank-refresh": (
                refresh,
                synthesize_trace("sequential", 512, refresh),
            ),
        }

    @pytest.mark.parametrize(
        "case", ["streaming", "pim-ab", "timestamped", "per-rank-refresh"]
    )
    def test_commit_loads_engine_state(self, case, monkeypatch):
        from repro.memsys.controller import ChannelController

        config, trace = self._traces()[case]
        copy = lambda: [
            MemRequest(r.op, r.addr, r.timestamp) for r in trace
        ]
        event_system = MemorySystem(config)
        event_system.replay(copy(), engine="event")
        loads = []
        original = ChannelController.load_state

        def spy(controller, state):
            loads.append(controller.channel_id)
            return original(controller, state)

        monkeypatch.setattr(ChannelController, "load_state", spy)
        fast_system = MemorySystem(config)
        fast_system.replay(copy(), engine="fast")
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert loads == list(range(config.n_channels))
        for event_ctrl, fast_ctrl in zip(
            event_system.controllers, fast_system.controllers
        ):
            expected = event_ctrl.export_state()
            actual = fast_ctrl.export_state()
            # the closed form applies refresh epochs as fences, without
            # the controller's lazy per-bank bookkeeping
            del expected["refresh_applied"], actual["refresh_applied"]
            assert actual == expected
