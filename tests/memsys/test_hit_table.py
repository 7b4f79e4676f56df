"""The FR-FCFS open-row tables must never change selections.

``ChannelController._select`` skips the queue scan when its open-row
table says no queued request hits, and the exact fast-path tier skips
its own scan on the same condition, read from its queued-hit table.
These tests replay traces through both against the event engine running
a *reference* ``_select`` that always runs the full scan (the pre-table
implementation) and require bit-identical results, so a table that ever
under-counts hits — skipping a scan that would have hoisted one —
cannot land silently.
"""

import numpy as np
import pytest

from repro.memsys import (
    MemRequest,
    MemorySystem,
    MemSysConfig,
    Op,
    synthesize_trace,
)
from repro.memsys.controller import ChannelController


def _reference_select(self):
    """The pre-table FR-FCFS selection: always scan the queue."""
    candidate = self._refresh_candidate
    if candidate is not None:
        self._refresh_candidate = None
        return candidate
    if self.policy == "frfcfs":
        ab = Op.AB
        banks = self.banks
        for request in self.pending:
            if request.op is ab:
                break
            index = request.bank_index
            if index is None:
                continue
            if banks[index].open_row == request.coords.row:
                return request
    return self.pending[0]


def _replay(trace, config, engine):
    """Replay on ``engine`` (``"fast"`` under the ``exact_tier`` pin)."""
    system = MemorySystem(config)
    stats = system.replay(trace, engine=engine)
    if engine == "fast":
        assert system.last_replay_engine == "fast-exact"
    return stats.summary(), [c.export_state() for c in system.controllers]


def _stats_pair(trace_builder, config, engine, monkeypatch, exact_tier):
    """``engine``'s result, and the full-scan event engine's; the fast
    path runs with the exact tier pinned (the vectorized tier has no
    selection to skip)."""
    with exact_tier():
        table = _replay(trace_builder(), config, engine)
    with monkeypatch.context() as patch:
        patch.setattr(ChannelController, "_select", _reference_select)
        reference = _replay(trace_builder(), config, "event")
    return table, reference


@pytest.mark.parametrize("engine", ["event", "fast"])
@pytest.mark.parametrize(
    "pattern", ["random", "sequential", "strided", "blocked_reuse"]
)
def test_selection_matches_reference_scan(
    pattern, engine, monkeypatch, exact_tier
):
    config = MemSysConfig()
    table, reference = _stats_pair(
        lambda: synthesize_trace(pattern, 3_000, config, seed=7),
        config,
        engine,
        monkeypatch,
        exact_tier,
    )
    assert table == reference


@pytest.mark.parametrize("granularity", ["per-rank", "per-bank"])
def test_selection_matches_reference_under_refresh(
    granularity, monkeypatch, exact_tier
):
    config = MemSysConfig(
        trefi_ns=500.0, trfc_ns=60.0, refresh_granularity=granularity
    )
    table, reference = _stats_pair(
        lambda: synthesize_trace(
            "random", 2_000, config, seed=11, write_fraction=0.3
        ),
        config,
        "event",
        monkeypatch,
        exact_tier,
    )
    assert table == reference


def _pim_ab_mix(config):
    """Random host traffic with a PIM or AB request every 7th slot."""
    amap = config.address_map()
    rng = np.random.default_rng(3)
    requests = []
    host = synthesize_trace("random", 600, config, seed=3)
    for i, request in enumerate(host):
        requests.append(request)
        if i % 7 == 0:
            row = int(rng.integers(0, config.rows_per_bank))
            coords = amap.decode(0)
            addr = amap.encode(
                coords.__class__(channel=i % config.n_channels, row=row)
            )
            requests.append(MemRequest(Op.PIM if i % 14 else Op.AB, addr))
    return requests


def test_selection_matches_reference_with_pim_and_ab(
    monkeypatch, exact_tier
):
    """Mixed host/PIM/AB streams exercise the all-bank rescans."""
    config = MemSysConfig()
    table, reference = _stats_pair(
        lambda: _pim_ab_mix(config),
        config,
        "event",
        monkeypatch,
        exact_tier,
    )
    assert table == reference


@pytest.mark.parametrize("granularity", [None, "per-rank", "per-bank"])
def test_fast_selection_matches_reference_with_pim_and_ab(
    granularity, monkeypatch, exact_tier
):
    """The exact tier's queued-hit table against the full-scan event
    engine, on the PIM/AB mix (and under refresh, whose precharges
    also move open rows)."""
    config = (
        MemSysConfig()
        if granularity is None
        else MemSysConfig(
            trefi_ns=500.0, trfc_ns=60.0, refresh_granularity=granularity
        )
    )
    table, reference = _stats_pair(
        lambda: _pim_ab_mix(config),
        config,
        "fast",
        monkeypatch,
        exact_tier,
    )
    assert table == reference


def test_hit_count_reaches_zero_after_replay():
    config = MemSysConfig()
    system = MemorySystem(config)
    system.replay(
        synthesize_trace("random", 1_000, config, seed=1), engine="event"
    )
    for controller in system.controllers:
        assert controller._queued_hits == 0
        assert all(not queue for queue in controller._bank_queue)
