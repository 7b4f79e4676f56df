"""Tests for the PimExecMachine: requests, timing, engine agreement."""

import numpy as np
import pytest

from repro.memsys import MemSysConfig, MemorySystem, MemRequest, Op
from repro.pimexec import (
    Operand,
    PimCommand,
    PimExecError,
    PimExecMachine,
    PimOpcode,
)


@pytest.fixture
def machine():
    return PimExecMachine(MemSysConfig())


def sum_kernel(slots):
    return [
        PimCommand(
            PimOpcode.ADD,
            dst=Operand.grf_b(0),
            src0=Operand.bank(),
            src1=Operand.grf_b(0),
        ),
        PimCommand(PimOpcode.JUMP, target=0, count=slots - 1),
        PimCommand(PimOpcode.EXIT),
    ]


class TestHostActions:
    def test_lanes_derive_from_page_width(self, machine):
        # 256-bit pages carry 16 16-bit hardware words
        assert machine.lanes == 16

    def test_write_bank_stores_and_emits_one_write(self, machine):
        page = np.arange(16, dtype=float)
        machine.write_bank(0, 2, 5, 1, page)
        assert np.array_equal(machine.unit(0, 2).load_page(5, 1), page)
        assert len(machine.requests) == 1
        request = machine.requests[0]
        assert request.op is Op.WRITE
        coords = machine.addr_map.decode(request.addr)
        assert (coords.channel, coords.row, coords.column) == (0, 5, 1)
        assert coords.flat_bank(machine.config.banks_per_group) == 2

    def test_broadcast_scalar_reaches_all_units_of_channel(self, machine):
        machine.broadcast_scalar(1, 3, 2.5)
        assert all(
            unit.srf[3] == 2.5 for unit in machine.units[1]
        )
        assert all(unit.srf[3] == 0.0 for unit in machine.units[0])
        assert machine.requests[-1].op is Op.AB

    def test_broadcast_page_validates_width(self, machine):
        with pytest.raises(PimExecError, match="lanes"):
            machine.broadcast_page(0, "grf_a", 0, [1.0, 2.0])

    def test_register_indices_range_checked(self, machine):
        with pytest.raises(PimExecError, match="SRF index -1"):
            machine.broadcast_scalar(0, -1, 2.0)
        with pytest.raises(PimExecError, match="SRF index 8"):
            machine.broadcast_scalar(0, 8, 2.0)
        with pytest.raises(PimExecError, match="GRF index 8"):
            machine.broadcast_page(0, "grf_a", 8, np.zeros(16))
        with pytest.raises(PimExecError, match="GRF index -1"):
            machine.read_grf(0, 0, "grf_b", -1)

    def test_load_kernel_costs_one_ab_per_slot_per_channel(self, machine):
        machine.load_kernel(sum_kernel(4))
        assert len(machine.requests) == 3 * machine.n_channels
        assert all(r.op is Op.AB for r in machine.requests)

    def test_read_grf_returns_copy(self, machine):
        machine.units[0][0].grf_b[0] = np.full(16, 7.0)
        out = machine.read_grf(0, 0, "grf_b", 0)
        out[0] = -1.0
        assert machine.unit(0, 0).grf_b[0][0] == 7.0
        assert machine.requests[-1].op is Op.AB


class TestKernelExecution:
    def test_run_kernel_executes_lockstep_on_all_banks(self, machine):
        pages = np.arange(16, dtype=float)
        for ch in range(machine.n_channels):
            for bank in range(machine.banks_per_channel):
                machine.unit(ch, bank).store_page(0, 0, pages * (bank + 1))
        machine.load_kernel(sum_kernel(1))
        executed = machine.run_kernel([(0, 0)])
        assert executed == machine.n_channels  # one step per channel
        for ch in range(machine.n_channels):
            for bank in range(machine.banks_per_channel):
                assert np.array_equal(
                    machine.unit(ch, bank).grf_b[0], pages * (bank + 1)
                )

    def test_run_kernel_interleaves_channels(self, machine):
        machine.load_kernel(sum_kernel(2))
        machine.reset_requests()
        machine.run_kernel([(0, 0), (0, 1)])
        channels = [
            machine.addr_map.decode(r.addr).channel
            for r in machine.requests
        ]
        # round-robin: ch0, ch1, ch0, ch1 — not ch0, ch0, ch1, ch1
        assert channels == [0, 1, 0, 1]

    def test_pim_step_rejects_control(self, machine):
        with pytest.raises(PimExecError, match="sequencer control"):
            machine.pim_step(
                0, PimCommand(PimOpcode.EXIT), 0, 0
            )

    def test_per_channel_walks(self, machine):
        machine.load_kernel(sum_kernel(1), channels=[0])
        machine.load_kernel(sum_kernel(2), channels=[1])
        machine.reset_requests()
        machine.run_kernel({0: [(0, 0)], 1: [(0, 0), (0, 1)]})
        channels = [
            machine.addr_map.decode(r.addr).channel
            for r in machine.requests
        ]
        assert channels == [0, 1, 1]


def _mac(index):
    return PimCommand(
        PimOpcode.MAC,
        dst=Operand.grf_b(index),
        src0=Operand.bank(),
        src1=Operand.srf(index),
    )


def _loaded(unit_mode):
    """A 2-channel machine with distinct data on every bank."""
    machine = PimExecMachine(
        MemSysConfig(n_channels=2), unit_mode=unit_mode
    )
    for ch in range(machine.n_channels):
        for bank in range(machine.banks_per_channel):
            machine.write_bank(
                ch, bank, 0, 0, np.arange(16.0) * (ch + 1) + bank
            )
    machine.reset_requests()
    return machine


def _snapshot(machine):
    """Every observable bit of functional state, plus the stream."""
    state = []
    for _, _, unit in machine.iter_units():
        state.append(unit.grf_a.tobytes() + unit.grf_b.tobytes())
        state.append(unit.srf.tobytes())
        state.append(unit.commands_executed)
        state.append(
            sorted((k, v.tobytes()) for k, v in unit.memory.items())
        )
    state.append([list(seq.crf) for seq in machine.sequencers])
    state.append(machine.sequencer_stats())
    state.append([(r.op, r.addr) for r in machine.requests])
    return state


#: Every direct entry point that names a channel, called on ``ch``.
CHANNEL_CALLS = {
    "write_bank": lambda m, ch: m.write_bank(ch, 0, 0, 0, np.ones(16)),
    "read_bank": lambda m, ch: m.read_bank(ch, 0, 0, 0),
    "broadcast_scalar": lambda m, ch: m.broadcast_scalar(ch, 0, 1.0),
    "broadcast_page": lambda m, ch: m.broadcast_page(
        ch, "grf_a", 0, np.ones(16)
    ),
    "read_grf": lambda m, ch: m.read_grf(ch, 0, "grf_b", 0),
    "pim_step": lambda m, ch: m.pim_step(ch, _mac(0), 0, 0),
    "load_kernel": lambda m, ch: m.load_kernel(
        sum_kernel(1), channels=[0, ch]
    ),
    "run_kernel": lambda m, ch: m.run_kernel([(0, 0)], channels=[0, ch]),
    "broadcast_scalars": lambda m, ch: m.broadcast_scalars(
        0, [1.0, 2.0], channels=[0, ch]
    ),
    "pim_step_all": lambda m, ch: m.pim_step_all(
        [_mac(0), _mac(1)], 0, 0, channels=[0, ch]
    ),
}


class TestChannelValidation:
    """A bad channel raises at the call, before any state change."""

    @pytest.mark.parametrize("unit_mode", ("vectorized", "scalar"))
    @pytest.mark.parametrize("bad", ("negative", "past-end"))
    @pytest.mark.parametrize("call", sorted(CHANNEL_CALLS))
    def test_bad_channel_rejected_without_side_effects(
        self, call, bad, unit_mode
    ):
        machine = _loaded(unit_mode)
        machine.load_kernel(sum_kernel(1), channels=[0])
        machine.broadcast_scalar(0, 0, 3.0)
        before = _snapshot(machine)
        channel = -1 if bad == "negative" else machine.n_channels
        with pytest.raises(PimExecError, match="channel"):
            CHANNEL_CALLS[call](machine, channel)
        assert _snapshot(machine) == before
        # the log stays replayable: nothing malformed slipped in
        machine.replay()


class TestAllChannelCalls:
    """broadcast_scalars / pim_step_all / read_pages equal the loops
    over single-channel calls they replace, on both tiers."""

    @pytest.mark.parametrize("unit_mode", ("vectorized", "scalar"))
    def test_match_per_channel_loops(self, unit_mode):
        looped, bulk = _loaded(unit_mode), _loaded(unit_mode)
        macs = [_mac(c) for c in range(4)]
        values = [0.5, -1.25, 3.0, 1e-3]
        for c, value in enumerate(values):
            for ch in range(looped.n_channels):
                looped.broadcast_scalar(ch, c, value, 0, 0)
        for command in macs:
            for ch in range(looped.n_channels):
                looped.pim_step(ch, command, 0, 0)
        pages = [
            [
                looped.read_bank(ch, bank, 0, 0)
                for ch in range(looped.n_channels)
                for bank in range(looped.banks_per_channel)
            ]
        ]
        bulk.broadcast_scalars(0, values, 0, 0)
        bulk.pim_step_all(macs, 0, 0)
        read = bulk.read_pages([(0, 0)])
        assert read.shape == (1, 2, bulk.units_per_channel, 16)
        assert read.tobytes() == np.asarray(pages).tobytes()
        for a, b in zip(looped._pack_columns(), bulk._pack_columns()):
            assert a.tobytes() == b.tobytes()
        assert _snapshot(looped) == _snapshot(bulk)

    def test_channel_subset_and_duplicates_match_scalar(self):
        machines = [_loaded(mode) for mode in ("vectorized", "scalar")]
        for machine in machines:
            machine.broadcast_scalars(1, [2.0], channels=[1])
            machine.pim_step_all([_mac(1)], 0, 0, channels=[1, 1])
        assert _snapshot(machines[0]) == _snapshot(machines[1])
        assert machines[0].unit(1, 0).commands_executed == 2
        assert machines[0].unit(0, 0).commands_executed == 0

    def test_srf_slice_range_checked(self, machine):
        with pytest.raises(PimExecError, match="SRF slice"):
            machine.broadcast_scalars(6, [1.0, 2.0, 3.0])
        assert machine.n_requests == 0

    def test_pim_step_all_rejects_control(self, machine):
        with pytest.raises(PimExecError, match="sequencer control"):
            machine.pim_step_all(
                [_mac(0), PimCommand(PimOpcode.EXIT)], 0, 0
            )
        assert machine.n_requests == 0
        assert machine.unit(0, 0).commands_executed == 0


class TestReplay:
    def test_replay_reports_request_mix(self, machine):
        machine.write_bank(0, 0, 0, 0, np.zeros(16))
        machine.broadcast_scalar(0, 0, 1.0)
        machine.load_kernel(sum_kernel(1), channels=[0])
        machine.run_kernel([(0, 0)], channels=[0])
        result = machine.replay()
        assert result.n_requests == len(machine.requests)
        assert result.n_host == 1
        assert result.n_broadcast == 1 + 3
        assert result.n_pim == 1
        assert result.makespan_ns > 0

    def test_replay_requires_requests(self, machine):
        with pytest.raises(PimExecError, match="no requests"):
            machine.replay()

    def test_mixed_stream_event_and_fast_agree_bit_exactly(self, machine):
        machine.write_bank(0, 1, 2, 3, np.ones(16))
        machine.broadcast_scalar(0, 0, 2.0)
        machine.load_kernel(sum_kernel(3))
        machine.run_kernel([(0, 0), (0, 1), (1, 0)])
        fast = machine.replay(engine="fast")
        event = machine.replay(engine="event")
        assert fast.engine == "fast-exact"
        assert event.stats.makespan_ns == fast.stats.makespan_ns
        assert event.stats.total_bits == fast.stats.total_bits
        assert event.stats.row_hits == fast.stats.row_hits

    def test_replay_is_repeatable(self, machine):
        machine.write_bank(0, 0, 0, 0, np.zeros(16))
        first = machine.replay()
        second = machine.replay()
        assert first.stats.makespan_ns == second.stats.makespan_ns
