"""Cross-tier equivalence suite pinning the vectorized PIM tiers.

Two independent optimization tiers ride under every PIM kernel run:

* the **execution-unit tier** — ``unit_mode="vectorized"`` executes
  each dynamic CRF instruction across every bank of the machine in one
  array op instead of looping :class:`BankExecUnit` objects;
* the **replay-timing tier** — the memory system's AB-lockstep
  fastpath certificate admits pure all-bank streams to the closed-form
  ``fast-vectorized`` engine, falling back to the exact tier
  otherwise.

Both are pure optimizations: this suite replays every built-in kernel
and every ``repro.nn`` kernel through scalar *and* vectorized units,
and through exact *and* fastpath timing, across dtype x bank-group x
refresh configurations, and pins the request streams, bank-page
contents (NaN and last-ULP included, via raw-byte comparison),
per-request latency arrays, and replay statistics identical.
"""

import dataclasses

import numpy as np
import pytest

from repro.memsys import MemSysConfig
from repro.nn import NN_KERNEL_NAMES, build_nn_kernel
from repro.pimexec import (
    KERNEL_NAMES,
    Operand,
    PimCommand,
    PimExecMachine,
    PimOpcode,
    build_kernel,
)
from repro.pimexec.regfile import fusion_plan
from repro.telemetry import ReplayTelemetry

from tests.memsys.test_fastpath import assert_stats_equivalent

DTYPES = ("fp64", "fp16")

#: Refresh knobs for the replay-timing dimension (HBM2-flavored
#: numbers; ``off`` disables refresh modeling entirely).
REFRESH = {
    "off": {},
    "per-rank": dict(
        trefi_ns=3900.0, trfc_ns=350.0, refresh_granularity="per-rank"
    ),
    "per-bank": dict(
        trefi_ns=3900.0, trfc_ns=350.0, refresh_granularity="per-bank"
    ),
}


def builtin_kwargs(name):
    """Small-but-nontrivial shapes so the suite stays fast."""
    return {"n_cols": 16} if name == "gemv" else {"n": 512}


def run_builtin(name, unit_mode, dtype="fp64", config=None):
    """Build + setup + execute one built-in kernel on one unit tier."""
    kernel = build_kernel(name, config=config, **builtin_kwargs(name))
    machine = PimExecMachine(
        kernel.config, dtype=dtype, unit_mode=unit_mode
    )
    kernel.setup(machine)
    kernel.execute(machine)
    return kernel, machine


def assert_unit_state_identical(a, b):
    """Register files, counters, and bank pages bit-for-bit equal.

    Raw-byte comparison: NaN payloads and last-ULP differences both
    count, which plain ``==`` would miss (``NaN != NaN``).
    """
    for (ch, i, ua), (ch2, i2, ub) in zip(
        a.iter_units(), b.iter_units()
    ):
        assert (ch, i) == (ch2, i2)
        where = f"ch{ch}.u{i}"
        assert ua.grf_a.tobytes() == ub.grf_a.tobytes(), where
        assert ua.grf_b.tobytes() == ub.grf_b.tobytes(), where
        assert ua.srf.tobytes() == ub.srf.tobytes(), where
        assert ua.commands_executed == ub.commands_executed, where
        for key in sorted(set(ua.memory) | set(ub.memory)):
            port, row, col = key
            page_a = ua.load_page(row, col, port)
            page_b = ub.load_page(row, col, port)
            assert page_a.tobytes() == page_b.tobytes(), (where, key)


def assert_streams_identical(a, b):
    """The emitted request streams agree op-for-op, address-for-address."""
    assert a.n_requests == b.n_requests
    assert [
        (r.op, r.addr, r.timestamp) for r in a.requests
    ] == [(r.op, r.addr, r.timestamp) for r in b.requests]


class TestUnitTierEquivalence:
    """scalar vs vectorized units: same requests, same bank state."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_builtin_kernels(self, name, dtype):
        kernel, scalar = run_builtin(name, "scalar", dtype=dtype)
        _, vectorized = run_builtin(name, "vectorized", dtype=dtype)
        assert scalar.unit_mode == "scalar"
        assert vectorized.unit_mode == "vectorized"
        assert_unit_state_identical(scalar, vectorized)
        assert_streams_identical(scalar, vectorized)
        assert (
            scalar.sequencer_stats() == vectorized.sequencer_stats()
        )
        if dtype == "fp64":  # the references are fp64-exact
            assert kernel.check(scalar)
            assert kernel.check(vectorized)

    @pytest.mark.parametrize("bank_groups", (False, True))
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", NN_KERNEL_NAMES)
    def test_nn_kernels(self, name, dtype, bank_groups):
        kernel = build_nn_kernel(
            name, dtype=dtype, bank_groups=bank_groups, seed=3
        )
        scalar = kernel.machine(unit_mode="scalar")
        vectorized = kernel.machine()
        for machine in (scalar, vectorized):
            kernel.setup(machine)
            kernel.execute(machine)
            assert kernel.check(machine), machine.unit_mode
        assert_unit_state_identical(scalar, vectorized)
        assert_streams_identical(scalar, vectorized)
        out_s = kernel.output(scalar)
        out_v = kernel.output(vectorized)
        assert out_s.tobytes() == out_v.tobytes()
        assert out_v.tobytes() == np.asarray(
            kernel.expected, dtype=out_v.dtype
        ).tobytes()

    @pytest.mark.parametrize("bank_groups", (False, True))
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", NN_KERNEL_NAMES)
    def test_nn_packed_columns_identical(self, name, dtype, bank_groups):
        """The packed request log is byte-equal across tiers without
        ever materializing request objects."""
        kernel = build_nn_kernel(
            name, dtype=dtype, bank_groups=bank_groups, seed=3
        )
        columns = []
        for unit_mode in ("scalar", "vectorized"):
            machine = kernel.machine(unit_mode=unit_mode)
            kernel.setup(machine)
            kernel.execute(machine)
            columns.append(machine._pack_columns())
            assert machine._objects is None, unit_mode
        for scalar_col, vector_col in zip(*columns):
            assert scalar_col.dtype == vector_col.dtype
            assert scalar_col.tobytes() == vector_col.tobytes()

    @pytest.mark.parametrize("name", NN_KERNEL_NAMES)
    def test_object_mode_emits_the_packed_stream(self, name):
        """Touching ``requests`` before ``execute`` switches the machine
        to object mode; the all-channel calls then append objects that
        replay exactly like the packed log."""
        kernel = build_nn_kernel(name, dtype="fp16", seed=3)
        packed, objects = kernel.machine(), kernel.machine()
        for machine in (packed, objects):
            kernel.setup(machine)
        assert objects.requests  # object mode from here on
        for machine in (packed, objects):
            kernel.execute(machine)
        assert packed._objects is None
        assert objects._objects is not None
        assert kernel.check(objects)
        assert repr(
            dataclasses.asdict(packed.replay(engine="event").stats)
        ) == repr(dataclasses.asdict(objects.replay(engine="event").stats))
        assert [(r.op, r.addr) for r in packed.requests] == [
            (r.op, r.addr) for r in objects.requests
        ]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_aliasing_command_group_runs_in_order(self, dtype):
        """A group that reads another command's destination does not
        fuse; it runs command by command and matches the scalar grid
        and a plain per-channel ``pim_step`` loop."""
        macs = [
            PimCommand(
                PimOpcode.MAC,
                dst=Operand.grf_b(c),
                src0=Operand.bank(),
                src1=Operand.srf(c),
            )
            for c in range(8)
        ]
        # each MOV reads the register the previous one wrote
        chain = [
            PimCommand(
                PimOpcode.MOV, dst=Operand.grf_b(c + 1), src0=Operand.grf_b(c)
            )
            for c in range(3)
        ]
        # command 0 writes GRF_B0, which every later command reads
        shared = [
            PimCommand(
                PimOpcode.ADD,
                dst=Operand.grf_b(c),
                src0=Operand.grf_b(c),
                src1=Operand.grf_b(0),
            )
            for c in range(4)
        ]
        assert fusion_plan(macs) is not None
        assert fusion_plan(chain) is None
        assert fusion_plan(shared) is None
        groups = (macs, chain, shared)
        machines = []
        for unit_mode, looped in (
            ("scalar", False), ("vectorized", False), ("vectorized", True)
        ):
            machine = PimExecMachine(
                MemSysConfig(n_channels=2), dtype=dtype, unit_mode=unit_mode
            )
            for ch in range(machine.n_channels):
                for bank in range(machine.banks_per_channel):
                    machine.write_bank(
                        ch, bank, 0, 0,
                        np.linspace(-3.0, 5.0, 16) * (bank + 1) + ch,
                    )
            machine.broadcast_scalars(0, np.linspace(0.5, 4.0, 8))
            for group in groups:
                if looped:
                    for command in group:
                        for ch in range(machine.n_channels):
                            machine.pim_step(ch, command, 0, 0)
                else:
                    machine.pim_step_all(group, 0, 0)
            machines.append(machine)
        for other in machines[1:]:
            assert_unit_state_identical(machines[0], other)
            for a, b in zip(
                machines[0]._pack_columns(), other._pack_columns()
            ):
                assert a.tobytes() == b.tobytes()
        # in order, the chain copies GRF_B0 into B1..B3 and the shared
        # ADD then gives each of them the same B0 + 2*B0
        unit = machines[1].unit(1, 2)
        assert unit.grf_b[1].tobytes() == unit.grf_b[2].tobytes()
        assert unit.grf_b[1].tobytes() == unit.grf_b[3].tobytes()
        assert unit.grf_b[1].tobytes() != unit.grf_b[4].tobytes()

    def test_fp16_special_values_cross_tier(self):
        """Inf/NaN-producing fp16 streams stay bit-identical."""
        machines = []
        for unit_mode in ("scalar", "vectorized"):
            machine = PimExecMachine(dtype="fp16", unit_mode=unit_mode)
            big = np.full(machine.lanes, 60000.0)
            for unit_index in range(machine.units_per_channel):
                flat = unit_index * machine.ports
                machine.write_bank(0, flat, 0, 0, big)
            machine.broadcast_scalar(0, 0, 65504.0)
            from repro.pimexec import parse_command

            mac = parse_command("MAC GRF,8 BANK,0,0,0 SRF,0")
            add = parse_command("ADD GRF,0 BANK,0,0,0 BANK,0,0,0")
            machine.pim_step(0, mac, 0, 0)  # overflows to inf
            machine.pim_step(0, add, 0, 0)
            machine.pim_step(0, mac, 0, 0)  # inf + finite, inf * big
            machines.append(machine)
        assert_unit_state_identical(machines[0], machines[1])
        assert_streams_identical(machines[0], machines[1])

    def test_unknown_unit_mode_rejected(self):
        from repro.pimexec import PimExecError

        with pytest.raises(PimExecError, match="unit_mode"):
            PimExecMachine(unit_mode="simd")


class TestReplayTierEquivalence:
    """exact vs AB-fastpath timing over the same kernel streams."""

    @pytest.mark.parametrize("refresh", sorted(REFRESH))
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_fast_matches_event_under_refresh(self, name, refresh):
        config = MemSysConfig(n_channels=2, **REFRESH[refresh])
        kernel, machine = run_builtin(name, "vectorized", config=config)
        fast = machine.replay(engine="fast")
        event = machine.replay(engine="event")
        assert fast.engine.startswith("fast")
        assert event.engine == "event"
        assert_stats_equivalent(event.stats, fast.stats)
        assert (fast.n_pim, fast.n_broadcast, fast.n_host) == (
            event.n_pim,
            event.n_broadcast,
            event.n_host,
        )

    def test_vector_sum_stream_admits_the_fastpath(self):
        """With data staging untimed (the benchmark's shape), the pure
        AB+PIM vector-sum stream takes the closed-form tier."""
        kernel = build_kernel(
            "vector-sum",
            config=MemSysConfig(n_channels=2),
            **builtin_kwargs("vector-sum"),
        )
        machine = PimExecMachine(kernel.config)
        kernel.setup(machine)
        machine.reset_requests()  # drop the host staging writes
        kernel.execute(machine)
        result = machine.replay(engine="fast")
        assert result.engine == "fast-vectorized"

    @pytest.mark.parametrize("name", ("gemm", "attention"))
    def test_nn_streams_fall_back_to_exact_tier(self, name):
        """The GEMM stream is all its all-bank requests (broadcasts and
        PIM steps) followed by the trailing host READs of the result
        tiles — 8,448 all-bank requests, then 512 READs, at the
        ``(256 x 32) @ (32 x 32)`` benchmark shape; attention adds the
        softmax's host passes between its GEMMs.  Host requests put a
        stream outside the AB certificate, so both fall back to the
        exact tier — bit-identically."""
        kernel = build_nn_kernel(name, dtype="fp16", seed=1)
        machine = kernel.machine()
        kernel.setup(machine)
        kernel.execute(machine)
        fast = machine.replay(engine="fast")
        event = machine.replay(engine="event")
        assert fast.engine == "fast-exact"
        assert_stats_equivalent(event.stats, fast.stats)

    @pytest.mark.parametrize("refresh", sorted(REFRESH))
    def test_per_request_latency_arrays_identical(self, refresh):
        """The latency recorder captures the same per-request arrays
        (repr-identical, byte-identical) from both engines."""
        config = MemSysConfig(n_channels=2, **REFRESH[refresh])
        _, machine = run_builtin(
            "vector-sum", "vectorized", config=config
        )
        arrays = {}
        for engine in ("fast", "event"):
            telemetry = ReplayTelemetry()
            machine.replay(engine=engine, telemetry=telemetry)
            recorder = telemetry.recorder
            arrays[engine] = (
                recorder.queue_wait.copy(),
                recorder.service_time.copy(),
                recorder.total_latency.copy(),
            )
        for fast_arr, event_arr in zip(arrays["fast"], arrays["event"]):
            assert fast_arr.tobytes() == event_arr.tobytes()
            assert repr(fast_arr) == repr(event_arr)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_full_matrix_smoke(self, dtype):
        """One diagonal across all three dimensions at once: unit tier
        x replay engine x refresh, on the same kernel."""
        config = MemSysConfig(n_channels=2, **REFRESH["per-rank"])
        results = {}
        state = {}
        for unit_mode in ("scalar", "vectorized"):
            kernel = build_kernel(
                "vector-sum", config=config, **builtin_kwargs("vector-sum")
            )
            machine = PimExecMachine(
                kernel.config, dtype=dtype, unit_mode=unit_mode
            )
            kernel.setup(machine)
            kernel.execute(machine)
            state[unit_mode] = machine
            for engine in ("fast", "event"):
                results[(unit_mode, engine)] = machine.replay(
                    engine=engine
                )
        assert_unit_state_identical(
            state["scalar"], state["vectorized"]
        )
        # same stream + same engine => bit-identical stats dicts
        for engine in ("fast", "event"):
            assert repr(
                dataclasses.asdict(results[("scalar", engine)].stats)
            ) == repr(
                dataclasses.asdict(results[("vectorized", engine)].stats)
            )
        # across engines the stats are bit-identical too
        assert_stats_equivalent(
            results[("vectorized", "event")].stats,
            results[("vectorized", "fast")].stats,
        )
