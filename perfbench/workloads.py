"""The benchmark's four workloads, each one user path through ``repro``.

Every workload supplies:

* ``prepare(seed, workdir)`` — makes the inputs from the seed, before
  any timing (the program only ever receives the generated inputs);
* ``run_pass(inputs, span, traced)`` — one timed pass through the
  public functions of :mod:`repro.memsys`, :mod:`repro.pimexec`,
  :mod:`repro.nn` and :mod:`repro.telemetry`, with ``span(name)``
  around each call into a layer;
* ``check(inputs, outcome)`` — the program's own oracles on that pass,
  run after the clock stops; returns the problems found;
* ``reference(inputs)`` — the same inputs through the reference path
  (the event engine, plus the scalar ``BankExecUnit`` grid for the GEMM
  kernel), run once per run outside every timed region.

Why these four (see ``README.md`` for the metric map): ``trace-stream``
is dominated by text parse and telemetry derivation and runs on the
closed-form replay tier; ``trace-random`` shares those layers but is
dominated by the exact replay tier; ``gemm-fp16`` is per-bank PIM
execute plus an exact-tier replay of a stream with one host/all-bank
switch; ``layer-trace`` is the only one with ``nn`` trace generation and
``pimexec`` program parse, has timestamped arrivals and switches
between host and all-bank traffic 5,268 times in 9,116 requests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import typing as _t

import numpy as np

from repro.arch.dram import macro_bandwidth_bits_per_sec
from repro.memsys import MemSysConfig, MemorySystem, Op, parse_trace
from repro.nn import (
    TransformerLayerSpec,
    build_nn_kernel,
    transformer_layer_trace,
)
from repro.pimexec import PimExecMachine, parse_pim_program
from repro.telemetry import (
    MetricsRegistry,
    ReplayTelemetry,
    build_energy,
    build_report,
    build_timeseries,
    memsys_metrics,
    replay_tier,
    validate_energy,
    validate_timeseries,
)

__all__ = [
    "WORKLOADS",
    "Outcome",
    "Reference",
    "Workload",
    "digest",
    "input_properties",
    "vectorized_share",
]

Span = _t.Callable[[str], _t.ContextManager[_t.Any]]

#: Sizes of one pass.  Each pass takes a quarter to half a second on a
#: 2-core host, so a 20-second run times 30–70 of them (each followed by
#: 0.1 s of calibration) and the tail percentile sits at p63–p87 rather
#: than at the fastest pass.  Every stage is linear
#: in these sizes, so their shares of a pass do not depend on them.
STREAM_LINES = 100_000
RANDOM_REQUESTS = 30_000
RANDOM_WRITE_SHARE = 0.3
GEMM_SHAPE = dict(m=256, k=32, n=32)
LAYER_SPEC = dict(d_model=16, n_heads=2, seq_len=16, d_ff=32)
LAYER_INTERARRIVAL_NS = 4.0
#: The §2.1 cross-check: a channel-interleaved sequential stream
#: sustains every channel's macro bandwidth to within this share.
ANALYTIC_TOLERANCE = 0.05

HOST_CODES = (Op.READ.code, Op.WRITE.code)


@dataclasses.dataclass
class Outcome:
    """What one pass produced, for checks, digests and metrics."""

    stats: _t.Any
    engine: str
    telemetry: _t.Optional[ReplayTelemetry] = None
    energy: _t.Optional[dict] = None
    timeseries: _t.Optional[dict] = None
    kernel: _t.Any = None
    machine: _t.Any = None
    #: Trace lines parsed (text-trace workloads).
    lines: int = 0
    #: Program records parsed (``layer-trace``).
    records: int = 0
    #: Requests the PIM machine emitted while executing.
    commands: int = 0
    #: ``kernel.check`` inside the pass (``gemm-fp16``).
    kernel_ok: bool = True

    @property
    def phases(self) -> _t.Dict[str, float]:
        if self.telemetry is None or self.telemetry.profiler is None:
            return {}
        return self.telemetry.profiler.phases


@dataclasses.dataclass
class Reference:
    """The reference path's digest plus properties of the inputs."""

    digest: _t.Dict[str, _t.Any]
    properties: _t.Dict[str, float]
    problems: _t.List[str]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: Modules a fresh interpreter imports before the first pass.
    entry_modules: _t.Tuple[str, ...]
    prepare: _t.Callable[[int, pathlib.Path], _t.Any]
    run_pass: _t.Callable[[_t.Any, Span, bool], Outcome]
    check: _t.Callable[[_t.Any, Outcome], _t.List[str]]
    reference: _t.Callable[[_t.Any], Reference]


# ----------------------------------------------------------------------
# digests and input properties
# ----------------------------------------------------------------------
def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def digest(outcome: Outcome) -> _t.Dict[str, _t.Any]:
    """Fields of a pass that are bit-identical across replay tiers.

    Request counts, makespan and row-outcome counts always; the
    recorder's per-request arrival/finish arrays and the energy total
    when the pass recorded telemetry; the kernel output when there is a
    kernel.  Derived ``MemSysStats`` floats agree across tiers only to
    ~1e-12, so they stay out.
    """
    stats = outcome.stats
    fields: _t.Dict[str, _t.Any] = {
        "requests": stats.n_requests,
        "total_bits": stats.total_bits,
        "makespan_ns": repr(stats.makespan_ns),
        "row_hits": stats.row_hits,
        "row_misses": stats.row_misses,
        "row_conflicts": stats.row_conflicts,
    }
    if outcome.telemetry is not None:
        recorder = outcome.telemetry.recorder
        fields["arrival"] = _sha(recorder.arrival)
        fields["finish"] = _sha(recorder.finish)
        energy = outcome.energy or build_energy(outcome.telemetry)
        fields["energy_pj"] = repr(energy["total_pj"])
    if outcome.kernel is not None:
        fields["output"] = _sha(outcome.kernel.output(outcome.machine))
    return fields


def input_properties(
    op_codes: np.ndarray, timestamped: bool
) -> _t.Dict[str, float]:
    """Request mix of an input stream, in trace order."""
    n = len(op_codes)
    is_host = np.isin(op_codes, HOST_CODES)
    return {
        "requests": n,
        "host_requests": int(is_host.sum()),
        "ab_requests": int((op_codes == Op.AB.code).sum()),
        "pim_requests": int((op_codes == Op.PIM.code).sum()),
        "write_share": float((op_codes == Op.WRITE.code).sum() / n),
        "mode_switches": int((is_host[1:] != is_host[:-1]).sum()),
        "timestamped": int(timestamped),
    }


# ----------------------------------------------------------------------
# text-trace replay: trace-stream and trace-random
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class TraceInputs:
    path: pathlib.Path
    config: MemSysConfig
    lines: int


def _write_lines(
    path: pathlib.Path, ops: _t.Sequence[str], addrs: np.ndarray
) -> None:
    with path.open("w") as handle:
        for op, addr in zip(ops, addrs.tolist()):
            handle.write(f"{op} {addr}\n")


def prepare_stream(seed: int, workdir: pathlib.Path) -> TraceInputs:
    """Untimestamped sequential reads from a seed-chosen start."""
    config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
    granule = config.transaction_bytes
    slots = config.address_map().capacity_bytes // granule
    start = int(np.random.default_rng(seed).integers(0, slots - STREAM_LINES))
    addrs = (start + np.arange(STREAM_LINES, dtype=np.int64)) * granule
    path = workdir / f"trace-stream-{seed}.trace"
    _write_lines(path, ["R"] * STREAM_LINES, addrs)
    return TraceInputs(path, config, STREAM_LINES)


def prepare_random(seed: int, workdir: pathlib.Path) -> TraceInputs:
    """Uniform random granules over a quarter of capacity, 30% writes."""
    config = MemSysConfig()
    granule = config.transaction_bytes
    slots = config.address_map().capacity_bytes // 4 // granule
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, slots, RANDOM_REQUESTS, dtype=np.int64) * granule
    writes = rng.random(RANDOM_REQUESTS) < RANDOM_WRITE_SHARE
    path = workdir / f"trace-random-{seed}.trace"
    _write_lines(path, ["W" if w else "R" for w in writes.tolist()], addrs)
    return TraceInputs(path, config, RANDOM_REQUESTS)


def run_trace_pass(
    inputs: TraceInputs, span: Span, traced: bool
) -> Outcome:
    """The ``repro-pim report`` path: parse, replay, derive, report."""
    config = inputs.config
    with span("memsys.trace.parse"):
        trace = parse_trace(inputs.path, packed=True)
    with span("memsys.replay"):
        system = MemorySystem(config)
        telemetry = ReplayTelemetry()
        stats = system.replay(trace, engine="fast", telemetry=telemetry)
    with span("telemetry.metrics"):
        registry = MetricsRegistry(source="perfbench")
        memsys_metrics(
            registry=registry,
            stats=stats,
            system=system,
            scheme=config.scheme,
            policy=config.policy,
        )
        telemetry.metrics_into(
            registry, scheme=config.scheme, policy=config.policy
        )
    with span("telemetry.timeseries"):
        timeseries = build_timeseries(telemetry)
    with span("telemetry.energy"):
        energy = build_energy(telemetry)
    with span("telemetry.report"):
        build_report(
            telemetry,
            registry=registry,
            timeseries=timeseries,
            source="perfbench",
            energy=energy,
        )
    return Outcome(
        stats,
        str(system.last_replay_engine),
        telemetry=telemetry,
        energy=energy,
        timeseries=timeseries,
        lines=len(trace),
    )


def check_trace(inputs: TraceInputs, outcome: Outcome) -> _t.List[str]:
    problems = [
        f"timeseries: {p}" for p in validate_timeseries(outcome.timeseries)
    ]
    problems += [f"energy: {p}" for p in validate_energy(outcome.energy)]
    if outcome.stats.n_requests != inputs.lines:
        problems.append(
            f"{outcome.stats.n_requests} requests completed of "
            f"{inputs.lines} lines"
        )
    return problems


def check_stream(inputs: TraceInputs, outcome: Outcome) -> _t.List[str]:
    problems = check_trace(inputs, outcome)
    config = inputs.config
    analytic = config.n_channels * macro_bandwidth_bits_per_sec(
        config.timing
    )
    sustained = outcome.stats.sustained_bits_per_sec
    if not abs(sustained / analytic - 1.0) <= ANALYTIC_TOLERANCE:
        problems.append(
            f"sustained {sustained:.6g} bit/s is not within "
            f"{ANALYTIC_TOLERANCE:.0%} of the §2.1 streaming bandwidth "
            f"{analytic:.6g} bit/s"
        )
    return problems


def reference_trace(inputs: TraceInputs) -> Reference:
    trace = parse_trace(inputs.path, packed=True)
    telemetry = ReplayTelemetry()
    stats = MemorySystem(inputs.config).replay(
        trace, engine="event", telemetry=telemetry
    )
    return Reference(
        digest(Outcome(stats, "event", telemetry=telemetry)),
        input_properties(
            telemetry.recorder.op_code, trace.times is not None
        ),
        [],
    )


# ----------------------------------------------------------------------
# gemm-fp16: nn kernel build, PIM execute, replay, check
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class GemmInputs:
    a: np.ndarray
    b: np.ndarray


def prepare_gemm(seed: int, workdir: pathlib.Path) -> GemmInputs:
    rng = np.random.default_rng(seed)
    m, k, n = GEMM_SHAPE["m"], GEMM_SHAPE["k"], GEMM_SHAPE["n"]
    return GemmInputs(
        0.5 * rng.standard_normal((m, k)), 0.5 * rng.standard_normal((k, n))
    )


def _build_gemm(inputs: GemmInputs) -> _t.Any:
    return build_nn_kernel(
        "gemm", dtype="fp16", a=inputs.a, b=inputs.b, **GEMM_SHAPE
    )


def run_gemm_pass(inputs: GemmInputs, span: Span, traced: bool) -> Outcome:
    with span("nn.build"):
        kernel = _build_gemm(inputs)
    with span("pimexec.setup"):
        machine = kernel.machine()
        kernel.setup(machine)
        machine.reset_requests()
    with span("pimexec.execute"):
        kernel.execute(machine)
    with span("memsys.replay"):
        telemetry = ReplayTelemetry() if traced else None
        result = machine.replay(telemetry=telemetry)
    with span("nn.check"):
        kernel_ok = kernel.check(machine)
    return Outcome(
        result.stats,
        str(result.engine),
        telemetry=telemetry,
        kernel=kernel,
        machine=machine,
        commands=result.n_requests,
        kernel_ok=kernel_ok,
    )


def check_gemm(inputs: GemmInputs, outcome: Outcome) -> _t.List[str]:
    if not outcome.kernel_ok:
        return ["bank state diverged from the binary16 reference"]
    return []


def reference_gemm(inputs: GemmInputs) -> Reference:
    kernel = _build_gemm(inputs)
    machine = kernel.machine(unit_mode="scalar")
    kernel.setup(machine)
    machine.reset_requests()
    kernel.execute(machine)
    telemetry = ReplayTelemetry()
    result = machine.replay(engine="event", telemetry=telemetry)
    outcome = Outcome(
        result.stats,
        "event",
        telemetry=telemetry,
        kernel=kernel,
        machine=machine,
    )
    problems = (
        [] if kernel.check(machine) else ["scalar grid diverged from binary16"]
    )
    return Reference(
        digest(outcome),
        input_properties(telemetry.recorder.op_code, timestamped=False),
        problems,
    )


# ----------------------------------------------------------------------
# layer-trace: nn trace generation, program parse, execute, replay
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LayerInputs:
    spec: TransformerLayerSpec
    seed: int


def prepare_layer(seed: int, workdir: pathlib.Path) -> LayerInputs:
    return LayerInputs(TransformerLayerSpec(**LAYER_SPEC), seed)


def _layer_text(inputs: LayerInputs) -> str:
    return transformer_layer_trace(
        inputs.spec,
        interarrival_ns=LAYER_INTERARRIVAL_NS,
        interarrival="poisson",
        seed=inputs.seed,
    )


def run_layer_pass(
    inputs: LayerInputs, span: Span, traced: bool
) -> Outcome:
    """The ``nn --emit-trace`` + ``pimexec --trace`` path, in memory."""
    with span("nn.generate"):
        text = _layer_text(inputs)
    with span("pimexec.parse"):
        program = parse_pim_program(text)
    with span("pimexec.setup"):
        machine = PimExecMachine()
    with span("pimexec.execute"):
        program.execute(machine)
    with span("memsys.replay"):
        telemetry = ReplayTelemetry() if traced else None
        result = machine.replay(telemetry=telemetry)
    return Outcome(
        result.stats,
        str(result.engine),
        telemetry=telemetry,
        records=len(program),
        commands=result.n_requests,
    )


def check_layer(inputs: LayerInputs, outcome: Outcome) -> _t.List[str]:
    if outcome.stats.n_requests != outcome.commands:
        return [
            f"{outcome.stats.n_requests} requests completed of "
            f"{outcome.commands} emitted"
        ]
    return []


def reference_layer(inputs: LayerInputs) -> Reference:
    program = parse_pim_program(_layer_text(inputs))
    machine = PimExecMachine()
    program.execute(machine)
    telemetry = ReplayTelemetry()
    result = machine.replay(engine="event", telemetry=telemetry)
    outcome = Outcome(result.stats, "event", telemetry=telemetry)
    return Reference(
        digest(outcome),
        input_properties(telemetry.recorder.op_code, program.timestamped),
        [],
    )


def vectorized_share(outcome: Outcome) -> float:
    """Share of requests served on the closed-form tier.

    The engine labels a whole stream today, so this is 0 or 1.
    """
    return 1.0 if replay_tier(outcome.engine) == "fastpath" else 0.0


_TRACE_MODULES = (
    "repro.cli",
    "repro.memsys",
    "repro.memsys.fastpath",
    "repro.telemetry",
)
_PIM_MODULES = (
    "repro.cli",
    "repro.nn",
    "repro.pimexec",
    "repro.memsys.fastpath",
)

WORKLOADS: _t.Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "trace-stream",
            _TRACE_MODULES,
            prepare_stream,
            run_trace_pass,
            check_stream,
            reference_trace,
        ),
        Workload(
            "trace-random",
            _TRACE_MODULES,
            prepare_random,
            run_trace_pass,
            check_trace,
            reference_trace,
        ),
        Workload(
            "gemm-fp16",
            _PIM_MODULES,
            prepare_gemm,
            run_gemm_pass,
            check_gemm,
            reference_gemm,
        ),
        Workload(
            "layer-trace",
            _PIM_MODULES,
            prepare_layer,
            run_layer_pass,
            check_layer,
            reference_layer,
        ),
    )
}
