"""The top-level trace-driven memory system.

:class:`MemorySystem` ties an :class:`~repro.memsys.addrmap.AddressMap`
to a set of per-channel controllers (each with its banks) on one
:class:`~repro.desim.Simulator` clock, replays request streams with
bounded-queue backpressure, and reduces the per-request times every
replay engine produces into a :class:`MemSysStats` summary
(:func:`reduce_stats`): sustained bandwidth, row-hit rate, and queue
latency — the simulated counterparts of the §2.1 closed forms in
:mod:`repro.arch.dram`.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

import numpy as np

from ..arch.dram import DramMacroTiming
from ..desim import Simulator
from .addrmap import AddressMap, SCHEMES
from .bank import (
    Bank,
    OPEN,
    PER_RANK,
    REFRESH_GRANULARITIES,
    ROW_POLICIES,
    RefreshSchedule,
)
from .controller import FRFCFS, POLICIES, ChannelController
from .request import MemRequest, Op
from .trace import PackedTrace

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..telemetry import ReplayTelemetry

__all__ = [
    "ENGINES",
    "MemSysConfig",
    "MemSysStats",
    "MemorySystem",
    "reduce_stats",
]

#: Replay engine names accepted by :meth:`MemorySystem.replay`.
ENGINES = ("event", "fast", "auto")


def _log2(value: int, what: str) -> int:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


@dataclasses.dataclass(frozen=True)
class MemSysConfig:
    """Geometry, timing, and policy of one simulated memory system.

    Attributes
    ----------
    n_channels, bankgroups, banks_per_group:
        Resource counts (powers of two); total banks per channel is
        ``bankgroups * banks_per_group``.
    rows_per_bank:
        Rows per bank (power of two); sets the row field width.
    timing:
        Per-bank macro timing (paper defaults if omitted); the column
        field width and transaction size derive from ``page_bits``.
    precharge_ns:
        Explicit row-conflict precharge (0 matches the analytic model).
    scheme:
        Address-interleaving scheme name (see
        :data:`repro.memsys.addrmap.SCHEMES`).
    policy:
        Controller scheduling policy (``"fcfs"`` / ``"frfcfs"``).
    queue_depth:
        Per-channel request-queue depth.
    row_policy:
        Row-buffer management: ``"open"`` (default) keeps rows latched
        between accesses, ``"closed"`` auto-precharges after every
        access (each access pays a fresh activation, none a conflict).
    trefi_ns, trfc_ns:
        Refresh interval and refresh cycle time in ns.  The default
        ``trefi_ns=0`` disables refresh modeling; with ``trefi_ns > 0``
        every ``trefi_ns`` a refresh precharges row buffers and blacks
        out its resource for ``trfc_ns`` (see
        :class:`~repro.memsys.bank.RefreshSchedule`).  HBM2-class
        numbers are ``trefi_ns=3900, trfc_ns=350``.
    refresh_granularity:
        ``"per-rank"`` (default: all banks of a channel refresh
        together, the channel stalls) or ``"per-bank"`` (staggered:
        only the refreshing bank is blocked).
    """

    n_channels: int = 2
    bankgroups: int = 2
    banks_per_group: int = 2
    rows_per_bank: int = 16384
    timing: DramMacroTiming = dataclasses.field(
        default_factory=DramMacroTiming
    )
    precharge_ns: float = 0.0
    scheme: str = "row-major"
    policy: str = FRFCFS
    queue_depth: int = 16
    row_policy: str = OPEN
    trefi_ns: float = 0.0
    trfc_ns: float = 0.0
    refresh_granularity: str = PER_RANK

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; available: "
                f"{sorted(SCHEMES)}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; available: {POLICIES}"
            )
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.row_policy not in ROW_POLICIES:
            raise ValueError(
                f"unknown row_policy {self.row_policy!r}; available: "
                f"{ROW_POLICIES}"
            )
        if self.precharge_ns < 0:
            raise ValueError(
                f"precharge_ns must be >= 0, got {self.precharge_ns}"
            )
        if self.trefi_ns < 0 or self.trfc_ns < 0:
            raise ValueError(
                f"trefi_ns and trfc_ns must be >= 0, got "
                f"trefi_ns={self.trefi_ns} trfc_ns={self.trfc_ns}"
            )
        if self.trefi_ns == 0 and self.trfc_ns > 0:
            raise ValueError(
                "trfc_ns > 0 needs trefi_ns > 0 (refresh is enabled "
                "by a positive refresh interval)"
            )
        if self.refresh_granularity not in REFRESH_GRANULARITIES:
            raise ValueError(
                f"unknown refresh_granularity "
                f"{self.refresh_granularity!r}; available: "
                f"{REFRESH_GRANULARITIES}"
            )
        self.refresh_schedule()  # validates tRFC against tREFI
        self.address_map()  # validates the power-of-two geometry

    @property
    def banks_per_channel(self) -> int:
        return self.bankgroups * self.banks_per_group

    @property
    def refresh_enabled(self) -> bool:
        return self.trefi_ns > 0

    def refresh_schedule(self) -> _t.Optional[RefreshSchedule]:
        """The per-channel refresh schedule (``None`` when disabled)."""
        if not self.refresh_enabled:
            return None
        return RefreshSchedule(
            trefi_ns=self.trefi_ns,
            trfc_ns=self.trfc_ns,
            granularity=self.refresh_granularity,
            n_banks=self.banks_per_channel,
        )

    @property
    def transaction_bytes(self) -> int:
        """Bytes per transaction: one page of the row buffer."""
        return self.timing.page_bits // 8

    def address_map(self) -> AddressMap:
        """The bit-field map implied by this geometry."""
        return AddressMap.from_scheme(
            self.scheme,
            channel_bits=_log2(self.n_channels, "n_channels"),
            bankgroup_bits=_log2(self.bankgroups, "bankgroups"),
            bank_bits=_log2(self.banks_per_group, "banks_per_group"),
            row_bits=_log2(self.rows_per_bank, "rows_per_bank"),
            column_bits=_log2(
                self.timing.pages_per_row, "pages_per_row"
            ),
            offset_bits=_log2(
                max(1, self.transaction_bytes), "transaction bytes"
            ),
        )


@dataclasses.dataclass
class MemSysStats:
    """Replay summary, reduced from per-request times by
    :func:`reduce_stats`."""

    n_requests: int
    total_bits: int
    makespan_ns: float
    sustained_bits_per_sec: float
    row_hit_rate: float
    row_hits: int
    row_misses: int
    row_conflicts: int
    mean_queue_latency_ns: float
    #: Time-averaged queue length per channel (averaged over channels,
    #: like :attr:`channel_utilization`).
    mean_queue_length: float
    channel_utilization: float
    per_channel: _t.List[dict]

    def to_rows(self) -> _t.List[dict]:
        """Per-channel table rows for CSV/report export."""
        return self.per_channel

    def summary(self) -> dict:
        """Flat system-level row for CSV/report export."""
        return {
            "requests": self.n_requests,
            "sustained_gbit_per_s": self.sustained_bits_per_sec / 1e9,
            "row_hit_rate": self.row_hit_rate,
            "mean_latency_ns": self.mean_queue_latency_ns,
            "mean_queue_length": self.mean_queue_length,
            "utilization": self.channel_utilization,
            "makespan_ns": self.makespan_ns,
        }


def reduce_stats(
    config: MemSysConfig,
    arrays: _t.Mapping[str, np.ndarray],
    bank_counts: _t.Sequence[_t.Sequence[int]],
    makespan_ns: float,
    start_ns: float = 0.0,
) -> _t.Tuple[MemSysStats, _t.List[_t.Dict[str, float]]]:
    """Reduce a replay's per-request times into its statistics.

    The one statistics path of every engine: the event engine, both
    fast-path tiers and the replay farm's merge all produce the same
    trace-ordered arrays, so every statistic is bit-identical across
    them by construction.

    Parameters
    ----------
    config:
        The replayed system's configuration.
    arrays:
        The latency recorder's trace-ordered arrays; this reads
        ``arrival``, ``start_service``, ``finish``, ``channel`` and
        ``op`` (a PIM request moves ``page_bits * banks_per_channel``
        bits, every other request ``page_bits``).  Trace order is
        admission order within each channel.
    bank_counts:
        Per channel, the ``(hits, misses, conflicts)`` totals of its
        banks' row-buffer counters.
    makespan_ns:
        The clock at the end of the replay.
    start_ns:
        When observation began (the controllers' construction time).

    Returns
    -------
    (MemSysStats, per-channel extremes)
        The extremes are one dict per channel with ``latency_min_ns``,
        ``latency_max_ns``, ``queue_max`` and ``busy_fraction`` — what
        the flat summary reduces away.  ``queue_max`` resolves an
        admission and a dequeue at the same instant admission-first and
        is clipped at the queue depth, so it can exceed the event
        calendar's peak by one transient slot.  A channel is busy from a
        service start until a finish by which none of its later-served
        requests has arrived (one arriving at that very instant
        continues the busy period).
    """
    n_channels = config.n_channels
    depth = config.queue_depth
    page_bits = config.timing.page_bits
    arrival = arrays["arrival"]
    start = arrays["start_service"]
    finish = arrays["finish"]
    channel = arrays["channel"]
    # a PIM request moves one page per bank, every other one page
    pim_counts = np.bincount(
        channel[arrays["op"] == Op.PIM.code], minlength=n_channels
    ).tolist()
    span = makespan_ns - start_ns
    # a stable sort keeps each channel's requests in admission order
    order = np.argsort(channel, kind="stable")
    bounds = np.r_[
        0, np.cumsum(np.bincount(channel, minlength=n_channels))
    ].tolist()
    per_channel = []
    extremes = []
    latency_sum = queue_sum = busy_sum = 0.0
    hits = misses = conflicts = total_bits = 0
    for ch in range(n_channels):
        idx = order[bounds[ch] : bounds[ch + 1]]
        n_c = int(idx.shape[0])
        ch_hits, ch_misses, ch_conflicts = (int(c) for c in bank_counts[ch])
        hits += ch_hits
        misses += ch_misses
        conflicts += ch_conflicts
        accesses = ch_hits + ch_misses + ch_conflicts
        ch_bits = page_bits * (
            n_c + (config.banks_per_channel - 1) * pim_counts[ch]
        )
        total_bits += ch_bits
        if n_c:
            a = arrival[idx]
            s = start[idx]
            f = finish[idx]
            lat = f - a
            ch_latency = float(lat.sum())
            latency_sum += ch_latency
            by_start = np.argsort(s, kind="stable")
            s_sorted = s[by_start]
            f_sorted = f[by_start]
            # earliest arrival among the requests served at or after
            # each one: the queue is empty at a finish iff none of the
            # later-served requests has arrived by then
            later = np.minimum.accumulate(a[by_start][::-1])[::-1]
            ends = np.r_[later[1:] > f_sorted[:-1], True]
            begins = np.r_[True, ends[:-1]]
            busy = float((f_sorted[ends] - s_sorted[begins]).sum())
            queue_integral = float((s - a).sum())
            # occupancy after each admission, counting a dequeue at the
            # same instant as still pending
            occupancy = np.arange(1, n_c + 1) - np.searchsorted(
                s_sorted, a, side="left"
            )
            queue_max = float(min(int(occupancy.max()), depth))
            mean_latency = ch_latency / n_c
            latency_min = float(lat.min())
            latency_max = float(lat.max())
        else:
            busy = queue_integral = queue_max = 0.0
            mean_latency = latency_min = latency_max = math.nan
        queue_mean = queue_integral / span if span > 0 else math.nan
        busy_fraction = busy / span if span > 0 else math.nan
        queue_sum += 0.0 if math.isnan(queue_mean) else queue_mean
        busy_sum += 0.0 if math.isnan(busy_fraction) else busy_fraction
        per_channel.append(
            {
                "channel": ch,
                "requests": n_c,
                "row_hit_rate": (
                    ch_hits / accesses if accesses else math.nan
                ),
                "mean_latency_ns": mean_latency,
                "gbit_delivered": ch_bits / 1e9,
            }
        )
        extremes.append(
            {
                "latency_min_ns": latency_min,
                "latency_max_ns": latency_max,
                "queue_max": queue_max,
                "busy_fraction": busy_fraction,
            }
        )
    n_requests = int(arrival.shape[0])
    accesses = hits + misses + conflicts
    stats = MemSysStats(
        n_requests=n_requests,
        total_bits=total_bits,
        makespan_ns=makespan_ns,
        sustained_bits_per_sec=(
            total_bits / (makespan_ns * 1e-9)
            if makespan_ns > 0
            else math.nan
        ),
        row_hit_rate=hits / accesses if accesses else math.nan,
        row_hits=hits,
        row_misses=misses,
        row_conflicts=conflicts,
        mean_queue_latency_ns=(
            latency_sum / n_requests if n_requests else math.nan
        ),
        mean_queue_length=queue_sum / n_channels,
        channel_utilization=busy_sum / n_channels,
        per_channel=per_channel,
    )
    return stats, extremes


class MemorySystem:
    """Banked, multi-channel memory system on a desim clock.

    Parameters
    ----------
    config:
        Geometry/timing/policy; defaults to :class:`MemSysConfig`.
    sim:
        An existing simulator to share a clock with other models; a
        private one is created if omitted.
    """

    def __init__(
        self,
        config: _t.Optional[MemSysConfig] = None,
        sim: _t.Optional[Simulator] = None,
    ) -> None:
        self.config = config or MemSysConfig()
        # an idle Simulator is falsy (it has __len__), so test identity
        self._private_sim = sim is None
        self.sim = sim if sim is not None else Simulator()
        self.addr_map = self.config.address_map()
        self._replayed = False
        #: Which engine the last :meth:`replay` used: ``"event"``,
        #: ``"fast-vectorized"``, or ``"fast-exact"`` (``None`` before
        #: any replay).
        self.last_replay_engine: _t.Optional[str] = None
        #: Per-channel extremes of the last replay (see
        #: :func:`reduce_stats`); empty before any replay.
        self.channel_metrics: _t.List[_t.Dict[str, float]] = []
        # observation starts with the controllers' construction
        self._start_ns = self.sim.now
        # requests submitted outside replay(), served by a later replay
        self._submitted: _t.List[MemRequest] = []
        self.controllers: _t.List[ChannelController] = []
        for channel in range(self.config.n_channels):
            banks = [
                Bank(
                    self.config.timing,
                    self.config.precharge_ns,
                    name=f"ch{channel}.b{index}",
                    row_policy=self.config.row_policy,
                )
                for index in range(self.config.banks_per_channel)
            ]
            self.controllers.append(
                ChannelController(
                    self.sim,
                    channel,
                    banks,
                    policy=self.config.policy,
                    queue_depth=self.config.queue_depth,
                    banks_per_group=self.config.banks_per_group,
                    refresh=self.config.refresh_schedule(),
                )
            )

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------
    def route(self, request: MemRequest) -> ChannelController:
        """Decode the request's coordinates; return its controller."""
        request.coords = self.addr_map.decode(request.addr)
        return self.controllers[request.coords.channel]

    def submit(self, request: MemRequest):
        """Route and enqueue one request; returns its completion event.

        The caller must respect queue backpressure (see
        :meth:`ChannelController.has_space`); :meth:`replay` does.
        """
        self._submitted.append(request)
        return self.route(request).enqueue(request)

    def pim_broadcast(self, row: int) -> _t.List[MemRequest]:
        """Issue one PIM all-bank request per channel for ``row``.

        Convenience for chip-wide PIM kernels; returns the requests.
        """
        requests = []
        for channel in range(self.config.n_channels):
            coords = dataclasses.replace(
                self.addr_map.decode(0), channel=channel, row=row
            )
            request = MemRequest(Op.PIM, self.addr_map.encode(coords))
            self.submit(request)
            requests.append(request)
        return requests

    # ------------------------------------------------------------------
    # trace replay
    # ------------------------------------------------------------------
    def _injector(self, requests: _t.Sequence[MemRequest]):
        for request in requests:
            when = request.timestamp
            if when is not None and when > self.sim.now:
                # hold the stream until the trace arrival time; sim.at
                # fires at exactly `when`, so arrival timestamps match
                # the fast path bit-for-bit
                yield self.sim.at(when)
            controller = self.route(request)
            while not controller.has_space:
                yield controller.space_event()
            controller.enqueue(request)

    def replay(
        self,
        requests: _t.Union[_t.Sequence[MemRequest], PackedTrace],
        engine: str = "auto",
        telemetry: _t.Optional["ReplayTelemetry"] = None,
    ) -> MemSysStats:
        """Replay ``requests``; run to completion.

        Untimestamped requests are injected in order as queue slots
        free up (bounded by ``config.queue_depth`` per channel),
        modeling an open queue fed at line rate — the
        sustained-bandwidth regime of §2.1.  A uniformly *timestamped*
        trace is additionally held to its recorded arrival times: each
        request enters its queue no earlier than its timestamp (and no
        earlier than its predecessors), replaying the trace's actual
        traffic intensity.

        Parameters
        ----------
        requests:
            A sequence of :class:`MemRequest` objects or a
            :class:`~repro.memsys.trace.PackedTrace`.
        engine:
            * ``"event"`` — the desim event engine: every request is a
              scheduled process step; per-event trace hooks fire; every
              per-request runtime field is filled in.
            * ``"fast"`` — the event-free fast path
              (:mod:`repro.memsys.fastpath`): closed-form ready-time
              arithmetic, identical ``MemSysStats``, orders of magnitude
              faster.  Per-request runtime fields are filled in only for
              object traces (never for :class:`PackedTrace` inputs), and
              no per-event trace records are emitted.
            * ``"auto"`` (default) — the fast path whenever no per-event
              trace hooks are installed (``sim.tracer is None``), the
              simulator is private to this system, and its clock is
              untouched (``sim.now == 0``); the event engine otherwise
              (a shared or already-advanced clock, or an attached
              tracer, implies the caller wants the event calendar).
        telemetry:
            Optional :class:`~repro.telemetry.ReplayTelemetry`.  When
            attached, its latency recorder adopts the per-request
            arrival/start/finish times (bit-identical across engines)
            and its profiler times the replay phases; afterwards the
            telemetry holds the stats, engine, and config needed for
            metrics/timeline export.  Off by default and free when off.
        """
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; available: {ENGINES}"
            )
        if not isinstance(requests, PackedTrace):
            requests = list(requests)
            self._validate_timestamps(requests)
        if len(requests) == 0:
            raise ValueError("cannot replay an empty request stream")
        if self._replayed:
            raise RuntimeError(
                "this MemorySystem has already replayed a trace; its "
                "counters are cumulative — build a fresh MemorySystem "
                "per trace"
            )
        if engine == "auto":
            engine = (
                "fast"
                if self._private_sim
                and self.sim.tracer is None
                and self.sim.now == 0.0
                else "event"
            )
        if engine == "fast":
            from .fastpath import replay_fast

            if self.sim.now != 0.0:
                raise RuntimeError(
                    "the fast-path engine requires a fresh simulator "
                    f"clock (sim.now={self.sim.now!r}); use "
                    "engine='event' on an already-advanced simulator"
                )
            self._replayed = True
            stats = replay_fast(self, requests, telemetry)
            if telemetry is not None:
                telemetry._finish(self, stats)
            return stats
        self._replayed = True

        profiler = telemetry.profiler if telemetry is not None else None
        if isinstance(requests, PackedTrace):
            if profiler is not None:
                with profiler.phase("decode"):
                    requests = requests.to_requests()
            else:
                requests = requests.to_requests()
        self.last_replay_engine = "event"
        self.sim.process(self._injector(requests), name="memsys.injector")
        if profiler is not None:
            with profiler.phase("tier-execute"):
                self.sim.run()
        else:
            self.sim.run()
        # every request the controllers served, in admission order
        served = self._submitted + requests
        unfinished = [r for r in served if math.isnan(r.finish)]
        if unfinished:  # pragma: no cover - defensive
            raise RuntimeError(
                f"{len(unfinished)} request(s) never completed"
            )
        arrays = _request_arrays(served)
        if telemetry is not None and telemetry.recorder is not None:
            telemetry.recorder._capture_arrays(arrays)
        if profiler is not None:
            with profiler.phase("stats-gather"):
                stats = self._reduce(arrays, self.sim.now)
        else:
            stats = self._reduce(arrays, self.sim.now)
        if telemetry is not None:
            telemetry._finish(self, stats)
        return stats

    def _reduce(
        self, arrays: _t.Mapping[str, np.ndarray], makespan_ns: float
    ) -> MemSysStats:
        """:func:`reduce_stats` over this system's banks; keeps the
        per-channel extremes as :attr:`channel_metrics`."""
        bank_counts = [
            (
                sum(bank.hits for bank in controller.banks),
                sum(bank.misses for bank in controller.banks),
                sum(bank.conflicts for bank in controller.banks),
            )
            for controller in self.controllers
        ]
        stats, self.channel_metrics = reduce_stats(
            self.config, arrays, bank_counts, makespan_ns, self._start_ns
        )
        return stats

    @staticmethod
    def _validate_timestamps(requests: _t.Sequence[MemRequest]) -> None:
        """Reject mixed or decreasing timestamps before any replay.

        (:class:`PackedTrace` inputs validate at construction; this is
        the object-trace counterpart.)
        """
        timed = sum(1 for r in requests if r.timestamp is not None)
        if timed and timed != len(requests):
            raise ValueError(
                "trace mixes timestamped and untimestamped requests; "
                "timestamp every request or none"
            )
        if timed:
            last = 0.0
            for index, request in enumerate(requests):
                when = _t.cast(float, request.timestamp)
                if when < last:
                    raise ValueError(
                        f"request {index}: timestamp {when!r} decreases "
                        f"(previous was {last!r})"
                    )
                last = when

    def __repr__(self) -> str:
        c = self.config
        return (
            f"<MemorySystem {c.n_channels}ch x "
            f"{c.banks_per_channel}banks {c.scheme} {c.policy}>"
        )


def _request_arrays(
    requests: _t.Sequence[MemRequest],
) -> _t.Dict[str, np.ndarray]:
    """The recorder's eight trace-ordered arrays, read off replayed
    request objects (the event engine fills every runtime field)."""
    from ..telemetry.latency import ALL_BANKS, OUTCOME_NAMES

    code_of = {name: code for code, name in enumerate(OUTCOME_NAMES)}

    def column(values, dtype=np.int64) -> np.ndarray:
        return np.fromiter(values, dtype=dtype, count=len(requests))

    return {
        "arrival": column((r.arrival for r in requests), np.float64),
        "start_service": column(
            (r.start_service for r in requests), np.float64
        ),
        "finish": column((r.finish for r in requests), np.float64),
        "outcome": column(code_of[r.outcome] for r in requests),
        "channel": column(r.coords.channel for r in requests),
        "bank": column(
            ALL_BANKS if r.bank_index is None else r.bank_index
            for r in requests
        ),
        "row": column(r.coords.row for r in requests),
        "op": column(r.op.code for r in requests),
    }
