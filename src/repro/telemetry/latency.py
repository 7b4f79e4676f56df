"""Per-request latency recording across both replay engines.

Every replay engine already *knows* every request's arrival, service
start, and finish: the event engine stamps them onto
:class:`MemRequest` objects as its calendar advances, the vectorized
fast-path tier solves them in closed form, and the exact fast-path tier
fills trace-ordered arrays as its loop runs.  Each engine assembles them
into the same eight trace-ordered arrays, reduces its
:class:`~repro.memsys.MemSysStats` from them
(:func:`~repro.memsys.system.reduce_stats`), and hands the very same
dict to :class:`LatencyRecorder` — so recording costs no copy and never
perturbs the replay arithmetic.

Because the fast path is certified bit-exact against the event engine,
the recorded ``arrival`` / ``start_service`` / ``finish`` arrays are
**bit-identical** between engines for the same trace and configuration —
a certificate-strength guarantee the cross-engine equivalence suite
(``tests/telemetry/test_equivalence.py``) checks with
``np.array_equal`` over the full refresh × arrival × scheme × policy
matrix.

:class:`ReplayTelemetry` is the handle callers pass to
:meth:`MemorySystem.replay(..., telemetry=...)
<repro.memsys.MemorySystem.replay>`: it bundles the recorder with a
:class:`~repro.telemetry.profile.PhaseProfiler`, remembers which engine
ran, and fans out to the metrics registry and the Chrome-trace timeline
exporter.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from .profile import PhaseProfiler
from .registry import MetricsRegistry, latency_summary

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..memsys.system import MemorySystem, MemSysConfig, MemSysStats

__all__ = ["OUTCOME_NAMES", "LatencyRecorder", "ReplayTelemetry"]

#: Outcome vocabulary: codes 0-2 align with
#: :data:`repro.memsys.bank.OUTCOMES`; 3 is the AB register broadcast
#: (which never touches a row buffer, so the bank module doesn't know
#: it).
OUTCOME_NAMES = ("hit", "miss", "conflict", "broadcast")

#: Pseudo bank index for all-bank operations (PIM row ops, AB
#: broadcasts), which occupy every bank of their channel at once.
ALL_BANKS = -1


class LatencyRecorder:
    """Trace-ordered per-request times, captured from a replay.

    Populated by the replay engines through the private capture hook;
    everything public reads or derives from the captured arrays:

    * :attr:`arrival`, :attr:`start_service`, :attr:`finish` — the
      engine's exact per-request instants (ns, trace order);
    * :attr:`queue_wait`, :attr:`service_time`, :attr:`total_latency` —
      the derived durations;
    * :attr:`channel`, :attr:`bank`, :attr:`row`, :attr:`op_code`,
      :attr:`outcome_code` — routing and outcome context
      (``bank == ALL_BANKS`` for all-bank PIM/AB operations).
    """

    def __init__(self) -> None:
        self._arrays: _t.Optional[_t.Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # capture hook (called by the replay engines)
    # ------------------------------------------------------------------
    def _capture_arrays(
        self, arrays: _t.Dict[str, np.ndarray]
    ) -> None:
        """Adopt a replay's trace-ordered arrays.

        Every engine hands over the same eight arrays its statistics
        reduction (:func:`~repro.memsys.system.reduce_stats`) reads —
        the event engine's, read off its request objects; either
        fast-path tier's; or the replay farm's, scattered back to trace
        order.  The dict is adopted as is, not copied.
        """
        if self._arrays is not None:
            raise RuntimeError(
                "this LatencyRecorder already captured a replay; use a "
                "fresh ReplayTelemetry per replay"
            )
        expected = {
            "arrival", "start_service", "finish", "outcome",
            "channel", "bank", "row", "op",
        }
        if set(arrays) != expected:
            raise ValueError(
                f"capture needs keys {sorted(expected)}, got "
                f"{sorted(arrays)}"
            )
        self._arrays = arrays

    @property
    def captured(self) -> bool:
        return self._arrays is not None

    def _assemble(self) -> _t.Dict[str, np.ndarray]:
        if self._arrays is None:
            raise RuntimeError(
                "no replay captured; pass this telemetry to "
                "MemorySystem.replay(..., telemetry=...) first"
            )
        return self._arrays

    # ------------------------------------------------------------------
    # recorded arrays (trace order)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self._assemble()["arrival"].shape[0])

    @property
    def arrival(self) -> np.ndarray:
        return self._assemble()["arrival"]

    @property
    def start_service(self) -> np.ndarray:
        return self._assemble()["start_service"]

    @property
    def finish(self) -> np.ndarray:
        return self._assemble()["finish"]

    @property
    def outcome_code(self) -> np.ndarray:
        return self._assemble()["outcome"]

    @property
    def channel(self) -> np.ndarray:
        return self._assemble()["channel"]

    @property
    def bank(self) -> np.ndarray:
        """Flat bank index per request; :data:`ALL_BANKS` for PIM/AB."""
        return self._assemble()["bank"]

    @property
    def row(self) -> np.ndarray:
        return self._assemble()["row"]

    @property
    def op_code(self) -> np.ndarray:
        return self._assemble()["op"]

    # ------------------------------------------------------------------
    # derived durations
    # ------------------------------------------------------------------
    @property
    def queue_wait(self) -> np.ndarray:
        """Admission-to-service wait per request (ns)."""
        arrays = self._assemble()
        return arrays["start_service"] - arrays["arrival"]

    @property
    def service_time(self) -> np.ndarray:
        """Service occupancy per request (ns)."""
        arrays = self._assemble()
        return arrays["finish"] - arrays["start_service"]

    @property
    def total_latency(self) -> np.ndarray:
        """Arrival-to-finish latency per request (ns)."""
        arrays = self._assemble()
        return arrays["finish"] - arrays["arrival"]

    def percentiles(self) -> _t.Dict[str, _t.Dict[str, float]]:
        """Exact p50/p95/p99/max summaries of the three durations."""
        return {
            "queue_wait_ns": latency_summary(self.queue_wait),
            "service_time_ns": latency_summary(self.service_time),
            "total_latency_ns": latency_summary(self.total_latency),
        }

    def __repr__(self) -> str:
        if not self.captured:
            return "<LatencyRecorder (no replay captured)>"
        return f"<LatencyRecorder n={self.n}>"


class ReplayTelemetry:
    """One replay's worth of observability: recorder + profiler.

    Pass an instance to :meth:`MemorySystem.replay(..., telemetry=...)
    <repro.memsys.MemorySystem.replay>` (or through
    ``PimExecMachine.replay`` / ``compare_host_pim`` /
    ``run_nn_kernel``); afterwards it holds the per-request latency
    arrays, the per-phase wall-clock profile, and enough context
    (engine, config, makespan) to export the command timeline.

    Parameters
    ----------
    latency:
        Record per-request times (default on).
    profile:
        Record per-phase wall-clock timers (default on).
    """

    def __init__(self, latency: bool = True, profile: bool = True) -> None:
        self.recorder = LatencyRecorder() if latency else None
        self.profiler = PhaseProfiler() if profile else None
        #: Engine that served the replay (``"event"`` /
        #: ``"fast-vectorized"`` / ``"fast-exact"``).
        self.engine: _t.Optional[str] = None
        self.config: _t.Optional["MemSysConfig"] = None
        self.stats: _t.Optional["MemSysStats"] = None
        self.makespan_ns: float = math.nan
        #: Set by :func:`repro.farm.replay_farm`: the supervisor's
        #: span log, merged into the timeline as worker/shard tracks.
        self.farm_events: _t.Optional[_t.Any] = None

    # ------------------------------------------------------------------
    def _finish(
        self, system: "MemorySystem", stats: "MemSysStats"
    ) -> None:
        """Called by :meth:`MemorySystem.replay` once stats exist."""
        self.engine = system.last_replay_engine
        self.config = system.config
        self.stats = stats
        self.makespan_ns = stats.makespan_ns

    @property
    def finished(self) -> bool:
        return self.stats is not None

    # ------------------------------------------------------------------
    def percentiles(self) -> _t.Dict[str, _t.Dict[str, float]]:
        if self.recorder is None:
            raise RuntimeError(
                "latency recording was disabled for this telemetry"
            )
        return self.recorder.percentiles()

    def metrics_into(
        self, registry: MetricsRegistry, **tags: _t.Any
    ) -> MetricsRegistry:
        """Emit this replay's telemetry into a metrics registry."""
        if self.engine is not None:
            tags = dict(tags, engine=self.engine)
        if self.recorder is not None and self.recorder.captured:
            recorder = self.recorder
            registry.counter(
                "telemetry.requests_recorded", recorder.n, **tags
            )
            registry.histogram(
                "telemetry.queue_wait_ns", recorder.queue_wait, **tags
            )
            registry.histogram(
                "telemetry.service_time_ns",
                recorder.service_time,
                **tags,
            )
            registry.histogram(
                "telemetry.total_latency_ns",
                recorder.total_latency,
                **tags,
            )
        if self.profiler is not None:
            self.profiler.metrics_into(registry, **tags)
        return registry

    # ------------------------------------------------------------------
    def timeline(
        self, max_events: _t.Optional[int] = None
    ) -> dict:
        """The Chrome-trace-event document for this replay."""
        from .timeline import build_timeline

        if max_events is None:
            return build_timeline(self)
        return build_timeline(self, max_events=max_events)

    def write_timeline(
        self,
        path: _t.Any,
        max_events: _t.Optional[int] = None,
    ):
        """Write the timeline JSON; returns the path."""
        from .timeline import write_timeline

        return write_timeline(self, path, max_events=max_events)

    # ------------------------------------------------------------------
    def timeseries(
        self,
        window_ns: _t.Optional[float] = None,
        n_windows: _t.Optional[int] = None,
    ) -> dict:
        """The ``timeseries-v2`` windowed-metrics document."""
        from .timeseries import build_timeseries

        return build_timeseries(
            self, window_ns=window_ns, n_windows=n_windows
        )

    def write_timeseries(
        self,
        path: _t.Any,
        window_ns: _t.Optional[float] = None,
        n_windows: _t.Optional[int] = None,
    ):
        """Write the time-series JSON; returns the path."""
        from .timeseries import write_timeseries

        return write_timeseries(
            self, path, window_ns=window_ns, n_windows=n_windows
        )

    # ------------------------------------------------------------------
    def energy(
        self,
        coefficients: _t.Optional[_t.Any] = None,
        window_ns: _t.Optional[float] = None,
        n_windows: _t.Optional[int] = None,
    ) -> dict:
        """The ``energy-v1`` command-level energy document."""
        from .energy import build_energy

        return build_energy(
            self,
            coefficients=coefficients,
            window_ns=window_ns,
            n_windows=n_windows,
        )

    def write_energy(
        self,
        path: _t.Any,
        coefficients: _t.Optional[_t.Any] = None,
        window_ns: _t.Optional[float] = None,
        n_windows: _t.Optional[int] = None,
    ):
        """Write the energy JSON; returns the path."""
        from .energy import write_energy

        return write_energy(
            self,
            path,
            coefficients=coefficients,
            window_ns=window_ns,
            n_windows=n_windows,
        )

    def __repr__(self) -> str:
        return (
            f"<ReplayTelemetry engine={self.engine!r} "
            f"latency={self.recorder is not None} "
            f"profile={self.profiler is not None}>"
        )
