"""Event-free fast-path replay engine.

The desim event engine replays a trace by scheduling two events per
request (a queue wakeup and a service timeout) through a generator-based
process kernel — faithful, observable, and ~50k requests/s.  Every
quantity it produces, however, is *determined* by the trace and the
configuration: service durations follow from per-bank row sequences,
service starts are back-to-back while a queue is busy, arrivals are
pinned to queue-slot releases (or to explicit trace timestamps), and
refresh blackouts are a pure function of the clock.  This module
exploits that determinism to replay traces at millions of requests per
second while producing the same per-request times, and therefore the
same :class:`MemSysStats`: every engine reduces its statistics from
those times with one function
(:func:`~repro.memsys.system.reduce_stats`).

It is organized as two tiers behind one entry point,
:func:`replay_fast`:

**Tier 1 — vectorized closed form.**  Banks are reduced to plain
``(open_row, ready_at_ns)`` records advanced by array arithmetic:

* per-channel FIFO service order is assumed, row-buffer outcomes are
  computed in one vectorized pass (previous-same-bank row comparison —
  an open-row streak of ``L`` requests costs one activation plus ``L``
  batched page spans, charged by a single ``cumsum``; AB register
  broadcasts never touch a row buffer, so they are charged one page
  access and skipped by the outcome scan), and service finishes follow
  as sequential prefix sums of the durations;
* *line-rate* arrivals follow from the bounded queue: the ``m``-th
  request of a channel is admitted exactly when the ``(m - depth)``-th
  service *starts* (that dequeue frees its slot), so ``A[m] =
  S[m - depth]``;
* *timestamped* arrivals are taken from the trace: ``A[m] = T[m]``, and
  service starts solve the Lindley recurrence ``S[j] = max(T[j],
  F[j-1])`` — located with one vectorized running-max scan, then
  recomputed per busy segment with the event engine's exact
  left-to-right float additions (:func:`_segmented_service`);
* *refresh* (per-rank tREFI/tRFC) appears as deterministic ready-time
  fences: the service stream is chunked at refresh boundaries
  (:func:`_chunked_refresh_channel`) — within an epoch starts are
  back-to-back cumsums, each boundary precharges every row buffer (the
  next chunk's outcome scan restarts from all-banks-closed), and a
  start landing inside a blackout is pushed to its end with the same
  float expression the event engine's stall timeout produces.

Exact, conservative, and themselves vectorized *certificates* decide
whether the closed form reproduces the event engine:

1. *FIFO certificate* (FR-FCFS only): at every selection whose head is
   not a row hit, no request in the queue window (the next
   ``queue_depth - 1`` same-channel requests — a superset of the
   engine's visible queue) hits its bank's open row.  When that holds,
   FR-FCFS never reorders and the FIFO outcome arrays are exact.  FCFS
   and pure all-bank channels (PIM row ops and AB register broadcasts
   occupy every bank or act as scheduling barriers, so the controller
   serves them strictly in order) are FIFO by construction.  With
   refresh, the certificate runs per epoch
   chunk (row buffers restart closed) with a ``depth - 1`` lookahead
   into the next chunk.
2. *Line-rate certificate* (untimestamped traces): the arrival
   candidates ``A[m] = S[m - depth]`` must be non-decreasing in trace
   order.  Then the injector never stalls one channel on another's
   full queue and the closed-form times solve the engine's recurrences
   exactly.  When it *fails* on a FIFO-certified trace (e.g. random
   traffic under FCFS — the channel imbalance starves queues), the
   arrivals are instead solved to a fixed point of the coupled
   injector/service recurrences (:func:`_arrival_fixed_point`), which
   converges to the event engine's exact values or falls back.
3. *Backpressure certificate* (timestamped traces): every arrival must
   find a free queue slot, ``T[j] >= S[j - depth]`` per channel; then
   arrivals equal the trace timestamps exactly.

Streaming, strided, and all-bank (PIM and AB) traces pass the
certificates with or without refresh; timestamped traces pass whenever
their arrival rate keeps queues from overflowing; FCFS random traffic
is certified through the arrival fixed point.  Refresh at per-bank
granularity, refresh combined with timestamps, and channels that mix
host requests with all-bank commands always take tier 2.

**Tier 2 — exact incremental replay.**  Traces that fail a certificate
(e.g. random traffic under FR-FCFS, whose stray row hits let the
scheduler reorder) fall back to one index-based event loop over the
decoded arrays (:func:`_replay_exact`): per-channel pending lists of
trace indices, per-bank open rows, and plain ``(time, seq, code)``
tuples on a heap that reproduce the event engine's ``(time, priority,
insertion)`` scheduling order — no request objects, no Event objects or
generators, and no controller method calls per request.  It applies the
controller's selection rule (FR-FCFS oldest row hit first, with a
queued-hit table that skips the scan when nothing hits; FCFS strict
head; PIM skipped by the hit scan; AB a barrier both ways; per-rank and
per-bank refresh gates, the per-bank gate's staged candidate included)
and computes every time with the same float operations in the same
order as the calendar and :meth:`Bank.access
<repro.memsys.bank.Bank.access>`.  Bit-identity therefore rests on that
arithmetic, not on shared code: the event engine, driving
:class:`~repro.memsys.controller.ChannelController`, is the oracle, and
``tests/memsys/test_exact_tier.py`` checks every controller's
:meth:`~repro.memsys.controller.ChannelController.export_state` (bank
counters, open rows, applied refresh epochs), the recorder arrays, the
object write-back and the statistics with ``==`` across policy, row
policy, queue depth, refresh, timestamps and traffic mix.  Bank state
loads through :meth:`ChannelController.load_state
<repro.memsys.controller.ChannelController.load_state>`, the same hook
tier 1 uses.  It runs at about 0.5M requests/s on random FR-FCFS traffic
(about 2 µs per request on a 2-vCPU x86-64 host, Python 3.11).

Differences from the event engine (both tiers):

* no per-event trace records are emitted (``engine="auto"`` therefore
  only picks the fast path when no tracer is attached);
* ``MemRequest.done`` completion events are not created;
* per-request runtime fields (coords, bank index, timestamps, outcome,
  bits) are written back for object traces but not for
  :class:`~repro.memsys.trace.PackedTrace` inputs, which never
  materialize request objects at all;
* the controllers' :mod:`repro.desim.stats` collectors are left
  untouched: they are the event engine's oracle, and no statistic
  reads them.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import typing as _t

import numpy as np

from ..errors import ReplayStateError
from .addrmap import Coordinates
from .bank import CLOSED, OUTCOMES, PER_RANK, latency_table
from .controller import FRFCFS
from .request import MemRequest, Op
from .trace import PackedTrace

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..telemetry import ReplayTelemetry
    from .bank import RefreshSchedule
    from .controller import ChannelController
    from .system import MemorySystem, MemSysConfig, MemSysStats

__all__ = ["replay_fast"]


def _null_phase(name: str) -> _t.ContextManager[None]:
    return contextlib.nullcontext()

#: Outcome codes, aligned with :data:`repro.memsys.bank.OUTCOMES`; the
#: AB register broadcast never touches a row buffer, so the bank module
#: doesn't know it — its code 3 aligns with the telemetry layer's
#: :data:`repro.telemetry.OUTCOME_NAMES` instead.
_HIT, _MISS, _CONFLICT, _BROADCAST = 0, 1, 2, 3
#: Outcome vocabulary for per-request write-back (code -> name).
_OUTCOME_NAMES = OUTCOMES + ("broadcast",)
_PIM_CODE = Op.PIM.code
_AB_CODE = Op.AB.code

#: Iteration cap for the arrival fixed point (each iteration is one
#: vectorized pass; stalled-arrival chains longer than this are rare
#: enough to leave to the exact tier).
_MAX_ARRIVAL_ITERS = 64


def replay_fast(
    system: "MemorySystem",
    trace: _t.Union[_t.Sequence[MemRequest], PackedTrace],
    telemetry: _t.Optional["ReplayTelemetry"] = None,
) -> "MemSysStats":
    """Replay ``trace`` through ``system`` without scheduling events.

    Called by :meth:`MemorySystem.replay` with ``engine="fast"`` (or
    ``"auto"``); picks the vectorized closed form when its certificates
    hold and the exact incremental replay otherwise.  Leaves the
    system's banks in the state the event engine would leave behind,
    advances the simulator clock to the replay makespan, and reduces
    statistics from the per-request times with the shared
    :func:`~repro.memsys.system.reduce_stats`.

    With ``telemetry`` attached, its profiler times the four phases
    (``decode`` / ``certificate`` / ``tier-execute`` /
    ``stats-gather``) and its latency recorder adopts the trace-ordered
    arrays the reduction read.
    """
    recorder = telemetry.recorder if telemetry is not None else None
    phase = (
        telemetry.profiler.phase
        if telemetry is not None and telemetry.profiler is not None
        else _null_phase
    )
    with phase("decode"):
        if isinstance(trace, PackedTrace):
            requests: _t.Optional[_t.List[MemRequest]] = None
            op_codes = trace.op_codes.astype(np.int64)
            addrs = trace.addrs
            times = trace.times
        else:
            requests = list(trace)
            n = len(requests)
            op_codes = np.fromiter(
                (r.op.code for r in requests), dtype=np.int64, count=n
            )
            addrs = np.fromiter(
                (r.addr for r in requests), dtype=np.int64, count=n
            )
            # uniform presence was validated by MemorySystem.replay
            if requests and requests[0].timestamp is not None:
                times = np.fromiter(
                    (r.timestamp for r in requests),
                    dtype=np.float64,
                    count=n,
                )
            else:
                times = None
        fields = system.addr_map.decode_fields(addrs)
        config = system.config
        n_banks = config.banks_per_channel
        flat_bank = (
            fields["bankgroup"] * config.banks_per_group + fields["bank"]
        ) % n_banks

    with phase("certificate"):
        plan = _vector_plan(
            system,
            op_codes,
            fields["channel"],
            flat_bank,
            fields["row"],
            times,
        )
    with phase("tier-execute"):
        if plan is not None:
            makespan = _commit_vector_plan(system, plan)
            timing = _plan_arrays(op_codes.shape[0], plan)
            system.last_replay_engine = "fast-vectorized"
        else:
            makespan, timing = _replay_exact(
                system,
                op_codes,
                fields["channel"],
                flat_bank,
                fields["row"],
                times,
            )
            system.last_replay_engine = "fast-exact"
        arrays = _recorder_arrays(op_codes, fields, flat_bank, timing)
        if requests is not None:
            _write_back(requests, config, fields, arrays)
    if recorder is not None:
        recorder._capture_arrays(arrays)
    system.sim._now = makespan
    with phase("stats-gather"):
        return system._reduce(arrays, makespan)


# ----------------------------------------------------------------------
# Tier 1: vectorized closed form
# ----------------------------------------------------------------------
def _vector_plan(
    system: "MemorySystem",
    op_codes: np.ndarray,
    channel: np.ndarray,
    flat_bank: np.ndarray,
    row: np.ndarray,
    times: _t.Optional[np.ndarray],
) -> _t.Optional[_t.List[_t.Optional[dict]]]:
    """Try to solve the whole replay in closed form.

    Returns one record per channel (``None`` entries for idle channels)
    with FIFO outcome codes and the ``A``/``S``/``F`` time arrays, or
    ``None`` when a certificate fails and the exact tier must run.
    """
    config = system.config
    depth = config.queue_depth
    refresh = config.refresh_schedule()
    if refresh is not None and (
        refresh.granularity != PER_RANK or times is not None
    ):
        # per-bank blackouts depend on the selected request, and fences
        # interleaved with trace arrivals break the segmented solvers:
        # both are served exactly by tier 2
        return None
    n = op_codes.shape[0]
    table = latency_table(config.timing, config.precharge_ns)
    # index _BROADCAST charges the AB register broadcast: one column
    # access on the command/data bus — the same page_access_ns the
    # controller's _serve returns (== the row-hit latency)
    latencies = np.array(
        [table[name] for name in OUTCOMES] + [table[OUTCOMES[_HIT]]]
    )
    n_banks = config.banks_per_channel
    closed = config.row_policy == CLOSED
    frfcfs = config.policy == FRFCFS
    plan: _t.List[_t.Optional[dict]] = []
    for ch in range(config.n_channels):
        idx = np.nonzero(channel == ch)[0]
        n_c = int(idx.shape[0])
        if n_c == 0:
            plan.append(None)
            continue
        bank_c = flat_bank[idx]
        row_c = row[idx]
        codes_c = op_codes[idx]
        pim = codes_c == _PIM_CODE
        ab = codes_c == _AB_CODE
        any_pim = bool(pim.any())
        any_ab = bool(ab.any())
        if (any_pim or any_ab) and not bool((pim | ab).all()):
            # host requests interleaved with all-bank commands: the
            # FR-FCFS hoist and the AB barrier interact per selection —
            # exact tier only
            return None
        # ab_c is None for host-only channels; for all-bank channels it
        # marks the AB broadcasts within the PIM/AB lockstep stream
        ab_c = ab if (any_pim or any_ab) else None
        check_fifo = (
            frfcfs and depth > 1 and ab_c is None and not closed
        )
        data: dict = {"idx": idx}
        if refresh is not None:
            chunked = _chunked_refresh_channel(
                refresh,
                bank_c,
                row_c,
                ab_c,
                closed,
                latencies,
                depth,
                n_banks,
                check_fifo,
            )
            if chunked is None:
                return None
            data.update(chunked)
        else:
            outcome, bank_counts, open_final = _chunk_outcomes(
                bank_c, row_c, ab_c, closed, n_banks
            )
            if check_fifo and not _fifo_certificate(
                bank_c, row_c, outcome, depth, n_banks
            ):
                return None
            durations = latencies[outcome]
            data.update(
                outcome=outcome,
                bank_counts=bank_counts,
                open_final=open_final,
                durations=durations,
            )
            if times is not None:
                t_c = times[idx]
                solved = _segmented_service(t_c, durations)
                if solved is None:
                    return None
                start, finish = solved
                if n_c > depth and bool(
                    np.any(t_c[depth:] < start[: n_c - depth])
                ):
                    # backpressure certificate: an arrival would find
                    # its queue full — the injector would stall
                    return None
                data.update(arrival=t_c, start=start, finish=finish)
            else:
                finish = _seq_cumsum(0.0, durations)
                start = np.empty(n_c)
                start[0] = 0.0
                start[1:] = finish[:-1]
                data.update(start=start, finish=finish)
        plan.append(data)

    if times is not None:
        return plan

    # Line-rate arrivals: A[m] = S[m - depth] per channel, valid when
    # the candidates are non-decreasing in trace order (the injector
    # never stalls one channel behind another's full queue).
    arrivals_global = np.zeros(n)
    for data in plan:
        if data is None:
            continue
        idx = data["idx"]
        start = data["start"]
        n_c = idx.shape[0]
        arrival = np.zeros(n_c)
        if n_c > depth:
            arrival[depth:] = start[: n_c - depth]
        data["arrival"] = arrival
        arrivals_global[idx] = arrival
    if n <= 1 or not bool(np.any(np.diff(arrivals_global) < 0)):
        return plan
    if refresh is not None:
        # fences inside the coupled arrival recurrence: exact tier
        return None
    # The line-rate certificate failed on a FIFO-certified trace (FCFS,
    # or FR-FCFS that passed the FIFO certificate): solve the coupled
    # injector/service recurrences to their fixed point instead.
    busy = [
        (data["idx"], data["durations"])
        for data in plan
        if data is not None
    ]
    fixed = _arrival_fixed_point(n, busy, depth)
    if fixed is None:
        return None
    arrivals, solved = fixed
    cursor = 0
    for data in plan:
        if data is None:
            continue
        start, finish = solved[cursor]
        cursor += 1
        data.update(
            arrival=arrivals[data["idx"]], start=start, finish=finish
        )
    return plan


def _chunk_outcomes(
    bank_c: np.ndarray,
    row_c: np.ndarray,
    ab_c: _t.Optional[np.ndarray],
    closed: bool,
    n_banks: int,
) -> _t.Tuple[np.ndarray, np.ndarray, _t.List[_t.Optional[int]]]:
    """FIFO row-buffer outcomes for one all-banks-closed stream.

    Returns ``(outcome codes, per-bank outcome counts, final open
    rows)`` for a request slice served in order starting from closed
    row buffers — a whole channel without refresh, or one refresh epoch
    chunk (each boundary precharges every bank, so every chunk restarts
    from the same state).  ``ab_c`` is ``None`` for a host-only stream;
    for an all-bank stream it marks the AB register broadcasts, which
    are charged code :data:`_BROADCAST`, never touch a row buffer, and
    therefore pass through the PIM row scan without disturbing it.
    """
    n_c = bank_c.shape[0]
    if closed:
        # Auto-precharge: every row access activates a fresh row — all
        # misses, never a hit or conflict, so FR-FCFS has nothing to
        # hoist (FIFO by construction) and all banks end closed.  AB
        # broadcasts bypass the row buffers under any policy.
        outcome = np.full(n_c, _MISS, dtype=np.int64)
        bank_counts = np.zeros((n_banks, 3), dtype=np.int64)
        if ab_c is not None:
            outcome[ab_c] = _BROADCAST
            bank_counts[:, _MISS] = int(n_c - int(ab_c.sum()))
        else:
            bank_counts[:, _MISS] = np.bincount(
                bank_c, minlength=n_banks
            )
        return outcome, bank_counts, [None] * n_banks
    if ab_c is not None:
        # All-bank lockstep: every bank holds the previous PIM row, so
        # outcomes are uniform across banks and follow from the PIM row
        # subsequence alone; AB broadcasts never open or close a row.
        outcome = np.full(n_c, _BROADCAST, dtype=np.int64)
        pim_rows = row_c[~ab_c]
        m = pim_rows.shape[0]
        pim_out = np.empty(m, dtype=np.int64)
        if m:
            pim_out[0] = _MISS
            pim_out[1:] = np.where(
                pim_rows[1:] == pim_rows[:-1], _HIT, _CONFLICT
            )
        outcome[~ab_c] = pim_out
        bank_counts = np.tile(
            np.bincount(pim_out, minlength=3), (n_banks, 1)
        )
        open_final = (
            [int(pim_rows[-1])] * n_banks if m else [None] * n_banks
        )
        return outcome, bank_counts, open_final
    # FIFO row-buffer outcomes: compare each request's row with the
    # previous request on the same bank (stable sort groups banks while
    # preserving service order within each).
    order = np.argsort(bank_c, kind="stable")
    sorted_bank = bank_c[order]
    sorted_row = row_c[order]
    prev_sorted = np.full(n_c, -1, dtype=np.int64)
    if n_c > 1:
        same = sorted_bank[1:] == sorted_bank[:-1]
        prev_sorted[1:][same] = sorted_row[:-1][same]
    prev_row = np.empty(n_c, dtype=np.int64)
    prev_row[order] = prev_sorted
    outcome = np.where(
        row_c == prev_row,
        _HIT,
        np.where(prev_row < 0, _MISS, _CONFLICT),
    )
    bank_counts = np.bincount(
        bank_c * 3 + outcome, minlength=3 * n_banks
    ).reshape(n_banks, 3)
    open_final: _t.List[_t.Optional[int]] = [None] * n_banks
    group_ends = np.nonzero(
        np.r_[sorted_bank[1:] != sorted_bank[:-1], True]
    )[0]
    for end in group_ends.tolist():
        open_final[int(sorted_bank[end])] = int(sorted_row[end])
    return outcome, bank_counts, open_final


def _chunked_refresh_channel(
    refresh: "RefreshSchedule",
    bank_c: np.ndarray,
    row_c: np.ndarray,
    ab_c: _t.Optional[np.ndarray],
    closed: bool,
    latencies: np.ndarray,
    depth: int,
    n_banks: int,
    check_fifo: bool,
) -> _t.Optional[dict]:
    """Line-rate service times under per-rank refresh, epoch by epoch.

    Each refresh boundary precharges every row buffer, so the outcome
    scan restarts from all-banks-closed at every chunk; a service start
    landing inside the blackout ``[k*tREFI, k*tREFI + tRFC)`` is pushed
    to its end with the event engine's own stall arithmetic
    (``now + (fence - now)``).  The FIFO certificate runs once over the
    whole channel on the refresh-aware outcomes, with chunk labels
    cancelling open rows across boundaries (queue windows still cross
    them).  Returns ``None`` when the FIFO certificate fails.
    """
    n_c = bank_c.shape[0]
    trefi = refresh.trefi_ns
    # at most trefi/min-duration services can *start* within one epoch
    # (back-to-back starts are at least one service apart), bounding
    # the outcome-scan window so the chunk loop stays O(n) overall
    limit = int(trefi / float(latencies.min())) + 2
    outcome = np.empty(n_c, dtype=np.int64)
    start = np.empty(n_c)
    finish = np.empty(n_c)
    chunk_id = np.empty(n_c, dtype=np.int64)
    bank_counts = np.zeros((n_banks, 3), dtype=np.int64)
    open_final: _t.List[_t.Optional[int]] = [None] * n_banks
    i = 0
    chunk = 0
    epoch_applied = 0
    t = 0.0  # finish time of the previous service
    while i < n_c:
        s = t if i else 0.0
        epoch = int(math.floor(s / trefi))
        if epoch > epoch_applied:
            epoch_applied = epoch  # the boundary closes every bank
            fence = refresh.rank_fence(s)
            if fence > s:
                s = s + (fence - s)  # the engine's stall timeout
        window = min(n_c - i, limit)
        out_w, _counts_w, _open_w = _chunk_outcomes(
            bank_c[i : i + window],
            row_c[i : i + window],
            None if ab_c is None else ab_c[i : i + window],
            closed,
            n_banks,
        )
        f_w = _seq_cumsum(s, latencies[out_w])
        s_w = np.empty(window)
        s_w[0] = s
        s_w[1:] = f_w[:-1]
        crossed = np.floor(s_w / trefi) > epoch_applied
        if bool(crossed.any()):
            k = int(np.argmax(crossed))
        elif window < n_c - i:  # pragma: no cover - defensive
            # the window bound guarantees a boundary crossing before it
            # runs out; bail to the exact tier rather than continue a
            # chunk on stale bank state if float edges ever break that
            return None
        else:
            k = window
        if k == 0:  # pragma: no cover - defensive (float edge)
            return None
        # outcomes are prefix-stable (request j's code only looks at
        # earlier requests of the same chunk), so re-scanning just the
        # committed prefix yields exactly ``out_w[:k]`` plus the
        # chunk's bank counts and final open rows; each boundary
        # precharges every bank, so ``open_final`` is replaced, not
        # merged
        out_k, counts_k, open_final = _chunk_outcomes(
            bank_c[i : i + k],
            row_c[i : i + k],
            None if ab_c is None else ab_c[i : i + k],
            closed,
            n_banks,
        )
        bank_counts += counts_k
        outcome[i : i + k] = out_k
        start[i : i + k] = s_w[:k]
        finish[i : i + k] = f_w[:k]
        chunk_id[i : i + k] = chunk
        chunk += 1
        t = float(f_w[k - 1])
        i += k
    if check_fifo and not _fifo_certificate(
        bank_c, row_c, outcome, depth, n_banks, chunk_id=chunk_id
    ):
        return None
    return {
        "outcome": outcome,
        "start": start,
        "finish": finish,
        "bank_counts": bank_counts,
        "open_final": open_final,
    }


def _seq_cumsum(s: float, durations: np.ndarray) -> np.ndarray:
    """Prefix sums of ``durations`` starting from ``s``.

    Computed as one ``cumsum`` over ``[s, d0, d1, ...]``, which
    performs exactly the left-to-right float additions the event
    engine's ``now + latency`` clock does — the core of the fast
    path's bit-exactness.
    """
    buffer = np.empty(durations.shape[0] + 1)
    buffer[0] = s
    buffer[1:] = durations
    return np.cumsum(buffer)[1:]


def _segmented_service(
    earliest: np.ndarray, durations: np.ndarray
) -> _t.Optional[_t.Tuple[np.ndarray, np.ndarray]]:
    """Solve ``S[j] = max(E[j], F[j-1])``, ``F = S + d`` exactly.

    ``earliest`` is the per-request lower bound on service start (trace
    timestamps, or injector admission times).  Busy segments are
    located with one vectorized Lindley running-max scan (closed-form,
    but float-associated differently than the engine), then finish
    times are *recomputed* per segment with the engine's sequential
    additions (:func:`_seq_cumsum`) and the segmentation is verified
    against the exact values.  Returns ``(start, finish)``, or ``None``
    if an ulp-level misordering in the approximate scan produced an
    inconsistent segmentation (the caller falls back to the exact
    tier).
    """
    n = durations.shape[0]
    prefix = np.empty(n)
    prefix[0] = 0.0
    if n > 1:
        np.cumsum(durations[:-1], out=prefix[1:])
    approx_start = prefix + np.maximum.accumulate(earliest - prefix)
    seg_mask = np.empty(n, dtype=bool)
    seg_mask[0] = True
    if n > 1:
        seg_mask[1:] = earliest[1:] > approx_start[:-1] + durations[:-1]
    seg_idx = np.nonzero(seg_mask)[0]
    start = np.empty(n)
    finish = np.empty(n)
    if seg_idx.shape[0] == n:
        # every request finds the channel idle (sparse arrivals): one
        # elementwise pass, the same single addition the engine does
        start[:] = earliest
        np.add(earliest, durations, out=finish)
    else:
        bounds = np.r_[seg_idx, n].tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            f = _seq_cumsum(float(earliest[a]), durations[a:b])
            finish[a:b] = f
            start[a] = earliest[a]
            start[a + 1 : b] = f[:-1]
    if n > 1:
        # a segment start must find the channel idle (E >= previous
        # exact finish); a continuation must not (E <= it) — ties are
        # value-identical either way, so only real misorderings fail
        consistent = np.where(
            seg_mask[1:],
            earliest[1:] >= finish[:-1],
            earliest[1:] <= finish[:-1],
        )
        if not bool(consistent.all()):
            return None
    return start, finish


def _arrival_fixed_point(
    n: int,
    channels: _t.Sequence[_t.Tuple[np.ndarray, np.ndarray]],
    depth: int,
) -> _t.Optional[
    _t.Tuple[np.ndarray, _t.List[_t.Tuple[np.ndarray, np.ndarray]]]
]:
    """Solve the coupled injector/service recurrences by iteration.

    Line-rate injection with bounded queues couples the channels: the
    injector admits request ``m`` at ``A[m] = max(A[m-1], R[m])``
    (``R[m]`` = the service start that frees its channel's queue slot),
    while each channel serves FIFO at ``S[j] = max(A[j], F[j-1])``.
    Both maps are monotone, so Kleene iteration from ``A = 0`` —
    alternating exact per-channel service solves with the global
    running-max admission scan — converges to the least fixed point,
    which is exactly the event engine's trajectory (the values
    propagate through ``max`` unchanged and the busy-segment sums use
    the engine's own addition order).  Returns ``(arrivals, [(start,
    finish), ...])`` aligned with ``channels``, or ``None``
    after :data:`_MAX_ARRIVAL_ITERS` without convergence.
    """
    arrivals = np.zeros(n)
    for _ in range(_MAX_ARRIVAL_ITERS):
        releases = np.zeros(n)
        solved = []
        for idx, durations in channels:
            result = _segmented_service(arrivals[idx], durations)
            if result is None:
                return None
            solved.append(result)
            n_c = idx.shape[0]
            if n_c > depth:
                releases[idx[depth:]] = result[0][: n_c - depth]
        updated = np.maximum.accumulate(releases)
        if np.array_equal(updated, arrivals):
            return arrivals, solved
        arrivals = updated
    return None


def _fifo_certificate(
    bank_c: np.ndarray,
    row_c: np.ndarray,
    outcome: np.ndarray,
    depth: int,
    n_banks: int,
    chunk_id: _t.Optional[np.ndarray] = None,
) -> bool:
    """Would FR-FCFS ever reorder this channel's FIFO stream?

    At a selection whose queue head *is* a row hit, FR-FCFS picks the
    oldest hit — the head itself.  So reordering can only start at a
    selection with a non-hit head and some younger queued request
    hitting its bank's open row.  The queue visible at the selection of
    request ``k`` is at most requests ``k+1 .. k+depth-1`` of the same
    channel (exactly those under line-rate injection — the
    ``k+depth``-th slot is released by this very dequeue and its
    admission is processed after the selection; a subset under
    timestamped or stalled arrivals, so the check stays conservative),
    making the check below exact-or-conservative while states still
    follow FIFO — and the first would-be deviation is necessarily
    detected.

    With refresh enabled, ``chunk_id`` labels each request's epoch
    chunk and ``outcome`` holds the refresh-aware (per-chunk) codes: a
    previous same-bank access in an *earlier* chunk left nothing open
    (the boundary precharged the bank), so it contributes no open row —
    while the queue window still crosses chunk boundaries, because
    requests of the next epoch are already queued at an in-chunk
    selection.
    """
    heads = np.nonzero(outcome != _HIT)[0]
    if heads.size == 0:
        return True
    n_c = bank_c.shape[0]
    # open_at_head[i, b]: row open in bank b just before serving
    # heads[i] — evaluated only at the (sparse) non-hit selections, via
    # a binary search into each bank's occurrence list.
    open_at_head = np.full((heads.shape[0], n_banks), -1, dtype=np.int64)
    for b in range(n_banks):
        occurrences = np.nonzero(bank_c == b)[0]
        if occurrences.size == 0:
            continue
        before = np.searchsorted(occurrences, heads)  # strictly before
        has_prior = before > 0
        prior = occurrences[before[has_prior] - 1]
        rows = row_c[prior]
        if chunk_id is not None:
            rows = np.where(
                chunk_id[prior] == chunk_id[heads[has_prior]],
                rows,
                -1,
            )
        open_at_head[has_prior, b] = rows
    for offset in range(1, depth):
        queued = heads + offset
        in_range = queued < n_c
        if not bool(in_range.any()):
            break
        at = np.nonzero(in_range)[0]
        queued = queued[in_range]
        if bool(
            np.any(row_c[queued] == open_at_head[at, bank_c[queued]])
        ):
            return False
    return True


# ----------------------------------------------------------------------
# Committing results: one load path for both tiers
# ----------------------------------------------------------------------
def _load_channel(
    controller: "ChannelController",
    banks: _t.Sequence[_t.Tuple[int, int, int, _t.Optional[int]]],
    refresh_applied: _t.Optional[_t.Sequence[int]] = None,
) -> None:
    """Load one channel's bank state through its public state hook.

    ``banks`` holds ``(hits, misses, conflicts, open_row)`` per bank;
    ``refresh_applied`` (the applied refresh epochs) keeps the
    controller's own value when omitted.
    """
    state = controller.export_state()
    state["banks"] = [
        {
            "hits": hits,
            "misses": misses,
            "conflicts": conflicts,
            "open_row": open_row,
        }
        for hits, misses, conflicts, open_row in banks
    ]
    if refresh_applied is not None:
        state["refresh_applied"] = list(refresh_applied)
    controller.load_state(state)


def _commit_vector_plan(
    system: "MemorySystem", plan: _t.List[_t.Optional[dict]]
) -> float:
    """Load the closed-form bank state into the system's banks.

    Gives each bank the outcome counters and final open row the event
    engine would have left behind (idle channels keep their fresh
    banks).  Returns the replay makespan.
    """
    makespan = 0.0
    for controller, data in zip(system.controllers, plan):
        if data is None:
            continue
        _load_channel(
            controller,
            [
                (int(c[_HIT]), int(c[_MISS]), int(c[_CONFLICT]), open_row)
                for c, open_row in zip(
                    data["bank_counts"].tolist(), data["open_final"]
                )
            ],
        )
        makespan = max(makespan, float(data["finish"][-1]))
    return makespan


def _write_back(
    requests: _t.List[MemRequest],
    config: "MemSysConfig",
    fields: _t.Dict[str, np.ndarray],
    arrays: _t.Mapping[str, np.ndarray],
) -> None:
    """Fill per-request runtime fields from the recorder arrays.

    All-bank PIM/AB requests get no ``bank_index``, as the event
    engine's admission leaves them; a PIM request moves one page per
    bank, every other request one page.
    """
    page_bits = config.timing.page_bits
    columns = [
        fields["channel"].tolist(),
        fields["bankgroup"].tolist(),
        fields["bank"].tolist(),
        fields["row"].tolist(),
        fields["column"].tolist(),
        arrays["bank"].tolist(),
        arrays["arrival"].tolist(),
        arrays["start_service"].tolist(),
        arrays["finish"].tolist(),
        arrays["outcome"].tolist(),
    ]
    pim = Op.PIM
    pim_bits = page_bits * config.banks_per_channel
    for (
        request, ch, bg, bk, ro, col, index, arr, st, fin, out
    ) in zip(requests, *columns):
        request.coords = Coordinates(ch, bg, bk, ro, col)
        request.bank_index = None if index < 0 else index
        request.arrival = arr
        request.start_service = st
        request.finish = fin
        request.outcome = _OUTCOME_NAMES[out]
        request.bits = pim_bits if request.op is pim else page_bits


def _plan_arrays(
    n: int, plan: _t.List[_t.Optional[dict]]
) -> _t.Dict[str, np.ndarray]:
    """Scatter the closed-form plan back into trace order."""
    arrays = {
        "arrival": np.empty(n),
        "start_service": np.empty(n),
        "finish": np.empty(n),
        "outcome": np.empty(n, dtype=np.int64),
    }
    for data in plan:
        if data is None:
            continue
        idx = data["idx"]
        arrays["arrival"][idx] = data["arrival"]
        arrays["start_service"][idx] = data["start"]
        arrays["finish"][idx] = data["finish"]
        arrays["outcome"][idx] = data["outcome"]
    return arrays


def _recorder_arrays(
    op_codes: np.ndarray,
    fields: _t.Dict[str, np.ndarray],
    flat_bank: np.ndarray,
    timing: _t.Dict[str, np.ndarray],
) -> _t.Dict[str, np.ndarray]:
    """The latency recorder's eight trace-ordered arrays: a tier's
    ``arrival`` / ``start_service`` / ``finish`` / ``outcome`` plus the
    decoded routing."""
    from ..telemetry.latency import ALL_BANKS

    all_bank = (op_codes == _PIM_CODE) | (op_codes == _AB_CODE)
    timing.update(
        channel=np.asarray(fields["channel"], dtype=np.int64),
        bank=np.where(all_bank, ALL_BANKS, flat_bank).astype(np.int64),
        row=np.asarray(fields["row"], dtype=np.int64),
        op=np.asarray(op_codes, dtype=np.int64),
    )
    return timing


# ----------------------------------------------------------------------
# Tier 2: exact incremental replay
# ----------------------------------------------------------------------
def _replay_exact(
    system: "MemorySystem",
    op_codes: np.ndarray,
    channel: np.ndarray,
    flat_bank: np.ndarray,
    row: np.ndarray,
    times: _t.Optional[np.ndarray],
) -> _t.Tuple[float, _t.Dict[str, np.ndarray]]:
    """Replay with the event engine's exact scheduling order, eventless.

    One index-based loop over the decoded arrays: per-channel pending
    lists of trace indices, per-bank open rows, and a heap of plain
    ``(time, seq, code)`` tuples for the only occurrences that carry
    state — request completions, injector resumptions (a freed queue
    slot, or a trace timestamp coming due), controller wakeups (an
    enqueue into an idle channel), and refresh retries (a selection
    stalled to the end of a blackout window).  ``seq`` is the insertion
    order; the calendar's priority field is implied, since the only
    urgent occurrence (the injector's start) is also the first
    inserted, so pops follow the desim ``(time, priority, insertion)``
    order exactly.

    The selection rule is the controller's: FR-FCFS serves the oldest
    queued row hit (skipping all-bank PIM requests, stopping at an AB
    register broadcast, which is a barrier in both directions) and
    otherwise the queue head; FCFS serves the head.  A queued-hit table
    — queued host requests per ``(bank, row)`` plus one hit counter per
    channel — lets FR-FCFS skip the scan whenever no queued request hits
    its bank's open row.  Refresh gates mirror
    :meth:`ChannelController._service_delay`, per-bank staged candidate
    included.

    The final bank state (outcome counters, open rows, applied refresh
    epochs) loads into the controllers through
    :meth:`ChannelController.load_state`.  Returns the makespan and the
    trace-ordered ``arrival`` / ``start_service`` / ``finish`` /
    ``outcome`` arrays.
    """
    config = system.config
    n_channels = config.n_channels
    n_banks = config.banks_per_channel
    depth = config.queue_depth
    frfcfs = config.policy == FRFCFS
    closed = config.row_policy == CLOSED
    refresh = config.refresh_schedule()
    rank_refresh = refresh is not None and refresh.granularity == PER_RANK
    if rank_refresh:
        trefi = refresh.trefi_ns
        trfc = refresh.trfc_ns
    table = latency_table(config.timing, float(config.precharge_ns))
    # Bank.access latencies, indexed by outcome code
    lat_of = tuple(table[name] for name in OUTCOMES)
    lat_hit, lat_miss, lat_conflict = lat_of
    pim_code = _PIM_CODE
    ab_code = _AB_CODE

    n = int(op_codes.shape[0])
    ops = op_codes.tolist()
    chan = channel.tolist()
    bank_of = flat_bank.tolist()
    # one int per (bank, row) pair of a channel: the queued-hit table's
    # key, and what a bank's open-row slot holds (-1 when closed)
    key_of = (flat_bank + n_banks * row).tolist()
    when_of = times.tolist() if times is not None else None

    nan = math.nan
    arrival = [nan] * n
    start = [nan] * n
    finish = [nan] * n
    outcome = [_HIT] * n

    channels = range(n_channels)
    pending: _t.List[_t.List[int]] = [[] for _ in channels]
    open_key = [[-1] * n_banks for _ in channels]
    queued: _t.List[_t.Dict[int, int]] = [{} for _ in channels]
    queued_hits = [0] * n_channels
    pim_counts = [[0] * (3 * n_banks) for _ in channels]
    refresh_applied = [[0] * n_banks for _ in channels]
    idle = [True] * n_channels
    woken = [False] * n_channels

    def latch(ch: int, b: int, key: int) -> None:
        """Open ``key``'s row in bank ``b`` of ``ch`` (``-1`` closes the
        bank), keeping the channel's queued-hit counter exact."""
        okeys = open_key[ch]
        old = okeys[b]
        okeys[b] = key
        if frfcfs:
            table_c = queued[ch]
            queued_hits[ch] += table_c.get(key, 0) - table_c.get(old, 0)

    def bank_refresh_gate(ch: int, now: float) -> _t.Tuple[float, int]:
        """The controller's per-bank refresh gate: ``(stall, staged
        candidate)``."""
        applied = refresh_applied[ch]
        for b in range(n_banks):
            epoch = refresh.bank_epoch(now, b)
            if epoch >= 1 and epoch > applied[b]:
                latch(ch, b, -1)
                applied[b] = epoch
        okeys = open_key[ch]
        pend = pending[ch]
        head = pend[0]
        fallback = -1
        earliest = math.inf
        for j in pend:
            op = ops[j]
            if op == ab_code and j != head:
                # register-broadcast barrier cuts both ways
                break
            if op == pim_code or op == ab_code:
                fence = refresh.all_bank_fence(now)
            else:
                fence = refresh.bank_fence(now, bank_of[j])
            if fence <= now:  # serviceable now
                if fallback < 0:
                    fallback = j
                if (
                    frfcfs
                    and op != pim_code
                    and op != ab_code
                    and okeys[bank_of[j]] == key_of[j]
                ):
                    return 0.0, j  # oldest serviceable row hit
            else:
                earliest = min(earliest, fence)
            if op == ab_code or not frfcfs:
                break
        if fallback >= 0:
            return 0.0, fallback
        return earliest - now, -1

    heap: _t.List[_t.Tuple[float, int, int]] = [(0.0, 0, -1)]
    push = heapq.heappush
    pop = heapq.heappop
    seq = 0
    inject = -1  # heap code of an injector resumption
    wakeup = n_channels  # codes [n_channels, 2 n_channels): wakeups
    retry = 2 * n_channels  # codes from here on: refresh retries
    cursor = 0  # next request the injector will admit
    blocked_on = -1  # channel whose full queue blocks the injector
    now = 0.0
    while heap:
        now, _seq, code = pop(heap)
        if code == inject:
            blocked_on = -1
            while cursor < n:
                if when_of is not None:
                    when = when_of[cursor]
                    if when > now:
                        # mirror the injector's absolute-time wait
                        seq += 1
                        push(heap, (when, seq, inject))
                        break
                target = chan[cursor]
                pend = pending[target]
                if len(pend) >= depth:
                    blocked_on = target
                    break
                arrival[cursor] = now
                if frfcfs and ops[cursor] < pim_code:
                    key = key_of[cursor]
                    table_c = queued[target]
                    table_c[key] = table_c.get(key, 0) + 1
                    if open_key[target][bank_of[cursor]] == key:
                        queued_hits[target] += 1
                pend.append(cursor)
                if idle[target] and not woken[target]:
                    woken[target] = True
                    seq += 1
                    push(heap, (now, seq, wakeup + target))
                cursor += 1
            continue
        if code < wakeup:  # a completion
            ch = code
            pend = pending[ch]
            if not pend:
                idle[ch] = True
                woken[ch] = False
                continue
        elif code < retry:
            ch = code - wakeup
            idle[ch] = False
            woken[ch] = False
            pend = pending[ch]
        else:  # a refresh stall expired: re-evaluate
            ch = code - retry
            pend = pending[ch]

        # --- attempt a service on ch at now ---------------------------
        candidate = -1
        if rank_refresh:
            # RefreshSchedule.epoch / rank_fence, inlined: a due boundary
            # precharges every bank; a blackout stalls the channel
            epoch = int(math.floor(now / trefi))
            applied = refresh_applied[ch]
            if epoch > applied[0]:
                for b in range(n_banks):
                    latch(ch, b, -1)
                applied[:] = [epoch] * n_banks
            if epoch >= 1:
                fence = epoch * trefi + trfc
                if now < fence:
                    seq += 1
                    push(heap, (now + (fence - now), seq, retry + ch))
                    continue
        elif refresh is not None:
            delay, candidate = bank_refresh_gate(ch, now)
            if delay > 0.0:
                seq += 1
                push(heap, (now + delay, seq, retry + ch))
                continue
        okeys = open_key[ch]
        if candidate >= 0:
            i = candidate
            pend.remove(i)
        else:
            i = pend[0]
            if frfcfs and queued_hits[ch]:
                for j in pend:  # oldest row hit first
                    op = ops[j]
                    if op == ab_code:
                        # never reorder a younger hit across a register
                        # broadcast
                        break
                    if op != pim_code and okeys[bank_of[j]] == key_of[j]:
                        i = j
                        break
            if i == pend[0]:
                del pend[0]
            else:
                pend.remove(i)
        start[i] = now
        op = ops[i]
        if op < pim_code:  # host: one bank's row buffer (Bank.access)
            b = bank_of[i]
            key = key_of[i]
            old = okeys[b]
            if frfcfs:
                table_c = queued[ch]
                left = table_c[key] - 1
                if left:
                    table_c[key] = left
                else:
                    del table_c[key]
                if old == key:
                    queued_hits[ch] -= 1
            if closed:
                out = _MISS
                latency = lat_miss
            elif old == key:
                out = _HIT
                latency = lat_hit
            else:
                if old < 0:
                    out = _MISS
                    latency = lat_miss
                else:
                    out = _CONFLICT
                    latency = lat_conflict
                # latch(ch, b, key), inlined on the hot path
                okeys[b] = key
                if frfcfs:
                    table_c = queued[ch]
                    queued_hits[ch] += table_c.get(key, 0) - table_c.get(
                        old, 0
                    )
        elif op == pim_code:  # every bank in lockstep, slowest wins
            base = key_of[i] - bank_of[i]
            counts = pim_counts[ch]
            latency = 0.0
            out = _HIT
            for b in range(n_banks):
                key = base + b
                old = okeys[b]
                if closed:
                    bank_out = _MISS
                elif old == key:
                    bank_out = _HIT
                else:
                    bank_out = _MISS if old < 0 else _CONFLICT
                    latch(ch, b, key)
                counts[3 * b + bank_out] += 1
                if lat_of[bank_out] > latency:
                    latency = lat_of[bank_out]
                    out = bank_out
        else:  # AB register broadcast: one column access, no row buffer
            out = _BROADCAST
            latency = lat_hit
        outcome[i] = out
        done = now + latency
        finish[i] = done
        if blocked_on == ch:
            blocked_on = -1
            seq += 1
            push(heap, (now, seq, inject))
        seq += 1
        push(heap, (done, seq, ch))

    finish_array = np.array(finish)
    _check_progress(finish_array, channel)
    outcome_array = np.array(outcome, dtype=np.int64)
    pim = op_codes == pim_code
    host = ~pim & (op_codes != ab_code)
    # Bank.access counters: host accesses counted from their outcome
    # codes, plus the per-bank tallies of the PIM lockstep accesses
    bank_counts = np.bincount(
        (channel[host] * n_banks + flat_bank[host]) * 3
        + outcome_array[host],
        minlength=n_channels * n_banks * 3,
    ).reshape(n_channels, n_banks, 3) + np.array(
        pim_counts, dtype=np.int64
    ).reshape(n_channels, n_banks, 3)
    for ch, controller in enumerate(system.controllers):
        okeys = open_key[ch]
        _load_channel(
            controller,
            [
                (
                    hits,
                    misses,
                    conflicts,
                    None if okeys[b] < 0 else (okeys[b] - b) // n_banks,
                )
                for b, (hits, misses, conflicts) in enumerate(
                    bank_counts[ch].tolist()
                )
            ],
            refresh_applied[ch],
        )
    return now, {
        "arrival": np.array(arrival),
        "start_service": np.array(start),
        "finish": finish_array,
        "outcome": outcome_array,
    }


def _check_progress(finish: np.ndarray, channel: np.ndarray) -> None:
    """Progress invariant: a drained calendar finished every request.

    Raises :class:`~repro.errors.ReplayStateError` naming the first
    trace index that never completed and its channel, rather than
    returning statistics for fewer requests than the trace holds.
    """
    stuck = np.flatnonzero(np.isnan(finish))
    if stuck.size:
        index = int(stuck[0])
        raise ReplayStateError(
            f"exact replay drained its calendar with {stuck.size} "
            f"request(s) unfinished; the first is trace index {index} "
            f"on channel {int(channel[index])}"
        )
