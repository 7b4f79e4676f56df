"""The executable PIM machine: execution units over the memory system.

:class:`PimExecMachine` instantiates execution units
(:class:`~repro.pimexec.regfile.BankExecUnit`) over a
:class:`~repro.memsys.MemSysConfig` geometry and one
:class:`~repro.pimexec.sequencer.CommandSequencer` per channel, and
plays host: every host-side action (bank writes, register broadcasts,
CRF loads, kernel column walks) both mutates the functional state and
appends the memory request the action costs.  :meth:`replay` then runs
the accumulated request stream through a fresh
:class:`~repro.memsys.MemorySystem`, so kernel time is measured by the
same banked controllers, address map, and row-buffer state machines as
any other trace — PIM kernel cycles pay real activation, page-access,
and queueing costs.

Execution modes
---------------
* ``bank_groups=False`` (default): one execution unit per bank — the
  full-width all-bank mode of PR 3.
* ``bank_groups=True``: *half-bank lockstep groups* in the HBM-PIM
  mold — one execution unit per even/odd bank **pair**, so a channel
  has ``banks_per_channel // 2`` units and each all-bank column access
  drives half as many vector lanes.  ``Operand.unit`` (the ``BANK,u``
  selector of the trace dialect) picks the even (0) or odd (1) bank of
  a pair.  The *timing difference is surfaced by construction*: the
  same kernel needs twice the dynamic instructions (and therefore twice
  the all-bank column accesses) to touch the same data, which the
  replayed request stream prices through the normal controllers.

Arithmetic dtype
----------------
``dtype="fp64"`` (default) keeps the idealized float64 model;
``dtype="fp16"`` computes in IEEE binary16 (NumPy ``float16``) with
per-operation round-to-nearest-even — see
:mod:`repro.pimexec.regfile` and ``docs/nn.md``.

Request vocabulary (see :class:`repro.memsys.request.Op`):

* ``READ``/``WRITE`` — host single-bank transactions (data staging,
  result collection);
* ``AB`` — all-bank register/command accesses (CRF microcode words,
  SRF/GRF broadcasts, GRF readback): one column access on the channel,
  no row-buffer interaction;
* ``PIM`` — one all-bank column access per dynamic kernel instruction,
  executing one CRF slot in every unit of the channel in lockstep.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from ..memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    MemSysStats,
    Op,
    PackedTrace,
)
from ..memsys.request import OPS_BY_CODE
from .commands import GRF_REGS, PimCommand, PimExecError, SRF_REGS
from .regfile import BankExecUnit, DTYPES, UnitView, VectorUnitArray
from .sequencer import CommandSequencer

if _t.TYPE_CHECKING:  # pragma: no cover
    from .. import telemetry as _te

__all__ = [
    "PimExecMachine",
    "PimExecResult",
    "UNIT_MODES",
    "page_encoder",
]

#: Execution-unit backends: ``"vectorized"`` (default, one
#: :class:`~repro.pimexec.regfile.VectorUnitArray` executing each
#: lockstep command across every unit in one NumPy op) or ``"scalar"``
#: (one :class:`~repro.pimexec.regfile.BankExecUnit` per unit, the
#: reference implementation).  Both are bit-identical by construction;
#: the equivalence suite pins it.
UNIT_MODES = ("vectorized", "scalar")

#: Either unit backend presents the same per-unit surface.
ExecUnit = _t.Union[BankExecUnit, UnitView]

#: Packed request-log columns: op code, channel, flat bank, row, col.
LogColumns = _t.Tuple[
    _t.List[int], _t.List[int], _t.List[int], _t.List[int], _t.List[int]
]


def _empty_log() -> LogColumns:
    return ([], [], [], [], [])

#: Hardware lane width in bits: HBM-PIM computes on 16-bit words.
LANE_BITS = 16


def _check_bank_command(command: PimCommand) -> None:
    if command.is_control:
        raise PimExecError(
            f"{command.opcode.value} is sequencer control, not a bank "
            "operation"
        )


def page_encoder(
    config: MemSysConfig,
) -> _t.Callable[[int, int, int, int], int]:
    """``(channel, flat_bank, row, col) -> byte address`` for a geometry.

    The single flat-bank-to-coordinates convention shared by the
    machine and the kernel host-trace builders (one cached
    :class:`~repro.memsys.AddressMap`, so per-request encoding costs no
    map construction).
    """
    amap = config.address_map()
    per_group = config.banks_per_group

    def encode(channel: int, flat_bank: int, row: int, col: int) -> int:
        return amap.encode(
            Coordinates(
                channel=channel,
                bankgroup=flat_bank // per_group,
                bank=flat_bank % per_group,
                row=row,
                column=col,
            )
        )

    return encode


@dataclasses.dataclass
class PimExecResult:
    """Outcome of replaying a machine's request stream.

    Attributes
    ----------
    stats:
        The full :class:`~repro.memsys.MemSysStats` of the replay.
    engine:
        Which replay engine/tier served it.
    n_requests, n_pim, n_broadcast, n_host:
        Request mix of the replayed stream.
    """

    stats: MemSysStats
    engine: _t.Optional[str]
    n_requests: int
    n_pim: int
    n_broadcast: int
    n_host: int

    @property
    def makespan_ns(self) -> float:
        return self.stats.makespan_ns


class PimExecMachine:
    """PIM execution units over a banked memory system.

    Parameters
    ----------
    config:
        Memory-system geometry/timing/policy (paper defaults if
        omitted).  The page width fixes the vector lane count:
        ``page_bits // 16`` 16-bit hardware lanes.
    dtype:
        Arithmetic dtype: ``"fp64"`` (default, idealized) or
        ``"fp16"`` (IEEE binary16 rounding per operation).
    bank_groups:
        ``False`` (default): one execution unit per bank.  ``True``:
        half-bank lockstep groups — one unit per even/odd bank pair
        (requires an even ``banks_per_channel``), with ``Operand.unit``
        selecting the pair's even or odd bank.
    unit_mode:
        One of :data:`UNIT_MODES`: ``"vectorized"`` (default) backs
        every unit with one shared
        :class:`~repro.pimexec.regfile.VectorUnitArray` and executes
        lockstep commands across all units in single NumPy ops;
        ``"scalar"`` keeps one
        :class:`~repro.pimexec.regfile.BankExecUnit` per unit (the
        reference implementation the equivalence suite compares
        against).  Functional state is bit-identical either way.
    """

    def __init__(
        self,
        config: _t.Optional[MemSysConfig] = None,
        dtype: str = "fp64",
        bank_groups: bool = False,
        unit_mode: str = "vectorized",
    ) -> None:
        self.config = config or MemSysConfig()
        if unit_mode not in UNIT_MODES:
            raise PimExecError(
                f"unknown unit_mode {unit_mode!r}; available: "
                f"{UNIT_MODES}"
            )
        self.unit_mode = unit_mode
        if dtype not in DTYPES:
            raise PimExecError(
                f"unknown dtype {dtype!r}; available: {tuple(DTYPES)}"
            )
        self.dtype = dtype
        self.np_dtype = DTYPES[dtype]
        self.bank_groups = bool(bank_groups)
        self.ports = 2 if self.bank_groups else 1
        if self.config.banks_per_channel % self.ports:
            raise PimExecError(
                "bank-group mode pairs even/odd banks; "
                f"banks_per_channel={self.config.banks_per_channel} "
                "is not even"
            )
        self.lanes = self.config.timing.page_bits // LANE_BITS
        if self.lanes < 1:
            raise ValueError(
                f"page_bits={self.config.timing.page_bits} too narrow "
                f"for {LANE_BITS}-bit lanes"
            )
        self.addr_map = self.config.address_map()
        self._vector: _t.Optional[VectorUnitArray] = None
        if unit_mode == "vectorized":
            self._vector = VectorUnitArray(
                self.config.n_channels,
                self.units_per_channel,
                self.lanes,
                dtype=self.dtype,
                ports=self.ports,
            )
            self.units: _t.List[_t.List[ExecUnit]] = [
                [
                    UnitView(self._vector, ch, index)
                    for index in range(self.units_per_channel)
                ]
                for ch in range(self.config.n_channels)
            ]
        else:
            self.units = [
                [
                    BankExecUnit(
                        self.lanes,
                        name=f"ch{ch}.u{index}",
                        dtype=self.dtype,
                        ports=self.ports,
                    )
                    for index in range(self.units_per_channel)
                ]
                for ch in range(self.config.n_channels)
            ]
        self.sequencers = [
            CommandSequencer()
            for _ in range(self.config.n_channels)
        ]
        self._encode = page_encoder(self.config)
        # The accumulated request stream lives packed until someone
        # asks for request *objects* (see :attr:`requests`): closed
        # chunks — ("flat", op, ch, bank, row, col columns) or
        # ("block", targets, ops, rows, cols) all-channel blocks, one
        # entry per AB/PIM step, each fanning out to one request per
        # target channel — plus the open flat tail ``_log``.
        self._chunks: _t.List[tuple] = []
        self._log = _empty_log()
        self._count = 0
        self._objects: _t.Optional[_t.List[MemRequest]] = None
        #: Compiled all-channel command groups (vectorized tier only).
        self._groups: _t.Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    @property
    def n_channels(self) -> int:
        return self.config.n_channels

    @property
    def banks_per_channel(self) -> int:
        return self.config.banks_per_channel

    @property
    def units_per_channel(self) -> int:
        """Execution units per channel (half the banks in group mode)."""
        return self.config.banks_per_channel // self.ports

    @property
    def total_units(self) -> int:
        return self.n_channels * self.units_per_channel

    def unit(self, channel: int, index: int) -> ExecUnit:
        """The ``index``-th execution unit of ``channel``.

        With ``bank_groups=False`` unit indices coincide with flat bank
        indices; in group mode unit ``k`` serves banks ``2k`` (even
        port 0) and ``2k + 1`` (odd port 1).
        """
        return self.units[channel][index]

    def unit_for_bank(
        self, channel: int, flat_bank: int
    ) -> _t.Tuple[ExecUnit, int]:
        """``(unit, port)`` serving ``flat_bank`` of ``channel``."""
        return (
            self.units[channel][flat_bank // self.ports],
            flat_bank % self.ports,
        )

    def iter_units(
        self,
    ) -> _t.Iterator[_t.Tuple[int, int, ExecUnit]]:
        """Yield ``(channel, unit_index, unit)`` in address order."""
        for ch, row in enumerate(self.units):
            for index, unit in enumerate(row):
                yield ch, index, unit

    def encode(
        self, channel: int, flat_bank: int, row: int, col: int
    ) -> int:
        """Byte address of a page, from flat in-channel bank index."""
        return self._encode(channel, flat_bank, row, col)

    # ------------------------------------------------------------------
    # the request log
    # ------------------------------------------------------------------
    @property
    def requests(self) -> _t.List[MemRequest]:
        """The accumulated request stream, as mutable objects.

        Requests accumulate internally as five packed integer columns
        (op, channel, bank, row, col) — the zero-object form
        :meth:`replay` turns straight into a
        :class:`~repro.memsys.PackedTrace`.  First access of this
        property materializes the columns into
        :class:`~repro.memsys.MemRequest` objects and keeps the machine
        in object mode (appends and per-request mutation, e.g. the
        timestamps :class:`~repro.pimexec.program.PimProgram` stamps,
        behave exactly as before) until :meth:`reset_requests`.
        """
        if self._objects is None:
            objects: _t.List[MemRequest] = []
            for chunk in self._iter_chunks():
                if chunk[0] == "flat":
                    objects.extend(self._request_objects(*chunk[1:]))
                else:
                    objects.extend(self._block_objects(*chunk[1:]))
            self._chunks = []
            self._log = _empty_log()
            self._count = 0
            self._objects = objects
        return self._objects

    @requests.setter
    def requests(self, value: _t.List[MemRequest]) -> None:
        self._chunks = []
        self._log = _empty_log()
        self._count = 0
        self._objects = list(value)

    @property
    def n_requests(self) -> int:
        """Accumulated request count (cheap in either log mode)."""
        if self._objects is not None:
            return len(self._objects)
        return self._count

    def _iter_chunks(self) -> _t.Iterator[tuple]:
        """Closed chunks plus the open flat tail, in stream order."""
        yield from self._chunks
        if self._log[0]:
            yield ("flat",) + self._log

    def _request_objects(
        self,
        ops: _t.Sequence[int],
        channels: _t.Sequence[int],
        banks: _t.Sequence[int],
        rows: _t.Sequence[int],
        cols: _t.Sequence[int],
    ) -> _t.Iterator[MemRequest]:
        encode = self._encode
        for op, ch, bank, row, col in zip(ops, channels, banks, rows, cols):
            yield MemRequest(OPS_BY_CODE[op], encode(ch, bank, row, col))

    def _block_objects(
        self,
        targets: _t.Sequence[int],
        ops: _t.Sequence[int],
        rows: _t.Sequence[int],
        cols: _t.Sequence[int],
    ) -> _t.Iterator[MemRequest]:
        encode = self._encode
        for op, row, col in zip(ops, rows, cols):
            for ch in targets:
                yield MemRequest(OPS_BY_CODE[op], encode(ch, 0, row, col))

    def _push_block(
        self,
        targets: _t.Sequence[int],
        ops: _t.List[int],
        rows: _t.List[int],
        cols: _t.List[int],
    ) -> None:
        """Append all-channel steps: one request per target per step.

        Channel-major within each step — the order a ``for ch in
        targets`` loop around single-channel calls emits.  Consecutive
        blocks over the same targets share one chunk.
        """
        if self._objects is not None:
            self._objects.extend(
                self._block_objects(targets, ops, rows, cols)
            )
            return
        if self._log[0]:
            self._chunks.append(("flat",) + self._log)
            self._log = _empty_log()
        targets = tuple(targets)
        last = self._chunks[-1] if self._chunks else None
        if last is not None and last[0] == "block" and last[1] == targets:
            last[2].extend(ops)
            last[3].extend(rows)
            last[4].extend(cols)
        else:
            self._chunks.append(
                ("block", targets, list(ops), list(rows), list(cols))
            )
        self._count += len(targets) * len(rows)

    def _emit_flat(
        self,
        op: Op,
        channels: _t.List[int],
        banks: _t.List[int],
        rows: _t.List[int],
        cols: _t.List[int],
    ) -> None:
        """Append single-bank requests, one per column entry."""
        ops = [op.code] * len(channels)
        if self._objects is not None:
            self._objects.extend(
                self._request_objects(ops, channels, banks, rows, cols)
            )
            return
        for column, values in zip(
            self._log, (ops, channels, banks, rows, cols)
        ):
            column.extend(values)
        self._count += len(channels)

    def _emit(
        self, op: Op, channel: int, flat_bank: int, row: int, col: int
    ) -> None:
        if self._objects is not None:
            self._objects.append(
                MemRequest(op, self.encode(channel, flat_bank, row, col))
            )
            return
        ops_l, ch_l, bank_l, row_l, col_l = self._log
        ops_l.append(op.code)
        ch_l.append(channel)
        bank_l.append(flat_bank)
        row_l.append(row)
        col_l.append(col)
        self._count += 1

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < self.n_channels:
            raise PimExecError(
                f"channel {channel} out of range [0, {self.n_channels})"
            )

    def _channels(
        self, channels: _t.Optional[_t.Sequence[int]]
    ) -> _t.List[int]:
        if channels is None:
            return list(range(self.n_channels))
        targets = list(channels)
        for channel in targets:
            self._check_channel(channel)
        return targets

    # ------------------------------------------------------------------
    # host-side actions (functional effect + request cost)
    # ------------------------------------------------------------------
    def write_bank(
        self,
        channel: int,
        flat_bank: int,
        row: int,
        col: int,
        values: _t.Sequence[float],
    ) -> None:
        """Host write of one page into one bank."""
        self._check_channel(channel)
        unit, port = self.unit_for_bank(channel, flat_bank)
        unit.store_page(row, col, values, port)
        self._emit(Op.WRITE, channel, flat_bank, row, col)

    def read_bank(
        self, channel: int, flat_bank: int, row: int, col: int
    ) -> np.ndarray:
        """Host read of one page from one bank."""
        self._check_channel(channel)
        self._emit(Op.READ, channel, flat_bank, row, col)
        unit, port = self.unit_for_bank(channel, flat_bank)
        return unit.load_page(row, col, port)

    def read_pages(
        self, addrs: _t.Sequence[_t.Tuple[int, int]], port: int = 0
    ) -> np.ndarray:
        """Host READs of one page per execution unit at each address.

        Returns ``(len(addrs), n_channels, units_per_channel, lanes)``:
        the page at ``addrs[i]`` of bank ``unit * ports + port`` of
        every unit.  Same pages and requests as :meth:`read_bank`
        looped address-major, then channel, then unit — read as one
        array and logged in bulk.
        """
        if not 0 <= port < self.ports:
            raise PimExecError(
                f"bank port {port} out of range [0, {self.ports})"
            )
        n_ch, n_u = self.n_channels, self.units_per_channel
        pages = np.zeros(
            (len(addrs), n_ch, n_u, self.lanes), dtype=self.np_dtype
        )
        for i, (row, col) in enumerate(addrs):
            if self._vector is not None:
                plane = self._vector.memory.get((port, int(row), int(col)))
                if plane is not None:
                    pages[i] = plane
            else:
                for ch, index, unit in self.iter_units():
                    pages[i, ch, index] = unit.load_page(row, col, port)
        per_addr = n_ch * n_u
        self._emit_flat(
            Op.READ,
            [ch for ch in range(n_ch) for _ in range(n_u)] * len(addrs),
            [u * self.ports + port for u in range(n_u)] * n_ch * len(addrs),
            [row for row, _ in addrs for _ in range(per_addr)],
            [col for _, col in addrs for _ in range(per_addr)],
        )
        return pages

    def broadcast_scalar(
        self,
        channel: int,
        index: int,
        value: float,
        row: int = 0,
        col: int = 0,
    ) -> None:
        """AB-mode write of ``SRF[index]`` in every unit of a channel.

        ``row``/``col`` only shape the broadcast's address (useful to
        keep it adjacent to the kernel's next data access); AB requests
        never touch row buffers.  The value rounds to the machine's
        dtype on assignment.
        """
        self._check_channel(channel)
        if not 0 <= index < SRF_REGS:
            raise PimExecError(
                f"SRF index {index} out of range [0, {SRF_REGS})"
            )
        if self._vector is not None:
            self._vector.srf[channel, :, index] = float(value)
        else:
            for unit in self.units[channel]:
                unit.srf[index] = float(value)
        self._emit(Op.AB, channel, 0, row, col)

    def broadcast_scalars(
        self,
        index: int,
        values: _t.Sequence[float],
        row: int = 0,
        col: int = 0,
        channels: _t.Optional[_t.Sequence[int]] = None,
    ) -> None:
        """AB-mode writes of ``SRF[index + i] = values[i]`` on every
        target channel (default: all), in one all-channel call.

        Same state and same requests as :meth:`broadcast_scalar` looped
        scalar-major, channel-minor — one AB per scalar per channel —
        but the vectorized tier writes the whole SRF slice of every
        target channel in one array op and logs the requests in bulk.
        """
        targets = self._channels(channels)
        if not (0 <= index and index + len(values) <= SRF_REGS):
            raise PimExecError(
                f"SRF slice [{index}, {index + len(values)}) out of "
                f"range [0, {SRF_REGS})"
            )
        # round exactly as broadcast_scalar's item assignment does
        scalars = np.empty(len(values), dtype=self.np_dtype)
        for i, value in enumerate(values):
            scalars[i] = float(value)
        end = index + len(scalars)
        if self._vector is not None:
            srf = self._vector.srf
            if targets == list(range(self.n_channels)):
                srf[:, :, index:end] = scalars
            else:
                for ch in targets:
                    srf[ch, :, index:end] = scalars
        else:
            for i, value in enumerate(scalars):
                for ch in targets:
                    for unit in self.units[ch]:
                        unit.srf[index + i] = value
        n = len(scalars)
        self._push_block(targets, [Op.AB.code] * n, [row] * n, [col] * n)

    def broadcast_page(
        self,
        channel: int,
        space: str,
        index: int,
        values: _t.Sequence[float],
        row: int = 0,
        col: int = 0,
    ) -> None:
        """AB-mode write of one GRF register in every unit of a channel."""
        self._check_channel(channel)
        if not 0 <= index < GRF_REGS:
            raise PimExecError(
                f"GRF index {index} out of range [0, {GRF_REGS})"
            )
        page = np.asarray(values, dtype=self.np_dtype)
        if page.shape != (self.lanes,):
            raise PimExecError(
                f"broadcast page must have {self.lanes} lanes, got "
                f"shape {page.shape}"
            )
        if space not in ("grf_a", "grf_b"):
            raise PimExecError(
                f"broadcast space must be grf_a/grf_b, got {space!r}"
            )
        if self._vector is not None:
            grf = (
                self._vector.grf_a
                if space == "grf_a"
                else self._vector.grf_b
            )
            grf[channel, :, index] = page
        else:
            for unit in self.units[channel]:
                if space == "grf_a":
                    unit.grf_a[index] = page
                else:
                    unit.grf_b[index] = page
        self._emit(Op.AB, channel, 0, row, col)

    def read_grf(
        self, channel: int, unit_index: int, space: str, index: int
    ) -> np.ndarray:
        """Read back one GRF register (an AB-mode column access)."""
        self._check_channel(channel)
        if not 0 <= index < GRF_REGS:
            raise PimExecError(
                f"GRF index {index} out of range [0, {GRF_REGS})"
            )
        unit = self.unit(channel, unit_index)
        if space == "grf_a":
            value = unit.grf_a[index]
        elif space == "grf_b":
            value = unit.grf_b[index]
        else:
            raise PimExecError(
                f"read_grf space must be grf_a/grf_b, got {space!r}"
            )
        self._emit(Op.AB, channel, unit_index * self.ports, 0, 0)
        return value.copy()

    def load_kernel(
        self,
        commands: _t.Sequence[PimCommand],
        channels: _t.Optional[_t.Sequence[int]] = None,
    ) -> None:
        """Broadcast a microkernel into the CRF of each channel.

        Costs one AB register write per CRF slot per channel (the
        microcode download HBM-PIM performs before every kernel).
        """
        commands = list(commands)
        for channel in self._channels(channels):
            self.sequencers[channel].load(commands)
            for _ in commands:
                self._emit(Op.AB, channel, 0, 0, 0)

    # ------------------------------------------------------------------
    # kernel execution
    # ------------------------------------------------------------------
    def _step(
        self, channel: int, command: PimCommand, row: int, col: int
    ) -> None:
        if self._vector is not None:
            self._vector.execute(command, row, col, (channel,))
        else:
            for unit in self.units[channel]:
                unit.execute(command, row, col)
        self._emit(Op.PIM, channel, 0, row, col)

    def pim_step(
        self, channel: int, command: PimCommand, row: int, col: int
    ) -> None:
        """Execute one command in every unit of ``channel`` at (row, col).

        The single-step escape hatch for host-sequenced kernels (e.g.
        GEMV, which re-broadcasts an SRF scalar between steps); looped
        kernels go through :meth:`load_kernel` + :meth:`run_kernel`,
        and all-channel host-sequenced kernels through
        :meth:`pim_step_all`.
        """
        self._check_channel(channel)
        _check_bank_command(command)
        self._step(channel, command, row, col)

    def pim_step_all(
        self,
        commands: _t.Sequence[PimCommand],
        row: int,
        col: int,
        channels: _t.Optional[_t.Sequence[int]] = None,
    ) -> None:
        """Execute ``commands`` in order on every target channel (default:
        all) at (row, col) — host-sequenced all-channel lockstep.

        Same state and same requests as :meth:`pim_step` looped
        command-major, channel-minor (one PIM request per command per
        channel).  The vectorized tier runs each command across every
        target channel in one array op, and fuses the whole group into
        one op over a register slice when
        :func:`~repro.pimexec.regfile.fusion_plan` admits it; the
        scalar grid executes unit by unit, command by command.
        """
        targets = self._channels(channels)
        commands = tuple(commands)
        if self._vector is not None:
            # compiling rejects control opcodes before any step runs
            steps = self._compiled_group(commands, targets)
            with np.errstate(over="ignore", invalid="ignore"):
                for step in steps:
                    step(row, col)
            self._count_steps(targets, len(commands))
        else:
            for command in commands:
                _check_bank_command(command)
            for command in commands:
                for ch in targets:
                    for unit in self.units[ch]:
                        unit.execute(command, row, col)
        n = len(commands)
        self._push_block(targets, [Op.PIM.code] * n, [row] * n, [col] * n)

    def _compiled_group(
        self, commands: _t.Tuple[PimCommand, ...], targets: _t.List[int]
    ) -> _t.Tuple[_t.Callable, ...]:
        """One compiled step per target selection (cached per group).

        Keyed by command identity — hashing frozen commands field by
        field would cost more than a fused step; the entry keeps the
        commands alive, so their ids cannot be reused while cached.
        """
        key = (tuple(map(id, commands)), tuple(targets))
        entry = self._groups.get(key)
        if entry is None:
            vector = self._vector
            assert vector is not None
            sels: _t.Tuple[_t.Tuple[int, ...], ...] = (
                ((),)
                if targets == list(range(self.n_channels))
                else tuple((ch,) for ch in targets)
            )
            entry = (
                commands,
                tuple(vector.compile_group(commands, sel) for sel in sels),
            )
            self._groups[key] = entry
        return entry[1]

    def _count_steps(self, targets: _t.List[int], n_steps: int) -> None:
        """Batched ``commands_executed``: every unit of every target
        ran ``n_steps`` more commands."""
        vector = self._vector
        assert vector is not None
        if targets == list(range(self.n_channels)):
            vector.commands_executed += n_steps
        else:
            for ch in targets:
                vector.commands_executed[ch] += n_steps

    def run_kernel(
        self,
        walk: _t.Union[
            _t.Sequence[_t.Tuple[int, int]],
            _t.Mapping[int, _t.Sequence[_t.Tuple[int, int]]],
        ],
        channels: _t.Optional[_t.Sequence[int]] = None,
    ) -> int:
        """Run the loaded CRF kernel to ``EXIT`` on each channel.

        ``walk`` is the column-access schedule: one ``(row, col)``
        sequence shared by every channel, or a per-channel mapping.
        Channels advance round-robin, one dynamic instruction each, so
        their all-bank request streams interleave and the memory system
        serves them concurrently.  Returns the total number of dynamic
        instructions executed (all channels).

        When every target channel holds the same CRF program and walks
        the same column schedule (the lockstep case every built-in
        looped kernel hits), the vectorized machine drives *one*
        sequencer and executes each dynamic instruction across all
        target channels in a single array op — the round-robin request
        interleaving and all sequencer counters are reproduced exactly.
        """
        targets = self._channels(channels)
        if (
            self._vector is not None
            and self._objects is None
            and len(targets) > 1
            and len(set(targets)) == len(targets)
            and not isinstance(walk, _t.Mapping)
            and self._lockstep_programs(targets)
        ):
            return self._run_kernel_lockstep(walk, targets)
        if isinstance(walk, _t.Mapping):
            walks = {ch: walk[ch] for ch in targets}
        else:
            walks = {ch: walk for ch in targets}
        steppers = {
            ch: self.sequencers[ch].run(walks[ch]) for ch in targets
        }
        executed = 0
        active = list(targets)
        while active:
            still_running = []
            for channel in active:
                step = next(steppers[channel], None)
                if step is None:
                    continue
                command, row, col = step
                self._step(channel, command, row, col)
                executed += 1
                still_running.append(channel)
            active = still_running
        return executed

    def _lockstep_programs(self, targets: _t.Sequence[int]) -> bool:
        """Do all target channels hold the same loaded CRF program?"""
        first = self.sequencers[targets[0]].crf
        if not first:
            return False
        return all(
            self.sequencers[ch].crf == first for ch in targets[1:]
        )

    def _run_kernel_lockstep(
        self,
        walk: _t.Sequence[_t.Tuple[int, int]],
        targets: _t.List[int],
    ) -> int:
        """Drive one sequencer; execute each step across all targets.

        Every channel would yield the identical dynamic-instruction
        sequence (same CRF, same walk), so one generator stands in for
        all of them: each step executes as a single vectorized op over
        the target channels and appends the same round-robin request
        pattern (channel-major within each step) the generic loop
        produces.  Sequencer counters of the non-driven channels are
        mirrored from the driver's, even on error.
        """
        assert self._vector is not None
        driver = self.sequencers[targets[0]]
        others = [self.sequencers[ch] for ch in targets[1:]]
        vector = self._vector
        sels: _t.Tuple[_t.Tuple[int, ...], ...] = (
            ((),)
            if targets == list(range(self.n_channels))
            else tuple((ch,) for ch in targets)
        )
        compiled: _t.Dict[int, _t.Tuple[_t.Callable, ...]] = {}
        rows_l: _t.List[int] = []
        cols_l: _t.List[int] = []
        n_targets = len(targets)
        executed = 0
        before_instr = driver.instructions
        before_ctl = driver.control_steps
        try:
            # one errstate block for the whole kernel — per-op IEEE
            # behavior (inf saturation, NaN propagation) is numpy's
            # regardless; execute() merely silences the same warnings
            # per instruction
            with np.errstate(over="ignore", invalid="ignore"):
                for command, row, col in driver.run(walk):
                    steps = compiled.get(id(command))
                    if steps is None:
                        steps = tuple(
                            vector.compile_group((command,), sel)
                            for sel in sels
                        )
                        compiled[id(command)] = steps
                    for step in steps:
                        step(row, col)
                    rows_l.append(row)
                    cols_l.append(col)
                    executed += n_targets
        finally:
            if rows_l:
                # every selected unit ran every dynamic instruction
                n_steps = len(rows_l)
                self._count_steps(targets, n_steps)
                self._push_block(
                    targets, [Op.PIM.code] * n_steps, rows_l, cols_l
                )
            delta_instr = driver.instructions - before_instr
            delta_ctl = driver.control_steps - before_ctl
            for sequencer in others:
                sequencer.instructions += delta_instr
                sequencer.control_steps += delta_ctl
        return executed

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def _pack_columns(
        self,
    ) -> _t.Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
    ]:
        """The packed log as (op, channel, bank, row, col) arrays.

        All-channel blocks expand vectorized: each recorded AB/PIM step
        fans out to one request per target channel, channel-major
        within the step — exactly the order per-channel loops (and the
        generic round-robin execution loop) append.
        """
        parts: _t.Tuple[list, list, list, list, list] = (
            [], [], [], [], [],
        )
        for chunk in self._iter_chunks():
            if chunk[0] == "flat":
                _, ops_l, ch_l, bank_l, row_l, col_l = chunk
                parts[0].append(np.array(ops_l, dtype=np.uint8))
                parts[1].append(np.array(ch_l, dtype=np.int64))
                parts[2].append(np.array(bank_l, dtype=np.int64))
                parts[3].append(np.array(row_l, dtype=np.int64))
                parts[4].append(np.array(col_l, dtype=np.int64))
            else:
                _, targets, ops_l, rows_l, cols_l = chunk
                n_steps = len(rows_l)
                n_t = len(targets)
                parts[0].append(
                    np.repeat(np.array(ops_l, dtype=np.uint8), n_t)
                )
                parts[1].append(
                    np.tile(np.array(targets, dtype=np.int64), n_steps)
                )
                parts[2].append(
                    np.zeros(n_steps * n_t, dtype=np.int64)
                )
                parts[3].append(
                    np.repeat(np.array(rows_l, dtype=np.int64), n_t)
                )
                parts[4].append(
                    np.repeat(np.array(cols_l, dtype=np.int64), n_t)
                )
        if not parts[0]:
            return (
                np.empty(0, dtype=np.uint8),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        return (
            np.concatenate(parts[0]),
            np.concatenate(parts[1]),
            np.concatenate(parts[2]),
            np.concatenate(parts[3]),
            np.concatenate(parts[4]),
        )

    def reset_requests(self) -> None:
        """Drop the accumulated request stream (e.g. after data load)."""
        self._chunks = []
        self._log = _empty_log()
        self._count = 0
        self._objects = None

    def replay(
        self,
        engine: str = "auto",
        telemetry: _t.Optional["_te.ReplayTelemetry"] = None,
    ) -> PimExecResult:
        """Replay the accumulated stream through a fresh MemorySystem.

        ``telemetry`` is threaded through to
        :meth:`~repro.memsys.MemorySystem.replay`, so per-request
        latency recording and phase profiling cover the AB-barrier
        stream exactly as they cover plain traces.

        While the machine is still in packed-log mode the stream goes
        out as a :class:`~repro.memsys.PackedTrace` (addresses encoded
        in one vectorized pass, no request objects); once
        :attr:`requests` has been materialized, the object stream is
        copied and replayed exactly as before.  Both forms replay
        bit-identically.
        """
        if self.n_requests == 0:
            raise PimExecError("no requests accumulated to replay")
        trace: _t.Union[PackedTrace, _t.List[MemRequest]]
        if self._objects is None:
            op_codes, channels, banks, rows, cols = self._pack_columns()
            per_group = self.config.banks_per_group
            addrs = self.addr_map.encode_fields(
                {
                    "channel": channels,
                    "bankgroup": banks // per_group,
                    "bank": banks % per_group,
                    "row": rows,
                    "column": cols,
                }
            )
            trace = PackedTrace(op_codes, addrs)
            counts = np.bincount(op_codes, minlength=len(OPS_BY_CODE))
            n_pim = int(counts[Op.PIM.code])
            n_broadcast = int(counts[Op.AB.code])
            n_host = int(counts[Op.READ.code] + counts[Op.WRITE.code])
            n_total = len(trace)
        else:
            trace = [
                MemRequest(r.op, r.addr, r.timestamp)
                for r in self._objects
            ]
            ops = [r.op for r in trace]
            n_pim = sum(op is Op.PIM for op in ops)
            n_broadcast = sum(op is Op.AB for op in ops)
            n_host = sum(op in (Op.READ, Op.WRITE) for op in ops)
            n_total = len(trace)
        system = MemorySystem(self.config)
        stats = system.replay(trace, engine=engine, telemetry=telemetry)
        return PimExecResult(
            stats=stats,
            engine=system.last_replay_engine,
            n_requests=n_total,
            n_pim=n_pim,
            n_broadcast=n_broadcast,
            n_host=n_host,
        )

    def sequencer_stats(self) -> _t.List[_t.Dict[str, int]]:
        """Per-channel sequencer counters (see
        :meth:`CommandSequencer.stats`), in channel order."""
        return [sequencer.stats() for sequencer in self.sequencers]

    def __repr__(self) -> str:
        mode = "bank-group" if self.bank_groups else "per-bank"
        return (
            f"<PimExecMachine {self.n_channels}ch x "
            f"{self.units_per_channel}units ({mode}, {self.dtype}, "
            f"{self.unit_mode}) "
            f"lanes={self.lanes} requests={self.n_requests}>"
        )
