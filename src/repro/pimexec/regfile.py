"""Per-bank PIM execution unit: register files + bank data array.

Each :class:`BankExecUnit` is the compute logic HBM-PIM places beside
one DRAM bank (or, in bank-group mode, beside one even/odd *pair* of
banks): two vector register files (GRF_A/GRF_B, 8 registers of one page
each), a scalar register file (SRF, 8 entries, broadcast over lanes
when read), and functional access to the attached bank data array(s).
A page is ``lanes`` values — the 256-bit row-buffer page of the §2.1
macro carries 16 16-bit words in hardware.

Arithmetic dtype
----------------
The unit computes in one of two selectable dtypes (:data:`DTYPES`):

* ``"fp64"`` (default) — the idealized model of PRs 1-4: values are
  ``float64``, so results compare bit-exactly against a float64 NumPy
  reference performing the same operations in the same order;
* ``"fp16"`` — *hardware-faithful* IEEE binary16: every register,
  bank page, and intermediate is NumPy ``float16``, so each ADD/MUL/
  MAC/MAD step rounds to nearest-even at 11 significand bits exactly
  like HBM-PIM's 16-bit FPUs.  Overflow saturates to ``inf``,
  subnormals underflow gradually (no flush-to-zero), and NaNs
  propagate — the semantics ``docs/nn.md`` documents and
  ``tests/nn/test_fp16.py`` pins.

Both dtypes keep the bit-exactness contract: a NumPy reference using
the same dtype and the same operation order reproduces the unit's
state bit for bit.

Bank ports
----------
In HBM-PIM's bank-group (half-bank) mode one execution unit is shared
by an even/odd pair of banks; the ``BANK,u`` operand selector picks
which of the pair a command touches.  ``ports=2`` models that sharing:
the data array is keyed by ``(port, row, col)`` and ``Operand.unit``
selects the port.  With the default ``ports=1`` (one unit per bank)
the selector is recorded but ignored, as in PR 3.

The unit is purely *functional*: it executes commands and mutates
state, but knows nothing about time.  Timing comes from the
:class:`~repro.pimexec.machine.PimExecMachine`, which emits one
:class:`~repro.memsys.request.MemRequest` per executed command through
the banked memory system.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from .commands import (
    BANK,
    GRF_A,
    GRF_B,
    GRF_REGS,
    Operand,
    PimCommand,
    PimExecError,
    PimOpcode,
    SRF,
    SRF_REGS,
)

__all__ = [
    "DTYPES", "BankExecUnit", "VectorUnitArray", "UnitView", "fusion_plan",
]

#: Selectable arithmetic dtypes: name -> NumPy dtype.
DTYPES: _t.Dict[str, np.dtype] = {
    "fp64": np.dtype(np.float64),
    "fp16": np.dtype(np.float16),
}


class BankExecUnit:
    """Execution unit and functional data store of one or two banks.

    Parameters
    ----------
    lanes:
        Values per page (page width over the 16-bit hardware word).
    name:
        Label for error messages and repr.
    dtype:
        Arithmetic dtype name (see :data:`DTYPES`): ``"fp64"``
        (default) or ``"fp16"`` for IEEE binary16 rounding per
        operation.
    ports:
        Attached bank data arrays: 1 (per-bank unit, default) or 2
        (bank-group mode — the unit is shared by an even/odd bank pair
        and ``Operand.unit`` selects the port).
    """

    __slots__ = (
        "lanes", "name", "dtype", "np_dtype", "ports",
        "grf_a", "grf_b", "srf", "memory", "commands_executed",
    )

    def __init__(
        self,
        lanes: int,
        name: str = "unit",
        dtype: str = "fp64",
        ports: int = 1,
    ) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        if dtype not in DTYPES:
            raise PimExecError(
                f"unknown dtype {dtype!r}; available: "
                f"{tuple(DTYPES)}"
            )
        if ports not in (1, 2):
            raise ValueError(f"ports must be 1 or 2, got {ports}")
        self.lanes = int(lanes)
        self.name = name
        self.dtype = dtype
        self.np_dtype = DTYPES[dtype]
        self.ports = int(ports)
        self.grf_a = np.zeros((GRF_REGS, self.lanes), dtype=self.np_dtype)
        self.grf_b = np.zeros((GRF_REGS, self.lanes), dtype=self.np_dtype)
        self.srf = np.zeros(SRF_REGS, dtype=self.np_dtype)
        #: Functional bank contents: ``(port, row, col) -> page``
        #: (sparse; unwritten pages read as zeros).
        self.memory: _t.Dict[
            _t.Tuple[int, int, int], np.ndarray
        ] = {}
        self.commands_executed = 0

    # ------------------------------------------------------------------
    # bank data array
    # ------------------------------------------------------------------
    def _port(self, port: int) -> int:
        if not 0 <= port < self.ports:
            raise PimExecError(
                f"{self.name}: bank port {port} out of range "
                f"[0, {self.ports})"
            )
        return int(port)

    def load_page(self, row: int, col: int, port: int = 0) -> np.ndarray:
        """One page of a bank array (zeros if never written)."""
        page = self.memory.get((self._port(port), int(row), int(col)))
        if page is None:
            return np.zeros(self.lanes, dtype=self.np_dtype)
        return page.copy()

    def store_page(
        self,
        row: int,
        col: int,
        values: _t.Sequence[float],
        port: int = 0,
    ) -> None:
        """Store one page, rounding ``values`` to the unit's dtype."""
        page = np.asarray(values, dtype=self.np_dtype)
        if page.shape != (self.lanes,):
            raise PimExecError(
                f"{self.name}: page must have {self.lanes} lanes, got "
                f"shape {page.shape}"
            )
        self.memory[(self._port(port), int(row), int(col))] = page.copy()

    # ------------------------------------------------------------------
    # operand access
    # ------------------------------------------------------------------
    def _coords(
        self, operand: Operand, row: int, col: int
    ) -> _t.Tuple[int, int, int]:
        port = (
            operand.unit
            if operand.unit is not None and self.ports > 1
            else 0
        )
        if operand.row is not None:
            return operand.row, _t.cast(int, operand.col), port
        return row, col, port

    def read_operand(
        self, operand: Operand, row: int, col: int
    ) -> np.ndarray:
        if operand.space == BANK:
            r, c, port = self._coords(operand, row, col)
            return self.load_page(r, c, port)
        if operand.space == GRF_A:
            return self.grf_a[operand.index]
        if operand.space == GRF_B:
            return self.grf_b[operand.index]
        assert operand.space == SRF
        return np.full(
            self.lanes, self.srf[operand.index], dtype=self.np_dtype
        )

    def write_operand(
        self, operand: Operand, value: np.ndarray, row: int, col: int
    ) -> None:
        if operand.space == BANK:
            r, c, port = self._coords(operand, row, col)
            self.store_page(r, c, value, port)
        elif operand.space == GRF_A:
            self.grf_a[operand.index] = value
        elif operand.space == GRF_B:
            self.grf_b[operand.index] = value
        else:  # pragma: no cover - guarded by PimCommand validation
            raise PimExecError("SRF cannot be a command destination")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    _MAD_DEFAULT_ADDEND = Operand(SRF, 1)  # HBM-PIM's SRF_M

    def execute(self, command: PimCommand, row: int = 0, col: int = 0) -> None:
        """Execute one non-control command at column access (row, col).

        Every arithmetic step evaluates in the unit's dtype: with
        ``"fp16"``, each product and each sum rounds to binary16
        (``MAC``/``MAD`` round the product first, then the addition —
        no fused multiply-add), matching a NumPy float16 reference
        performing the same expressions.
        """
        opcode = command.opcode
        if command.is_control:
            raise PimExecError(
                f"{opcode.value} is sequencer control, not a bank "
                "operation"
            )
        self.commands_executed += 1
        if opcode is PimOpcode.NOP:
            return
        dst = _t.cast(Operand, command.dst)
        src0 = self.read_operand(_t.cast(Operand, command.src0), row, col)
        if opcode in (PimOpcode.MOV, PimOpcode.FILL):
            self.write_operand(dst, src0.copy(), row, col)
            return
        src1 = self.read_operand(_t.cast(Operand, command.src1), row, col)
        # IEEE semantics by design: overflow saturates to inf and
        # 0 * inf produces NaN — silence numpy's advisory warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if opcode is PimOpcode.ADD:
                result = src0 + src1
            elif opcode is PimOpcode.MUL:
                result = src0 * src1
            elif opcode is PimOpcode.MAC:
                result = self.read_operand(dst, row, col) + src0 * src1
            else:  # MAD
                addend = self.read_operand(
                    command.src2 or self._MAD_DEFAULT_ADDEND, row, col
                )
                result = src0 * src1 + addend
        self.write_operand(dst, result, row, col)

    def __repr__(self) -> str:
        return (
            f"<BankExecUnit {self.name!r} lanes={self.lanes} "
            f"dtype={self.dtype} ports={self.ports} "
            f"pages={len(self.memory)} "
            f"executed={self.commands_executed}>"
        )


#: Unit-selection tuple into a :class:`VectorUnitArray`: ``()`` (every
#: unit), ``(channel,)`` (every unit of one channel), or
#: ``(channel, unit)``.
UnitSel = _t.Tuple[int, ...]

#: One operand slot of a fused command group: the group's first operand
#: and the registers it spans (1: every command names the same register
#: or bank page; the group size: consecutive registers).
_Span = _t.Tuple[Operand, int]


def _operand_slots(
    command: PimCommand,
) -> _t.Tuple[_t.Optional[Operand], ...]:
    """``(dst, src0, src1, src2)``, with MAD's implicit addend resolved."""
    src2 = command.src2
    if command.opcode is PimOpcode.MAD and src2 is None:
        src2 = BankExecUnit._MAD_DEFAULT_ADDEND
    return (command.dst, command.src0, command.src1, src2)


def fusion_plan(
    commands: _t.Sequence[PimCommand],
) -> _t.Optional[_t.Tuple[_t.Optional[_Span], ...]]:
    """How a command group at one ``(row, col)`` runs as one array op.

    Returns the ``(dst, src0, src1, src2)`` spans of the fused op, or
    ``None`` when the group must run command by command.  A group
    fuses only when running it all at once cannot differ from running
    it in order:

    * every command has the same opcode and, slot by slot, the same
      operand up to the register index;
    * each slot's indices are all equal or consecutive (one register
      slice);
    * the destinations are distinct registers — a consecutive GRF
      slice, never a bank page;
    * no command reads another's destination: a source in the
      destination's register file is either the destination slice
      itself (each command reads its own register, as ``MAC`` does) or
      lies wholly outside it.

    A single command always fuses.
    """
    n = len(commands)
    opcode = commands[0].opcode
    if any(command.opcode is not opcode for command in commands):
        return None
    plan: _t.List[_t.Optional[_Span]] = []
    for column in zip(*map(_operand_slots, commands)):
        head = column[0]
        if head is None:
            plan.append(None)
            continue
        place = (head.space, head.row, head.col, head.unit)
        if any(
            op is None or (op.space, op.row, op.col, op.unit) != place
            for op in column
        ):
            return None
        indices = [op.index for op in column]
        if indices.count(head.index) == n:
            plan.append((head, 1))
        elif indices == list(range(head.index, head.index + n)):
            plan.append((head, n))
        else:
            return None
    if n > 1 and plan[0] is not None:
        dst, span = plan[0]
        if dst.space == BANK or span != n:
            return None
        for slot in plan[1:]:
            if slot is None or slot[0].space != dst.space:
                continue
            src, src_span = slot
            own = src_span == n and src.index == dst.index
            disjoint = (
                src.index + src_span <= dst.index
                or src.index >= dst.index + n
            )
            if not (own or disjoint):
                return None
    return tuple(plan)


class VectorUnitArray:
    """Every execution unit of one machine, as stacked NumPy arrays.

    The array-backed twin of a grid of :class:`BankExecUnit` instances:
    register files are ``(n_channels, units_per_channel, ...)`` arrays
    and the sparse bank store keys ``(port, row, col)`` to one
    ``(n_channels, units_per_channel, lanes)`` page plane, so one
    lockstep command executes across every unit of a channel (or the
    whole machine) in a handful of vectorized NumPy operations instead
    of a Python loop over units.

    Bit-exactness is preserved by construction: every arithmetic step
    is the *same* NumPy elementwise expression in the *same* dtype as
    :meth:`BankExecUnit.execute` — with ``"fp16"``, each product and
    each sum still rounds to binary16 per operation (``MAC``/``MAD``
    round the product first; no fused multiply-add), and IEEE
    semantics (inf saturation, NaN propagation, gradual underflow) are
    unchanged because NumPy applies them lane by lane regardless of
    array shape.

    Every method takes a selection tuple ``sel`` — ``()`` for all
    units, ``(channel,)`` for one channel's units in lockstep,
    ``(channel, unit)`` for a single unit (the granularity
    :class:`UnitView` adapts to the scalar-unit API).
    """

    __slots__ = (
        "n_channels", "units_per_channel", "lanes", "name",
        "dtype", "np_dtype", "ports",
        "grf_a", "grf_b", "srf", "memory", "commands_executed",
    )

    def __init__(
        self,
        n_channels: int,
        units_per_channel: int,
        lanes: int,
        dtype: str = "fp64",
        ports: int = 1,
    ) -> None:
        if n_channels < 1 or units_per_channel < 1:
            raise ValueError(
                f"need >= 1 channel and unit, got "
                f"{n_channels} x {units_per_channel}"
            )
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        if dtype not in DTYPES:
            raise PimExecError(
                f"unknown dtype {dtype!r}; available: "
                f"{tuple(DTYPES)}"
            )
        if ports not in (1, 2):
            raise ValueError(f"ports must be 1 or 2, got {ports}")
        self.n_channels = int(n_channels)
        self.units_per_channel = int(units_per_channel)
        self.lanes = int(lanes)
        self.name = "vector-units"
        self.dtype = dtype
        self.np_dtype = DTYPES[dtype]
        self.ports = int(ports)
        grid = (self.n_channels, self.units_per_channel)
        self.grf_a = np.zeros(
            grid + (GRF_REGS, self.lanes), dtype=self.np_dtype
        )
        self.grf_b = np.zeros(
            grid + (GRF_REGS, self.lanes), dtype=self.np_dtype
        )
        self.srf = np.zeros(grid + (SRF_REGS,), dtype=self.np_dtype)
        #: Functional bank contents: ``(port, row, col) -> page plane``
        #: of shape ``(n_channels, units_per_channel, lanes)`` (sparse;
        #: unwritten pages read as zeros).
        self.memory: _t.Dict[
            _t.Tuple[int, int, int], np.ndarray
        ] = {}
        self.commands_executed = np.zeros(grid, dtype=np.int64)

    # ------------------------------------------------------------------
    # bank data array
    # ------------------------------------------------------------------
    def _port(self, port: int) -> int:
        if not 0 <= port < self.ports:
            raise PimExecError(
                f"{self.name}: bank port {port} out of range "
                f"[0, {self.ports})"
            )
        return int(port)

    def _sel_shape(self, sel: UnitSel) -> _t.Tuple[int, ...]:
        return (self.n_channels, self.units_per_channel)[len(sel):]

    def load_pages(
        self, row: int, col: int, port: int = 0, sel: UnitSel = ()
    ) -> np.ndarray:
        """The selected units' view of one page (zeros if unwritten)."""
        page = self.memory.get((self._port(port), int(row), int(col)))
        if page is None:
            return np.zeros(
                self._sel_shape(sel) + (self.lanes,),
                dtype=self.np_dtype,
            )
        return page[sel].copy()

    def store_pages(
        self,
        row: int,
        col: int,
        values: np.ndarray,
        port: int = 0,
        sel: UnitSel = (),
    ) -> None:
        """Store the selected units' slice of one page plane."""
        key = (self._port(port), int(row), int(col))
        page = self.memory.get(key)
        if page is None:
            page = np.zeros(
                (self.n_channels, self.units_per_channel, self.lanes),
                dtype=self.np_dtype,
            )
            self.memory[key] = page
        page[sel] = values

    # ------------------------------------------------------------------
    # operand access
    # ------------------------------------------------------------------
    def _coords(
        self, operand: Operand, row: int, col: int
    ) -> _t.Tuple[int, int, int]:
        port = (
            operand.unit
            if operand.unit is not None and self.ports > 1
            else 0
        )
        if operand.row is not None:
            return operand.row, _t.cast(int, operand.col), port
        return row, col, port

    def _reg_index(
        self, index: int, sel: UnitSel
    ) -> _t.Tuple[_t.Any, ...]:
        return sel + (slice(None),) * (2 - len(sel)) + (index,)

    def read_operand(
        self, operand: Operand, row: int, col: int, sel: UnitSel = ()
    ) -> np.ndarray:
        if operand.space == BANK:
            r, c, port = self._coords(operand, row, col)
            return self.load_pages(r, c, port, sel)
        if operand.space == GRF_A:
            return self.grf_a[self._reg_index(operand.index, sel)]
        if operand.space == GRF_B:
            return self.grf_b[self._reg_index(operand.index, sel)]
        assert operand.space == SRF
        # one scalar per unit, broadcast over lanes (a trailing
        # length-1 axis broadcasts exactly like the scalar unit's
        # ``np.full(lanes, ...)`` page, element for element)
        return self.srf[self._reg_index(operand.index, sel)][..., None]

    def write_operand(
        self,
        operand: Operand,
        value: np.ndarray,
        row: int,
        col: int,
        sel: UnitSel = (),
    ) -> None:
        if operand.space == BANK:
            r, c, port = self._coords(operand, row, col)
            self.store_pages(r, c, value, port, sel)
        elif operand.space == GRF_A:
            self.grf_a[self._reg_index(operand.index, sel)] = value
        elif operand.space == GRF_B:
            self.grf_b[self._reg_index(operand.index, sel)] = value
        else:  # pragma: no cover - guarded by PimCommand validation
            raise PimExecError("SRF cannot be a command destination")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    _MAD_DEFAULT_ADDEND = BankExecUnit._MAD_DEFAULT_ADDEND

    def execute(
        self,
        command: PimCommand,
        row: int = 0,
        col: int = 0,
        sel: UnitSel = (),
    ) -> None:
        """Execute one non-control command across the selected units.

        Semantically identical to running
        :meth:`BankExecUnit.execute` on every selected unit — same
        expressions, same dtype, same rounding — in one vectorized op.
        """
        opcode = command.opcode
        if command.is_control:
            raise PimExecError(
                f"{opcode.value} is sequencer control, not a bank "
                "operation"
            )
        self.commands_executed[sel] += 1
        if opcode is PimOpcode.NOP:
            return
        dst = _t.cast(Operand, command.dst)
        src0 = self.read_operand(
            _t.cast(Operand, command.src0), row, col, sel
        )
        if opcode in (PimOpcode.MOV, PimOpcode.FILL):
            self.write_operand(dst, src0.copy(), row, col, sel)
            return
        src1 = self.read_operand(
            _t.cast(Operand, command.src1), row, col, sel
        )
        with np.errstate(over="ignore", invalid="ignore"):
            if opcode is PimOpcode.ADD:
                result = src0 + src1
            elif opcode is PimOpcode.MUL:
                result = src0 * src1
            elif opcode is PimOpcode.MAC:
                result = (
                    self.read_operand(dst, row, col, sel) + src0 * src1
                )
            else:  # MAD
                addend = self.read_operand(
                    command.src2 or self._MAD_DEFAULT_ADDEND,
                    row,
                    col,
                    sel,
                )
                result = src0 * src1 + addend
        self.write_operand(dst, result, row, col, sel)

    # ------------------------------------------------------------------
    # compiled steps (the host-sequenced and lockstep hot paths)
    # ------------------------------------------------------------------
    def _compile_reader(
        self, operand: Operand, span: int, sel: UnitSel
    ) -> _t.Callable[[int, int], np.ndarray]:
        """A ``(row, col) -> value`` closure for one source operand.

        Values carry a register axis: ``(..., span, lanes)`` for bank
        pages and GRF registers ``index .. index + span - 1``,
        ``(..., span, 1)`` for SRF scalars (broadcast over lanes
        exactly like the scalar unit's ``np.full(lanes, ...)`` page).
        A bank page reads with ``span`` 1 — every command of a fused
        group reads the same page.  Operand dispatch, port resolution,
        and index tuples are resolved once here instead of on every
        step.  Reads return *views* (of bank pages and registers, plus a
        shared read-only zero page for unwritten pages) — safe because
        every opcode computes its result into a fresh temporary, or
        elementwise in place, before any other register is written.
        """
        if operand.space == BANK:
            port = self._port(
                operand.unit
                if operand.unit is not None and self.ports > 1
                else 0
            )
            memory = self.memory
            index = sel + (Ellipsis, None, slice(None))
            zeros = np.zeros(
                self._sel_shape(sel) + (1, self.lanes), dtype=self.np_dtype
            )
            zeros.setflags(write=False)
            if operand.row is not None:
                key = (port, int(operand.row), int(_t.cast(int, operand.col)))

                def read(row: int, col: int) -> np.ndarray:
                    page = memory.get(key)
                    return zeros if page is None else page[index]

            else:

                def read(row: int, col: int) -> np.ndarray:
                    page = memory.get((port, row, col))
                    return zeros if page is None else page[index]

            return read
        # register files are updated in place, never reallocated, so
        # one view serves every step
        view = self._register(operand, span, sel)
        return lambda row, col: view

    def _register(
        self, operand: Operand, span: int, sel: UnitSel
    ) -> np.ndarray:
        """View of registers ``index .. index + span - 1`` over ``sel``."""
        index = self._reg_index(
            slice(operand.index, operand.index + span), sel
        )
        if operand.space == SRF:
            return self.srf[index][..., None]
        return (self.grf_a if operand.space == GRF_A else self.grf_b)[
            index
        ]

    def _compile_bank_writer(
        self, operand: Operand, sel: UnitSel
    ) -> _t.Callable[[np.ndarray, int, int], None]:
        """A ``(value, row, col) -> None`` closure for a bank destination."""
        port = self._port(
            operand.unit
            if operand.unit is not None and self.ports > 1
            else 0
        )
        memory = self.memory
        grid = (self.n_channels, self.units_per_channel, self.lanes)
        np_dtype = self.np_dtype
        fixed = (
            (port, int(operand.row), int(_t.cast(int, operand.col)))
            if operand.row is not None
            else None
        )

        def write(value: np.ndarray, row: int, col: int) -> None:
            key = fixed if fixed is not None else (port, row, col)
            page = memory.get(key)
            if page is None:
                page = np.zeros(grid, dtype=np_dtype)
                memory[key] = page
            page[sel] = value[..., 0, :]

        return write

    def compile_group(
        self, commands: _t.Sequence[PimCommand], sel: UnitSel = ()
    ) -> _t.Callable[[int, int], None]:
        """A ``(row, col)`` closure executing ``commands`` in order.

        Semantically :meth:`execute` once per command, in order, minus
        the per-call overheads the drivers hoist: operand dispatch
        happens once at compile time, the caller provides one
        surrounding ``np.errstate`` block, and ``commands_executed`` is
        batched by the caller.  When :func:`fusion_plan` admits the
        group it runs as *one* array op over a GRF/SRF register slice
        (e.g. eight ``MAC GRF_B,c BANK SRF,c`` become one
        ``grf_b[..., 0:8] += page * srf[..., 0:8]``); otherwise each
        command runs as its own op, in order.  The arithmetic
        expressions — and therefore dtype, rounding order, and IEEE
        special-case behavior — are identical either way.
        """
        commands = tuple(commands)
        for command in commands:
            if command.is_control:
                raise PimExecError(
                    f"{command.opcode.value} is sequencer control, not "
                    "a bank operation"
                )
        plan = fusion_plan(commands) if commands else None
        if plan is None:
            steps = [self.compile_group((c,), sel) for c in commands]

            def run_in_order(row: int, col: int) -> None:
                for step in steps:
                    step(row, col)

            return run_in_order
        opcode = commands[0].opcode
        if opcode is PimOpcode.NOP:
            return lambda row, col: None
        dst_slot, src0, src1, src2 = plan
        dst, width = _t.cast(_Span, dst_slot)
        read0 = self._compile_reader(*_t.cast(_Span, src0), sel)
        # a GRF destination is one fixed register slice, so the ufunc
        # writes straight into it (``out=``) — the same elementwise loop
        # as ``dst[...] = a + b``, minus one temporary per step; bank
        # destinations (single commands only) keep the page-allocating
        # writer
        if dst.space == BANK:
            write = self._compile_bank_writer(dst, sel)
            if opcode in (PimOpcode.MOV, PimOpcode.FILL):
                return lambda row, col: write(read0(row, col), row, col)
            read1 = self._compile_reader(*_t.cast(_Span, src1), sel)
            if opcode is PimOpcode.ADD:
                return lambda row, col: write(
                    read0(row, col) + read1(row, col), row, col
                )
            if opcode is PimOpcode.MUL:
                return lambda row, col: write(
                    read0(row, col) * read1(row, col), row, col
                )
            if opcode is PimOpcode.MAC:
                read_dst = self._compile_reader(dst, 1, sel)
                return lambda row, col: write(
                    read_dst(row, col) + read0(row, col) * read1(row, col),
                    row,
                    col,
                )
            read2 = self._compile_reader(*_t.cast(_Span, src2), sel)
            return lambda row, col: write(
                read0(row, col) * read1(row, col) + read2(row, col),
                row,
                col,
            )
        out = self._register(dst, width, sel)
        if opcode in (PimOpcode.MOV, PimOpcode.FILL):
            return lambda row, col: np.copyto(out, read0(row, col))
        read1 = self._compile_reader(*_t.cast(_Span, src1), sel)
        if opcode is PimOpcode.ADD:
            return lambda row, col: np.add(
                read0(row, col), read1(row, col), out=out
            )
        if opcode is PimOpcode.MUL:
            return lambda row, col: np.multiply(
                read0(row, col), read1(row, col), out=out
            )
        if opcode is PimOpcode.MAC:
            return lambda row, col: np.add(
                out, read0(row, col) * read1(row, col), out=out
            )
        read2 = self._compile_reader(*_t.cast(_Span, src2), sel)
        return lambda row, col: np.add(
            read0(row, col) * read1(row, col), read2(row, col), out=out
        )

    def __repr__(self) -> str:
        return (
            f"<VectorUnitArray {self.n_channels}x"
            f"{self.units_per_channel} lanes={self.lanes} "
            f"dtype={self.dtype} ports={self.ports} "
            f"pages={len(self.memory)}>"
        )


class UnitView:
    """One ``(channel, unit)`` window onto a :class:`VectorUnitArray`.

    Presents the :class:`BankExecUnit` surface — ``grf_a``/``grf_b``/
    ``srf`` as mutable array views, ``load_page``/``store_page``,
    ``read_operand``/``write_operand``/``execute``,
    ``commands_executed`` — so kernels, programs, and tests written
    against scalar units run unchanged on the vectorized machine.
    """

    __slots__ = ("_array", "_channel", "_index", "name")

    def __init__(
        self,
        array: VectorUnitArray,
        channel: int,
        index: int,
        name: _t.Optional[str] = None,
    ) -> None:
        self._array = array
        self._channel = int(channel)
        self._index = int(index)
        self.name = name or f"ch{channel}.u{index}"

    # -- geometry / dtype passthrough ----------------------------------
    @property
    def lanes(self) -> int:
        return self._array.lanes

    @property
    def dtype(self) -> str:
        return self._array.dtype

    @property
    def np_dtype(self) -> np.dtype:
        return self._array.np_dtype

    @property
    def ports(self) -> int:
        return self._array.ports

    # -- register files (mutable views) --------------------------------
    @property
    def grf_a(self) -> np.ndarray:
        return self._array.grf_a[self._channel, self._index]

    @property
    def grf_b(self) -> np.ndarray:
        return self._array.grf_b[self._channel, self._index]

    @property
    def srf(self) -> np.ndarray:
        return self._array.srf[self._channel, self._index]

    @property
    def commands_executed(self) -> int:
        return int(
            self._array.commands_executed[self._channel, self._index]
        )

    @property
    def _sel(self) -> UnitSel:
        return (self._channel, self._index)

    @property
    def memory(self) -> _t.Dict[_t.Tuple[int, int, int], np.ndarray]:
        """This unit's page contents (copies), keyed ``(port, row, col)``.

        Read-only mirror of :attr:`BankExecUnit.memory`: the vectorized
        array stores whole-grid page planes, so a key appears here once
        *any* unit wrote it (this unit's slice reads zeros until its own
        write, exactly like :meth:`load_page`).  Mutation goes through
        :meth:`store_page`.
        """
        sel = self._sel
        return {
            key: plane[sel].copy()
            for key, plane in self._array.memory.items()
        }

    # -- bank data array -----------------------------------------------
    def load_page(self, row: int, col: int, port: int = 0) -> np.ndarray:
        """One page of the unit's bank array (zeros if never written)."""
        if not 0 <= port < self.ports:
            raise PimExecError(
                f"{self.name}: bank port {port} out of range "
                f"[0, {self.ports})"
            )
        return self._array.load_pages(row, col, port, self._sel)

    def store_page(
        self,
        row: int,
        col: int,
        values: _t.Sequence[float],
        port: int = 0,
    ) -> None:
        """Store one page, rounding ``values`` to the unit's dtype."""
        if not 0 <= port < self.ports:
            raise PimExecError(
                f"{self.name}: bank port {port} out of range "
                f"[0, {self.ports})"
            )
        page = np.asarray(values, dtype=self.np_dtype)
        if page.shape != (self.lanes,):
            raise PimExecError(
                f"{self.name}: page must have {self.lanes} lanes, got "
                f"shape {page.shape}"
            )
        self._array.store_pages(row, col, page, port, self._sel)

    # -- operand access / execution ------------------------------------
    def read_operand(
        self, operand: Operand, row: int, col: int
    ) -> np.ndarray:
        value = self._array.read_operand(operand, row, col, self._sel)
        if value.shape != (self.lanes,):  # SRF scalar: fill the lanes
            value = np.broadcast_to(value, (self.lanes,)).copy()
        return value

    def write_operand(
        self, operand: Operand, value: np.ndarray, row: int, col: int
    ) -> None:
        self._array.write_operand(operand, value, row, col, self._sel)

    def execute(
        self, command: PimCommand, row: int = 0, col: int = 0
    ) -> None:
        self._array.execute(command, row, col, self._sel)

    def __repr__(self) -> str:
        return (
            f"<UnitView {self.name!r} lanes={self.lanes} "
            f"dtype={self.dtype} ports={self.ports} "
            f"executed={self.commands_executed}>"
        )
