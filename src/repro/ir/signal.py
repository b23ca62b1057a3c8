"""Signals: the vertices that carry values through the RTL graph."""

from __future__ import annotations

import enum
from typing import Iterable, List, Optional, Tuple

from repro.utils.bitvec import mask


class SignalKind(enum.Enum):
    """Classification of a signal in the elaborated design."""

    WIRE = "wire"
    REG = "reg"
    INPUT = "input"
    OUTPUT = "output"

    @property
    def is_port(self) -> bool:
        return self in (SignalKind.INPUT, SignalKind.OUTPUT)


class Signal:
    """A named value holder in the elaborated design.

    Parameters
    ----------
    name:
        Flattened hierarchical name (``u_core.alu_result``).
    width:
        Bit width of each element.
    kind:
        Wire / reg / input / output.
    depth:
        ``None`` for an ordinary vector signal, otherwise the number of words
        in a memory array (``reg [7:0] mem [0:255]`` has ``depth == 256``).
    """

    __slots__ = ("sid", "name", "width", "kind", "depth", "lsb")

    def __init__(
        self,
        name: str,
        width: int,
        kind: SignalKind = SignalKind.WIRE,
        depth: Optional[int] = None,
        lsb: int = 0,
    ) -> None:
        if width <= 0:
            raise ValueError(f"signal {name!r} must have a positive width, got {width}")
        if depth is not None and depth <= 0:
            raise ValueError(f"memory {name!r} must have a positive depth, got {depth}")
        self.sid = -1  # assigned by Design.add_signal
        self.name = name
        self.width = width
        self.kind = kind
        self.depth = depth
        self.lsb = lsb

    @property
    def is_memory(self) -> bool:
        """True for memory arrays (``reg [..] name [0:depth-1]``)."""
        return self.depth is not None

    @property
    def mask(self) -> int:
        """All-ones mask for this signal's width."""
        return mask(self.width)

    @property
    def is_input(self) -> bool:
        return self.kind is SignalKind.INPUT

    @property
    def is_output(self) -> bool:
        return self.kind is SignalKind.OUTPUT

    def __repr__(self) -> str:
        depth = f"[{self.depth}]" if self.is_memory else ""
        return f"Signal({self.name}:{self.width}{depth} {self.kind.value})"

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


def split_reads(signals: Iterable[Signal]) -> Tuple[List[Signal], List[Signal]]:
    """Deterministically ordered (scalars, memories) of a read/write set."""
    ordered = sorted(signals, key=lambda s: s.sid)
    scalars = [s for s in ordered if not s.is_memory]
    memories = [s for s in ordered if s.is_memory]
    return scalars, memories
