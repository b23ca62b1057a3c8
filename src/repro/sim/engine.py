"""Event-driven good-simulation kernel.

This is the single-machine substrate: an Icarus-Verilog-style scheduler that
only re-evaluates the fan-out of signals that actually changed.  It is used

* directly, as the reference "good simulation" of a design,
* by the IFsim baseline, which re-runs it once per fault with a force hook
  injecting the stuck-at value,
* indirectly by the test-suite, as the oracle the concurrent fault simulator
  is checked against.

The per-cycle structure follows Fig. 4 of the paper: apply stimulus, settle the
RTL nodes and combinational behavioral nodes, fire the clocked behavioral nodes
activated by edges, apply their non-blocking updates, and iterate until the
whole design is stable before moving to the next cycle.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConvergenceError, SimulationError
from repro.ir.behavioral import BehavioralNode
from repro.ir.design import Design
from repro.ir.rtlnode import RtlNode
from repro.ir.signal import Signal
from repro.sim.emitter import edge_signals, scheduler_slot_count
from repro.sim.interpreter import NBAUpdate, execute_behavioral
from repro.sim.kernel import MAX_PASSES, CycleDriver
from repro.sim.stimulus import Stimulus
from repro.sim.values import GoodValueStore, GoodView

#: A hook applied to every scalar write: ``hook(signal, value) -> value``.
#: Serial fault injection (IFsim) forces stuck-at bits through this.
ForceHook = Callable[[Signal, int], int]

#: Safety bound on delta iterations within one time step.
MAX_DELTAS = 1000


class SimulationTrace:
    """Per-cycle record of the primary output values."""

    __slots__ = ("output_names", "cycles")

    def __init__(self, output_names: Tuple[str, ...]) -> None:
        self.output_names = output_names
        self.cycles: List[Tuple[int, ...]] = []

    def record(self, snapshot: Tuple[int, ...]) -> None:
        self.cycles.append(snapshot)

    def __len__(self) -> int:
        return len(self.cycles)

    def __getitem__(self, cycle: int) -> Tuple[int, ...]:
        return self.cycles[cycle]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimulationTrace) and self.cycles == other.cycles

    def first_difference(self, other: "SimulationTrace") -> Optional[int]:
        """Index of the first differing cycle, or ``None`` if identical."""
        for i, (mine, theirs) in enumerate(zip(self.cycles, other.cycles)):
            if mine != theirs:
                return i
        if len(self.cycles) != len(other.cycles):
            return min(len(self.cycles), len(other.cycles))
        return None


class TracedRun:
    """The ``run``/``observe`` pair every good-machine kernel shares.

    A kernel mixes this in beside its :class:`~repro.sim.kernel.SimulationKernel`
    methods; it must expose ``design`` and ``snapshot_outputs()``, which
    reads the good machine's primary outputs (lane 0 of a multi-machine
    kernel).
    """

    #: The trace of the run in progress (``None`` when nothing records).
    _trace: Optional[SimulationTrace] = None

    def observe(self, cycle: int) -> None:
        """Strobe the primary outputs into the trace of the current run."""
        if self._trace is not None:
            self._trace.record(self.snapshot_outputs())

    def run(self, stimulus: Stimulus) -> SimulationTrace:
        """Run the whole stimulus; return the good machine's per-cycle output trace."""
        trace = SimulationTrace(tuple(s.name for s in self.design.outputs))
        self._trace = trace
        try:
            CycleDriver(self, stimulus).run()
        finally:
            self._trace = None
        return trace


class GeneratedEngine(TracedRun):
    """The driver around every generated kernel: serial, packed, vector, Eraser.

    The four layouts differ in how a value word holds its machines and in
    the forcing and fault state their kernels take; the cycle protocol around
    the kernels is this class.  It owns the event-scheduler stamps (``VER``
    per signal, seeded to 1 so the first pass evaluates everything; ``LS``
    per scheduler slot, seeded to 0; the counter ``GC``), the memories ``M``,
    the edge snapshots ``EP``, the force hook's per-signal OR/AND masks
    ``FO``/``FN`` (a forced write is ``(value | FO[sid]) & FN[sid]``), the
    ``MAX_PASSES`` settle loops, :meth:`initialize`, and the peeks and
    output snapshot, which read one machine out of a value word through the
    layout's :meth:`_lane`.

    A layout's ``__init__`` calls this one, turns ``FO``/``FN`` into its own
    forcing words, builds its values ``V``, and hands the loaded kernel to
    :meth:`_bind` with the argument tuples its functions take.  From then on
    every list in those tuples is updated in place, never rebound.  The
    engine holds no bound method of itself, so a finished engine is freed by
    reference counting alone.
    """

    def __init__(
        self,
        design: Design,
        force_hook: Optional[ForceHook],
        faults: Sequence[object] = (),
    ) -> None:
        design.check_finalized()
        self.faults = list(faults)
        if self.faults and force_hook is not None:
            raise SimulationError(
                f"{type(self).__name__} takes faults or force_hook, not both"
            )
        self.design = design
        self.force_hook = force_hook
        signals = design.signals
        self.VER: List[int] = [1] * len(signals)
        self.LS: List[int] = [0] * scheduler_slot_count(design)
        self.GC: List[int] = [1]
        self.M: List[Optional[list]] = [
            [0] * signal.depth if signal.is_memory else None for signal in signals
        ]
        edges = edge_signals(design)
        self.EP: List[object] = [0] * len(edges)
        self._edge_sids = [signal.sid for signal in edges]
        self._out_sids = [signal.sid for signal in design.outputs]
        # the hook is the per-bit stuck-at contract, probed once per signal
        self.FO: List[object] = [0] * len(signals)
        self.FN: List[object] = [0 if s.is_memory else s.mask for s in signals]
        if force_hook is not None:
            for signal in signals:
                if not signal.is_memory:
                    self.FO[signal.sid] = force_hook(signal, 0) & signal.mask
                    self.FN[signal.sid] = force_hook(signal, signal.mask) & signal.mask
        self._initialized = False

    def _bind(
        self,
        namespace: Dict[str, object],
        comb_args: tuple,
        fire_args: tuple,
        edges: Optional[tuple] = None,
    ) -> None:
        """Bind the kernel's functions to the argument tuples they take.

        ``edges`` pairs each edge-snapshot list with the values
        :meth:`initialize` snapshots into it (default: ``EP`` from ``V``).
        """
        # a kernel ships comb_once (feed-forward designs) or comb_pass
        self._comb_once: Optional[Callable] = namespace.get("comb_once")  # type: ignore
        self._comb_pass: Optional[Callable] = namespace.get("comb_pass")  # type: ignore
        self._fire_clocked: Callable = namespace["fire_clocked"]  # type: ignore
        self._comb_args = comb_args
        self._fire_args = fire_args
        self._edges = edges or ((self.EP, self.V),)

    # ------------------------------------------------------------- evaluation
    def _settle_comb(self) -> None:
        if self._comb_once is not None:
            # feed-forward: one levelized pass IS the fixed point
            self._comb_once(*self._comb_args)
            return
        comb_pass, args = self._comb_pass, self._comb_args
        for _ in range(MAX_PASSES):
            if not comb_pass(*args):
                return
        raise ConvergenceError(
            f"design {self.design.name!r} did not converge within {MAX_PASSES} passes"
        )

    def settle(self) -> None:
        """Settle combinational logic and fire clocked logic until stable."""
        fire, args = self._fire_clocked, self._fire_args
        for _ in range(MAX_PASSES):
            self._settle_comb()
            if not fire(*args):
                return
        raise ConvergenceError(
            f"design {self.design.name!r}: clocked feedback did not settle"
        )

    # ------------------------------------------------------- kernel protocol
    def initialize(self) -> None:
        """Establish a consistent combinational state from reset (idempotent).

        No clock edge has happened yet: the edge snapshots start at the
        settled values, so the first stimulus edge is the first one seen.
        """
        if self._initialized:
            return
        self._settle_comb()
        for snapshot, values in self._edges:
            for i, sid in enumerate(self._edge_sids):
                snapshot[i] = values[sid]
        self._initialized = True

    # ------------------------------------------------------------------ peeks
    def _lane(self, word, lane: int) -> int:
        """One machine's value out of a value word (lane 0 is the good machine).

        The serial layout holds one machine per word, and the Eraser engine's
        ``V`` is its good machine, so both read the word as it is.
        """
        return word

    def snapshot_outputs(self) -> Tuple[int, ...]:
        """Lane-0 values of every primary output, in design order."""
        V, lane = self.V, self._lane
        return tuple(lane(V[sid], 0) for sid in self._out_sids)

    def peek(self, name: str, lane: int = 0) -> int:
        """One lane's current value of signal ``name`` (lane 0 = good)."""
        signal = self.design.signal(name)
        if signal.is_memory:
            raise SimulationError(f"{name!r} is a memory; use peek_word")
        return self._lane(self.V[signal.sid], lane) & signal.mask

    def peek_word(self, name: str, index: int, lane: int = 0) -> int:
        """One lane's view of memory ``name`` at word ``index``."""
        signal = self.design.signal(name)
        words = self.M[signal.sid]
        if words is None:
            raise SimulationError(f"{name!r} is not a memory")
        if not 0 <= index < len(words):
            return 0
        return self._lane(words[index], lane) & signal.mask


class EventDrivenEngine(TracedRun):
    """Single-machine, event-driven simulation of an elaborated design."""

    def __init__(self, design: Design, force_hook: Optional[ForceHook] = None) -> None:
        design.check_finalized()
        self.design = design
        self.force_hook = force_hook
        self.store = GoodValueStore(design)
        self.view = GoodView(self.store)
        # scheduling state
        self._pending_rtl: List[Tuple[int, int]] = []  # heap of (level, nid)
        self._pending_rtl_set: Set[int] = set()
        self._pending_comb: Set[BehavioralNode] = set()
        self._pending_clocked: Set[BehavioralNode] = set()
        self._rtl_by_id = {node.nid: node for node in design.rtl_nodes}
        self._initialized = False
        self._suppress_edges = False
        if force_hook is not None:
            self._apply_initial_forcing()

    # ----------------------------------------------------------------- writes
    def _apply_initial_forcing(self) -> None:
        """Force fault sites on the all-zero initial state."""
        for signal in self.design.signals:
            if signal.is_memory:
                continue
            forced = self.force_hook(signal, self.store.values[signal])
            self.store.values[signal] = forced & signal.mask

    def write(self, signal: Signal, value: int) -> None:
        """Write a scalar signal, applying forcing and scheduling fan-out."""
        value &= signal.mask
        if self.force_hook is not None:
            value = self.force_hook(signal, value) & signal.mask
        old = self.store.values[signal]
        if old == value:
            return
        self.store.values[signal] = value
        self._on_signal_change(signal, old, value)

    def write_word(self, signal: Signal, index: int, value: int) -> None:
        """Write one memory word and schedule readers of the memory."""
        old = self.store.get_word(signal, index)
        value &= signal.mask
        if old == value:
            return
        self.store.set_word(signal, index, value)
        self._schedule_readers(signal)

    def _on_signal_change(self, signal: Signal, old: int, new: int) -> None:
        self._schedule_readers(signal)
        if self._suppress_edges:
            return
        for node in self.design.edge_fanout.get(signal, ()):
            for edge in node.edges:
                if edge.signal is signal and edge.triggered(old, new):
                    self._pending_clocked.add(node)
                    break

    def _schedule_readers(self, signal: Signal) -> None:
        for node in self.design.rtl_fanout.get(signal, ()):
            if node.nid not in self._pending_rtl_set:
                self._pending_rtl_set.add(node.nid)
                heapq.heappush(self._pending_rtl, (self.design.rtl_levels[node], node.nid))
        for bnode in self.design.comb_fanout.get(signal, ()):
            self._pending_comb.add(bnode)

    # ------------------------------------------------------------- evaluation
    def _evaluate_rtl_node(self, node: RtlNode) -> None:
        self.write(node.output, node.evaluate(self.view))

    def _execute_behavioral(self, node: BehavioralNode) -> List[NBAUpdate]:
        result = execute_behavioral(node, self.view)
        return result.combined_updates()

    def _apply_updates(self, updates: List[NBAUpdate]) -> None:
        for update in updates:
            signal = update.signal
            if update.word_index is not None:
                self.write_word(signal, update.word_index, update.value)
            else:
                self.write(signal, update.apply_to(self.store.values[signal]))

    # --------------------------------------------------------------- settling
    def settle(self) -> None:
        """Iterate RTL / behavioral evaluation until the design is stable."""
        for _ in range(MAX_DELTAS):
            if self._pending_rtl:
                while self._pending_rtl:
                    _, nid = heapq.heappop(self._pending_rtl)
                    self._pending_rtl_set.discard(nid)
                    self._evaluate_rtl_node(self._rtl_by_id[nid])
                continue
            if self._pending_comb:
                nodes = sorted(self._pending_comb, key=lambda n: n.bid)
                self._pending_comb.clear()
                for node in nodes:
                    self._apply_updates(self._execute_behavioral(node))
                continue
            if self._pending_clocked:
                nodes = sorted(self._pending_clocked, key=lambda n: n.bid)
                self._pending_clocked.clear()
                # NBA region: execute everything first, then apply together
                batches = [self._execute_behavioral(node) for node in nodes]
                for batch in batches:
                    self._apply_updates(batch)
                continue
            return
        raise ConvergenceError(
            f"design {self.design.name!r} did not stabilise within {MAX_DELTAS} deltas"
        )

    def initialize(self) -> None:
        """Evaluate the whole combinational network once from the reset state.

        No clock edge has happened yet, so clocked behavioral nodes are not
        activated by the initial evaluation (matching the generated kernels).
        """
        if self._initialized:
            return
        for node in self.design.rtl_nodes:
            if node.nid not in self._pending_rtl_set:
                self._pending_rtl_set.add(node.nid)
                heapq.heappush(self._pending_rtl, (self.design.rtl_levels[node], node.nid))
        for bnode in self.design.behavioral_nodes:
            if not bnode.is_clocked:
                self._pending_comb.add(bnode)
        self._suppress_edges = True
        self.settle()
        self._suppress_edges = False
        self._initialized = True

    # ------------------------------------------------------- kernel protocol
    def apply_input(self, signal: Signal, value: int) -> None:
        """Drive one primary input (the :class:`SimulationKernel` interface)."""
        self.write(signal, value)

    # ------------------------------------------------------------------ debug
    def snapshot_outputs(self) -> Tuple[int, ...]:
        """Current values of every primary output, in design order."""
        return self.store.snapshot_outputs()

    def peek(self, name: str) -> int:
        """Current value of a signal, by flattened name (testing/debug aid)."""
        signal = self.design.signal(name)
        if signal.is_memory:
            raise SimulationError(f"{name!r} is a memory; use peek_word")
        return self.store.values[signal]

    def peek_word(self, name: str, index: int) -> int:
        return self.store.get_word(self.design.signal(name), index)

    def poke(self, name: str, value: int) -> None:
        """Force a value onto a signal and settle (testing/debug aid)."""
        self.write(self.design.signal(name), value)
        self.settle()
