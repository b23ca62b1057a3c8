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
from typing import Callable, List, Optional, Set, Tuple

from repro.errors import ConvergenceError, SimulationError
from repro.ir.behavioral import BehavioralNode
from repro.ir.design import Design
from repro.ir.rtlnode import RtlNode
from repro.ir.signal import Signal
from repro.sim.interpreter import NBAUpdate, execute_behavioral
from repro.sim.kernel import CycleDriver
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
    methods; it must expose ``design`` and a ``store`` whose
    ``snapshot_outputs()`` reads the good machine's primary outputs (lane 0
    of a multi-machine kernel).
    """

    #: The trace of the run in progress (``None`` when nothing records).
    _trace: Optional[SimulationTrace] = None

    def observe(self, cycle: int) -> None:
        """Strobe the primary outputs into the trace of the current run."""
        if self._trace is not None:
            self._trace.record(self.store.snapshot_outputs())

    def run(self, stimulus: Stimulus) -> SimulationTrace:
        """Run the whole stimulus; return the good machine's per-cycle output trace."""
        trace = SimulationTrace(tuple(s.name for s in self.design.outputs))
        self._trace = trace
        try:
            CycleDriver(self, stimulus).run()
        finally:
            self._trace = None
        return trace


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
