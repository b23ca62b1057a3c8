"""The Eraser concurrent fault-simulation framework (Fig. 4 of the paper).

One :class:`EraserSimulator` runs a whole fault list against a stimulus in a
single batched pass:

1. the RTL code has already been compiled/elaborated into an RTL graph
   (:class:`~repro.ir.design.Design`);
2. RTL nodes are simulated concurrently: the good value is computed once and
   only faults whose operands diverge are re-evaluated (execution-redundancy
   elimination on RTL nodes);
3. RTL-node events activate good and faulty behavioral codes;
4. faulty behavioral executions are skipped when redundancy detection proves
   them redundant — explicitly (input comparison, Section IV-B) and, in the
   full ERASER mode, implicitly (execution-path analysis, Algorithm 1,
   Section IV-A);
5. non-blocking updates are applied, the loop iterates until the design is
   stable, observation points are strobed, detected faults are dropped, and
   simulation proceeds to the next cycle;
6. the final output is the fault-coverage report.

The three framework modes of the ablation study are selected with
:class:`EraserMode`: ``FULL`` (Eraser), ``EXPLICIT_ONLY`` (Eraser-) and
``NO_ELIMINATION`` (Eraser--).

The per-cycle clock/apply/settle/observe protocol is NOT implemented here:
:class:`EraserSimulator` exposes the
:class:`~repro.sim.kernel.SimulationKernel` interface (``initialize``,
``apply_input``, ``settle``, ``observe``) and is driven by the shared
:class:`~repro.sim.kernel.CycleDriver`, the same driver the good-machine
engines and the serial baselines use.
"""

from __future__ import annotations

import enum
import heapq
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core.explicit import is_explicitly_redundant
from repro.core.redundancy import ImplicitRedundancyChecker
from repro.core.stats import SimulationStats
from repro.errors import ConvergenceError, UnknownOptionError
from repro.fault.detection import ObservationManager
from repro.fault.coverage import FaultCoverageReport
from repro.fault.faultlist import FaultList
from repro.fault.model import StuckAtFault
from repro.fault.result import FaultSimResult
from repro.ir.behavioral import BehavioralNode
from repro.ir.design import Design
from repro.ir.rtlnode import RtlNode
from repro.ir.signal import Signal
from repro.sim.interpreter import NBAUpdate, execute_behavioral
from repro.sim.stimulus import Stimulus
from repro.sim.values import ConcurrentValueStore, FaultView, GoodView

#: Safety bound on delta iterations within one time step.
MAX_DELTAS = 1000

#: The selectable concurrent kernels: ``interp`` walks IR objects through the
#: delta loop below; ``codegen`` runs the design-specialized generated code of
#: :mod:`repro.sim.eraser_codegen` (verdict- and detection-cycle exact, just
#: faster).
ERASER_ENGINES = ("interp", "codegen")


class EraserMode(enum.Enum):
    """Redundancy-elimination configuration (the ablation study's variants)."""

    NO_ELIMINATION = "eraser--"
    EXPLICIT_ONLY = "eraser-"
    FULL = "eraser"

    @property
    def eliminates_explicit(self) -> bool:
        return self is not EraserMode.NO_ELIMINATION

    @property
    def eliminates_implicit(self) -> bool:
        return self is EraserMode.FULL


class _Activation:
    """Pending activation of one clocked behavioral node within a delta."""

    __slots__ = ("good", "seen", "clock_divergent")

    def __init__(self) -> None:
        self.good = False
        self.seen: Set[int] = set()            # faults that saw a triggering edge
        self.clock_divergent: Set[int] = set() # faults divergent on a sensitivity signal


class _BehavioralOutcome:
    """Result of processing one behavioral-node activation (before commit)."""

    __slots__ = ("node", "good_updates", "fault_updates", "holders")

    def __init__(self, node: BehavioralNode) -> None:
        self.node = node
        self.good_updates: Optional[List[NBAUpdate]] = None
        self.fault_updates: Dict[int, List[NBAUpdate]] = {}
        self.holders: Set[int] = set()


class EraserSimulator:
    """Batched concurrent RTL fault simulator with trimmed execution redundancy."""

    name = "Eraser"

    def __init__(
        self,
        design: Design,
        mode: EraserMode = EraserMode.FULL,
        engine: str = "interp",
    ) -> None:
        design.check_finalized()
        if engine not in ERASER_ENGINES:
            raise UnknownOptionError.for_option("eraser engine", engine, ERASER_ENGINES)
        self.design = design
        self.mode = mode
        self.engine = engine
        self.stats = SimulationStats()
        self.redundancy = (
            ImplicitRedundancyChecker(design) if mode.eliminates_implicit else None
        )
        # per-run state
        self.store: Optional[ConcurrentValueStore] = None
        self.good_view: Optional[GoodView] = None
        self._fault_views: Dict[int, FaultView] = {}
        self._faults_by_id: Dict[int, StuckAtFault] = {}
        self._sites: Dict[Signal, List[StuckAtFault]] = {}
        self.live: Set[int] = set()
        self._rtl_by_id = {node.nid: node for node in design.rtl_nodes}
        self._pending_rtl: List[Tuple[int, int]] = []
        self._pending_rtl_set: Set[int] = set()
        self._pending_comb: Set[BehavioralNode] = set()
        self._clocked_activations: Dict[BehavioralNode, _Activation] = {}
        self._suppress_edges = False
        self._observation: Optional[ObservationManager] = None

    # ------------------------------------------------------------------ setup
    def _prepare(self, faults: FaultList) -> None:
        self.stats = SimulationStats()
        self.store = ConcurrentValueStore(self.design)
        self.good_view = GoodView(self.store)
        self._fault_views = {}
        self._faults_by_id = {fault.fault_id: fault for fault in faults}
        self._sites = faults.sites()
        self.live = {fault.fault_id for fault in faults}
        self._pending_rtl = []
        self._pending_rtl_set = set()
        self._pending_comb = set()
        self._clocked_activations = {}
        # seed divergences at every fault site on the reset (all-zero) state
        for signal, site_faults in self._sites.items():
            for fault in site_faults:
                forced = fault.force(self.store.values[signal])
                if forced != self.store.values[signal]:
                    self.store.div[signal][fault.fault_id] = forced
        # schedule an initial full evaluation of the combinational network
        for node in self.design.rtl_nodes:
            self._schedule_rtl(node)
        for bnode in self.design.behavioral_nodes:
            if not bnode.is_clocked:
                self._pending_comb.add(bnode)

    def _fault_view(self, fault_id: int) -> FaultView:
        view = self._fault_views.get(fault_id)
        if view is None:
            view = FaultView(self.store, fault_id)
            self._fault_views[fault_id] = view
        return view

    # -------------------------------------------------------------- scheduling
    def _schedule_rtl(self, node: RtlNode) -> None:
        if node.nid not in self._pending_rtl_set:
            self._pending_rtl_set.add(node.nid)
            heapq.heappush(self._pending_rtl, (self.design.rtl_levels[node], node.nid))

    def _schedule_readers(self, signal: Signal) -> None:
        for node in self.design.rtl_fanout.get(signal, ()):
            self._schedule_rtl(node)
        for bnode in self.design.comb_fanout.get(signal, ()):
            self._pending_comb.add(bnode)

    def _detect_edges(
        self,
        signal: Signal,
        old_good: int,
        new_good: int,
        old_div: Dict[int, int],
        new_div: Dict[int, int],
    ) -> None:
        """Record clocked-node activations caused by a transition of ``signal``."""
        if self._suppress_edges:
            return
        watchers = self.design.edge_fanout.get(signal)
        if not watchers:
            return
        divergent = (set(old_div) | set(new_div)) & self.live
        for node in watchers:
            for edge in node.edges:
                if edge.signal is not signal:
                    continue
                good_triggered = edge.triggered(old_good, new_good)
                if not good_triggered and not divergent:
                    continue
                activation = self._clocked_activations.get(node)
                if activation is None:
                    activation = _Activation()
                    self._clocked_activations[node] = activation
                if good_triggered:
                    activation.good = True
                for fault_id in divergent:
                    activation.clock_divergent.add(fault_id)
                    old_f = old_div.get(fault_id, old_good)
                    new_f = new_div.get(fault_id, new_good)
                    if edge.triggered(old_f, new_f):
                        activation.seen.add(fault_id)

    # ----------------------------------------------------------------- commits
    def _commit_signal(self, signal: Signal, new_good: int, new_div: Dict[int, int]) -> None:
        """Publish a signal's new good value + divergences and schedule fan-out."""
        store = self.store
        old_good = store.values[signal]
        old_div = store.div[signal]
        if old_good == new_good and old_div == new_div:
            return
        store.values[signal] = new_good
        store.div[signal] = new_div
        self._detect_edges(signal, old_good, new_good, old_div, new_div)
        self._schedule_readers(signal)

    def _commit_memory_word(
        self, signal: Signal, index: int, new_good: int, fault_values: Dict[int, int]
    ) -> None:
        """Publish one memory word's new good value and per-fault values.

        A write outside the memory is dropped on the good machine, as in the
        generated kernel: the word keeps reading 0.
        """
        store = self.store
        old_good = store.get_word(signal, index)
        store.set_word(signal, index, new_good)
        changed = store.get_word(signal, index) != old_good
        for fault_id, value in fault_values.items():
            before = store.fault_word(signal, index, fault_id)
            store.set_fault_word(signal, index, fault_id, value)
            if store.fault_word(signal, index, fault_id) != before:
                changed = True
        if changed:
            self._schedule_readers(signal)

    # --------------------------------------------------------------- RTL nodes
    def _evaluate_rtl_node(self, node: RtlNode) -> None:
        store = self.store
        output = node.output
        new_good = node.evaluate(self.good_view)
        self.stats.rtl_good_evaluations += 1

        affected: Set[int] = set()
        for read in node.reads:
            if read.is_memory:
                affected.update(store.mem_div[read].keys())
            else:
                affected.update(store.div[read].keys())
        affected.update(store.div[output].keys())
        site_faults = self._sites.get(output, ())
        for fault in site_faults:
            affected.add(fault.fault_id)
        affected &= self.live

        new_div: Dict[int, int] = {}
        if affected:
            mask = output.mask
            for fault_id in affected:
                value = node.expr.eval(self._fault_view(fault_id)) & mask
                for fault in site_faults:
                    if fault.fault_id == fault_id:
                        value = fault.force(value)
                        break
                if value != new_good:
                    new_div[fault_id] = value
            self.stats.rtl_fault_evaluations += len(affected)
        self._commit_signal(output, new_good, new_div)

    # --------------------------------------------------------- primary inputs
    def apply_input(self, signal: Signal, value: int) -> None:
        """Drive one primary input (the :class:`SimulationKernel` interface)."""
        new_good = value & signal.mask
        new_div: Dict[int, int] = {}
        for fault in self._sites.get(signal, ()):
            if fault.fault_id not in self.live:
                continue
            forced = fault.force(new_good)
            if forced != new_good:
                new_div[fault.fault_id] = forced
        self._commit_signal(signal, new_good, new_div)

    # --------------------------------------------------------- behavioral nodes
    def _process_behavioral(
        self, node: BehavioralNode, activation: Optional[_Activation]
    ) -> _BehavioralOutcome:
        """Run the good and the non-redundant faulty executions of one activation."""
        start = time.perf_counter()
        store = self.store
        outcome = _BehavioralOutcome(node)
        good_active = activation is None or activation.good

        if good_active:
            want_trace = self.mode.eliminates_implicit
            result = execute_behavioral(node, self.good_view, want_trace=want_trace)
            outcome.good_updates = result.combined_updates()
            trace = result.trace
            self.stats.bn_good_executions += 1

            if activation is not None:
                outcome.holders = (
                    activation.clock_divergent - activation.seen
                ) & self.live

            if self.mode is EraserMode.NO_ELIMINATION:
                considered = set(self.live)
            else:
                # a fault divergent only on a written signal has equal inputs:
                # it is counted explicitly redundant below without a check
                considered = set()
                for signal in node.reads:
                    considered.update(store.divergent_faults(signal))
                considered &= self.live
                if activation is not None:
                    considered |= activation.seen & self.live
            considered -= outcome.holders

            self.stats.bn_potential_executions += len(self.live) - len(outcome.holders)

            for fault_id in considered:
                if self.mode.eliminates_explicit and is_explicitly_redundant(
                    store, node, fault_id
                ):
                    self.stats.bn_explicit_eliminations += 1
                    continue
                if self.mode.eliminates_implicit and self.redundancy.is_redundant(
                    node, store, fault_id, trace, self._fault_view(fault_id)
                ):
                    self.stats.bn_implicit_eliminations += 1
                    continue
                fault_result = execute_behavioral(node, self._fault_view(fault_id))
                outcome.fault_updates[fault_id] = fault_result.combined_updates()
                self.stats.bn_fault_executions += 1
            if self.mode is not EraserMode.NO_ELIMINATION:
                # faults never considered had identical inputs: explicit redundancy
                self.stats.bn_explicit_eliminations += (
                    len(self.live) - len(outcome.holders) - len(considered)
                )
        else:
            # fault-only activation: the good machine saw no event, but some
            # faulty machines did (e.g. a fault on a clock or enable signal)
            for fault_id in (activation.seen & self.live):
                fault_result = execute_behavioral(node, self._fault_view(fault_id))
                outcome.fault_updates[fault_id] = fault_result.combined_updates()
                self.stats.bn_fault_executions += 1
                self.stats.bn_fault_only_executions += 1
                self.stats.bn_potential_executions += 1

        self.stats.time_behavioral += time.perf_counter() - start
        return outcome

    def _apply_behavioral_outcome(self, outcome: _BehavioralOutcome) -> None:
        """Commit one behavioral activation.

        The good machine's updates fold into one final value per signal, and
        each executed fault's into its own final values; a whole-signal write
        needs no old value.  Every signal either machine wrote then gets a
        fresh divergence dict, built from four groups of faults:

        1. executed faults: their final value, or their old value when their
           execution did not write the signal;
        2. old divergent faults that did not execute: a holder (a fault that
           missed the activating edge) keeps its old value, a follower replays
           the good machine's updates on its own old value;
        3. new holders, which keep the old good value that the good machine
           just overwrote;
        4. site faults, which force their stuck bit on whatever value the
           first three groups left them with.

        Any other fault follows the good machine and stays invisible.  Memory
        words are committed from the same groups, without site faults.
        """
        start = time.perf_counter()
        store = self.store
        values = store.values
        holders = outcome.holders
        executed = outcome.fault_updates

        good_final: Dict[Signal, int] = {}
        # per good-written signal, the partial updates a follower replays, or
        # None once a whole-signal write makes every follower the good value
        good_follow: Dict[Signal, Optional[List[NBAUpdate]]] = {}
        good_words: Dict[Tuple[Signal, int], int] = {}
        for update in outcome.good_updates or ():
            signal = update.signal
            if update.word_index is not None:
                good_words[(signal, update.word_index)] = update.value
            elif update.msb is None:
                good_final[signal] = update.value
                good_follow[signal] = None
            else:
                good_final[signal] = update.apply_to(good_final.get(signal, values[signal]))
                if signal not in good_follow:
                    good_follow[signal] = [update]
                elif good_follow[signal] is not None:
                    good_follow[signal].append(update)

        fault_final: Dict[int, Dict[Signal, int]] = {}
        fault_words: Dict[int, Dict[Tuple[Signal, int], int]] = {}
        for fault_id, updates in executed.items():
            finals: Dict[Signal, int] = {}
            for update in updates:
                signal = update.signal
                if update.word_index is not None:
                    words = fault_words.setdefault(fault_id, {})
                    words[(signal, update.word_index)] = update.value
                elif update.msb is None:
                    finals[signal] = update.value
                else:
                    base = finals.get(signal)
                    if base is None:
                        base = store.fault_value(signal, fault_id)
                    finals[signal] = update.apply_to(base)
            fault_final[fault_id] = finals

        touched: Set[Signal] = set(good_final)
        for finals in fault_final.values():
            touched.update(finals)
        for signal in touched:
            old_good = values[signal]
            old_div = store.div[signal]
            if signal in good_final:
                new_good = good_final[signal]
                new_div: Dict[int, int] = {}
                for fault_id, finals in fault_final.items():
                    value = finals.get(signal)
                    if value is None:
                        value = old_div.get(fault_id, old_good)
                    if value != new_good:
                        new_div[fault_id] = value
                follow = good_follow[signal]
                for fault_id, value in old_div.items():
                    if fault_id in fault_final:
                        continue
                    if fault_id not in holders:
                        if follow is None:
                            continue
                        for update in follow:
                            value = update.apply_to(value)
                    if value != new_good:
                        new_div[fault_id] = value
                if old_good != new_good:
                    for fault_id in holders:
                        if fault_id not in old_div:
                            new_div[fault_id] = old_good
            else:
                # only faults wrote it: everyone else keeps their value
                new_good = old_good
                new_div = dict(old_div)
                for fault_id, finals in fault_final.items():
                    value = finals.get(signal)
                    if value is None:
                        continue
                    if value != new_good:
                        new_div[fault_id] = value
                    else:
                        new_div.pop(fault_id, None)
            for fault in self._sites.get(signal, ()):
                fault_id = fault.fault_id
                if fault_id in self.live:
                    value = fault.force(new_div.get(fault_id, new_good))
                    if value != new_good:
                        new_div[fault_id] = value
                    else:
                        new_div.pop(fault_id, None)
            self._commit_signal(signal, new_good, new_div)

        touched_words: Set[Tuple[Signal, int]] = set(good_words)
        for words in fault_words.values():
            touched_words.update(words)
        for key in touched_words:
            signal, index = key
            old_good = store.get_word(signal, index)
            written_by_good = key in good_words
            new_good = good_words[key] if written_by_good else old_good
            fault_values: Dict[int, int] = {}
            for fault_id, overlay in store.mem_div[signal].items():
                if index in overlay:
                    follower = (
                        written_by_good and fault_id not in executed and fault_id not in holders
                    )
                    fault_values[fault_id] = new_good if follower else overlay[index]
            if written_by_good:
                for fault_id in holders:
                    fault_values.setdefault(fault_id, old_good)
                for fault_id in executed:
                    fault_values.setdefault(fault_id, old_good)
            for fault_id, words in fault_words.items():
                if key in words:
                    fault_values[fault_id] = words[key]
            self._commit_memory_word(signal, index, new_good, fault_values)

        self.stats.time_behavioral += time.perf_counter() - start

    # --------------------------------------------------------------- settling
    def settle(self) -> None:
        """Iterate the delta loop (steps 2–7 of Fig. 4) until stability."""
        for _ in range(MAX_DELTAS):
            if self._pending_rtl:
                rtl_start = time.perf_counter()
                while self._pending_rtl:
                    _, nid = heapq.heappop(self._pending_rtl)
                    self._pending_rtl_set.discard(nid)
                    self._evaluate_rtl_node(self._rtl_by_id[nid])
                self.stats.time_rtl += time.perf_counter() - rtl_start
                continue
            if self._pending_comb:
                nodes = sorted(self._pending_comb, key=lambda n: n.bid)
                self._pending_comb.clear()
                for node in nodes:
                    outcome = self._process_behavioral(node, activation=None)
                    self._apply_behavioral_outcome(outcome)
                continue
            if self._clocked_activations:
                activations = self._clocked_activations
                self._clocked_activations = {}
                ordered = sorted(activations.items(), key=lambda item: item[0].bid)
                outcomes = [
                    self._process_behavioral(node, activation)
                    for node, activation in ordered
                ]
                for outcome in outcomes:
                    self._apply_behavioral_outcome(outcome)
                continue
            return
        raise ConvergenceError(
            f"design {self.design.name!r} did not stabilise within {MAX_DELTAS} deltas"
        )

    # ------------------------------------------------------- kernel protocol
    def initialize(self) -> None:
        """Initial evaluation of the combinational network from reset.

        No clock edge has occurred yet, so clocked activations are suppressed
        (matching the event-driven and generated kernels).  When the simulator is
        driven directly by a :class:`~repro.sim.kernel.CycleDriver` (outside
        :meth:`run`), this also prepares an empty fault list so the good
        machine can be advanced on its own.
        """
        if self.store is None:
            faults = FaultList()
            self._prepare(faults)
            self._observation = ObservationManager(self.design, faults)
        self._suppress_edges = True
        self.settle()
        self._suppress_edges = False

    def observe(self, cycle: int) -> None:
        """Strobe the observation points, dropping newly detected faults."""
        newly_detected = self._observation.observe_concurrent(self.store, cycle)
        for fault_id in newly_detected:
            self.live.discard(fault_id)
            self.store.drop_fault(fault_id)
        self.stats.cycles += 1

    # ------------------------------------------------------------------- runs
    def run(self, stimulus: Stimulus, faults: FaultList) -> FaultSimResult:
        """Fault-simulate the whole fault list against the stimulus.

        With ``engine="codegen"`` the run is delegated to the generated
        concurrent kernel (:class:`~repro.sim.eraser_codegen.EraserCodegenSimulator`):
        verdicts and detection cycles are identical for every
        :class:`EraserMode` — redundancy elimination only skips executions
        proven to reproduce the good machine — so the mode then matters only
        for the interpreted engine's cost model, not for results.
        """
        if self.engine == "codegen":
            from repro.sim.eraser_codegen import EraserCodegenSimulator

            simulator = EraserCodegenSimulator(self.design, name=self.simulator_name)
            result = simulator.run(stimulus, faults)
            self.stats = simulator.stats
            return result

        from repro.sim.kernel import CycleDriver

        run_start = time.perf_counter()
        self._prepare(faults)
        self._observation = ObservationManager(self.design, faults)
        CycleDriver(self, stimulus).run()

        self.stats.time_total = time.perf_counter() - run_start
        coverage = FaultCoverageReport.from_observation(
            self.design.name, faults, self._observation, simulator=self.simulator_name
        )
        return FaultSimResult(self.simulator_name, coverage, self.stats.time_total, self.stats)

    # ------------------------------------------------------------------ names
    @property
    def simulator_name(self) -> str:
        if self.mode is EraserMode.FULL:
            return "Eraser"
        if self.mode is EraserMode.EXPLICIT_ONLY:
            return "Eraser-"
        return "Eraser--"

    def __repr__(self) -> str:
        return f"EraserSimulator({self.design.name}, mode={self.mode.value})"
