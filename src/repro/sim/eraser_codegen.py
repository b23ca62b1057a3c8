"""Codegen for the concurrent Eraser kernel: divergence propagation as code.

The interpreted :class:`~repro.core.framework.EraserSimulator` is the paper's
own contribution — one batched pass advances the good machine plus a whole
fault list, keeping per-fault *divergences* (signal values that differ from
the good machine) instead of whole faulty machines.  It is also the last
engine in the package that still walks IR objects: every RTL node is an
``Expr`` tree re-evaluated through ``eval`` recursion, once for the good
machine and once per divergent fault, and every behavioral activation runs
the statement interpreter.

This module emits the same concurrent semantics as design-specialized Python
source through the walk the other generated kernels share
(:func:`~repro.sim.emitter.emit_kernel`).  Its backend, ``_EraserBackend``,
extends the serial one of :mod:`repro.sim.codegen` (the good machine is a
serial machine) with the divergence overlays:

* the settle — ``comb_once`` on feed-forward designs, ``comb_pass``
  otherwise — is one flat levelized pass fusing the good-value update of
  every RTL node with its per-fault divergence deltas: the good expression is
  compiled inline over the flat value list ``V``, the *affected* fault set is
  collected from the (compile-time known) read signals' divergence dicts, and
  only those faults re-evaluate the expression through cheap
  ``dict.get``-backed reads;
* ``_bg<i>``/``_bf<i>`` — two flat functions per ``always`` block: the good
  execution over ``V`` and the fault-view execution reading through the
  divergence overlays, both returning flat update-tuple lists;
* ``fire_clocked``  — activation scheduling compiled to flat per-node edge
  code: good edges and per-fault edges are detected from packed snapshots
  (``EP``/``EPD``), clock-divergent faults that missed the edge become state
  *holders*, and the behavioral blocks run under divergence-aware guards (a
  fault executes only when it diverges on a read/write of the block or saw
  its own clock edge — everything else follows the good machine for free).

The commit bookkeeping (follow-the-good blending, holder state, site-fault
forcing, memory-word overlays) is ``_apply_outcomes`` in
:mod:`repro.sim.eraser_runtime`, which every kernel imports.

Verdicts and detection cycles are exact against the interpreted
:class:`~repro.core.framework.EraserSimulator` on the whole corpus (the
test-suite and the differential fuzz suite both check this): executing every
*considered* fault is semantically identical to the interpreted engine's
explicit/implicit redundancy elimination — elimination only skips executions
proven to produce the good machine's results — so all three
:class:`~repro.core.framework.EraserMode` variants agree with this kernel.

Generated sources reuse the persistent disk cache of
:mod:`repro.sim.codegen` (source + marshal bytecode sidecar) under a distinct
``-e<version>`` cache-key suffix.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.ir.behavioral import BehavioralNode, EdgeKind
from repro.ir.design import Design
from repro.ir.rtlnode import RtlNode
from repro.ir.signal import Signal, split_reads
from repro.sim.codegen import _emit_expr, _ReadContext, _SerialBackend, load_kernel_variant
from repro.sim.emitter import SourceWriter, edge_signals, emit_kernel
from repro.sim.engine import ForceHook, GeneratedEngine
from repro.sim.stimulus import Stimulus

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.fault.detection import ObservationManager
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault
    from repro.fault.result import FaultSimResult

#: Bump whenever the generated concurrent-source format changes; participates
#: in the cache-key suffix so stale entries are never reused (and the serial /
#: packed caches survive eraser-emitter changes, and vice versa).
#: v3: the helpers are imported from :mod:`repro.sim.eraser_runtime`, not
#: pasted in.
#: v4: emitted by the shared walk, so a feed-forward design's kernel ships
#: ``comb_once`` *instead of* ``comb_pass``, never both.
ERASER_VERSION = 4


# ------------------------------------------------------------- read contexts
class _RtlFaultContext(_ReadContext):
    """Reads inside the per-fault RTL loop: scalars are hoisted to locals."""

    def scalar(self, signal: Signal) -> str:
        return f"_r{signal.sid}"

    def word(self, signal: Signal, idx: str) -> str:
        return f"_mfrd(M[{signal.sid}], _mf{signal.sid}, {idx})"


class _BehavioralFaultContext(_ReadContext):
    """Reads inside a fault-view behavioral execution: divergence overlays."""

    def scalar(self, signal: Signal) -> str:
        if signal in self.blocking_scalars:
            return f"b{signal.sid}"
        return f"D[{signal.sid}].get(_f, V[{signal.sid}])"

    def word(self, signal: Signal, idx: str) -> str:
        base = f"_mfrd(M[{signal.sid}], MD[{signal.sid}].get(_f), {idx})"
        if signal in self.blocking_mems:
            return f"w{signal.sid}.get({idx}, {base})"
        return base

    def base_value(self, signal: Signal) -> str:
        return f"D[{signal.sid}].get(_f, V[{signal.sid}])"


# ------------------------------------------------------------------- emitter
def _emit_considered(node: BehavioralNode, w: SourceWriter, seed: Optional[str]) -> str:
    """Emit the divergence-aware guard: the set of faults that must execute.

    A fault is *considered* when it diverges on any signal the block reads or
    writes (``seed`` additionally unions the faults that saw their own clock
    edge).  Everything else provably reproduces the good execution and is
    skipped — the compiled form of the interpreted engine's redundancy
    elimination.
    """
    scalars, memories = split_reads(node.reads | node.writes)
    names = []
    for signal in scalars:
        w.line(f"_d{signal.sid} = D[{signal.sid}]")
        names.append(f"_d{signal.sid}")
    for signal in memories:
        w.line(f"_m{signal.sid} = MD[{signal.sid}]")
        names.append(f"_m{signal.sid}")
    if seed is None:
        w.line("_c = set()")
        if names:
            w.line(f"if {' or '.join(names)}:")
            w.indent()
            for name in names:
                w.line(f"_c.update({name})")
            w.dedent()
    else:
        w.line(f"_c = set({seed})")
        for name in names:
            w.line(f"_c.update({name})")
    return "_c"


class _EraserBackend(_SerialBackend):
    """The concurrent layout: the serial good machine plus per-fault divergences.

    Statements and expressions compile as in the serial layout; the fault
    views read through the divergence overlays instead.  The kernel always
    runs the event scheduler, so every commit stamps ``VER``.
    """

    comb_params = "V, M, D, MD, SITES, FA, FO, FN, VER, LS, GC"

    def behavioral_fn(self, node: BehavioralNode, w: SourceWriter) -> str:
        """The good view ``_bg<bid>`` and the fault view ``_bf<bid>`` of one block.

        The good view executes over ``V``; the fault view reads through the
        divergence overlays (extra ``D``/``MD``/``_f`` parameters and
        fault-valued blocking-scalar seeds).  Body emission, update-tuple
        shapes and their ordering are shared, so the two views can never
        drift apart.  Returns the good view's name.
        """
        for signature, context in (
            (f"_bg{node.bid}(V, M)", _ReadContext),
            (f"_bf{node.bid}(V, M, D, MD, _f)", _BehavioralFaultContext),
        ):
            ctx = self.open_block_fn(w, signature, node, context)
            self.body(node.body, ctx, w, None)
            w.line("upd = []")
            self.close_block_fn(w, ctx)
            w.line("return upd")
            w.dedent()
            w.blank()
        return f"_bg{node.bid}"

    def rtl_node(
        self,
        node: RtlNode,
        ctx: _ReadContext,
        w: SourceWriter,
        track_change: bool = True,
        stamp: bool = True,
    ) -> None:
        """Good-value update fused with the per-fault divergence delta loop.

        The walk's scheduler guard around the node makes quiescent logic —
        including *stably divergent* faults — cost nothing per pass.  The
        output's own divergence dict never needs to re-trigger the node: it
        only changes through this node's commit or through ``drop_faults``,
        which purges the dict directly (so a constant node evaluates once).

        Within an evaluation, only faults divergent on a read (or previously
        divergent on the output) re-evaluate the expression; a site fault with
        no divergent reads provably computes the good value, so it is forced
        straight from ``_x`` without touching the expression at all — the
        compiled form of the paper's execution-redundancy elimination on RTL
        nodes.

        ``track_change=False`` is the ``comb_once`` mode: no ``ch`` flag is
        maintained (one levelized pass *is* the fixed point), though commits
        keep their compare so the version stamps stay exact.
        """
        out = node.output
        sid = out.sid
        read_scalars, read_memories = split_reads(node.reads)

        code = _emit_expr(node.expr, ctx, w)
        w.line(f"_x = ({code}) & {out.mask}")
        w.line(f"if FA: _x = (_x | FO[{sid}]) & FN[{sid}]")

        # hoist the divergence sources: the read signals' divergence dicts plus
        # the output's own (so re-converged faults get cleared)
        div_names: List[str] = []
        hoisted = set()
        for signal in read_scalars + [out]:
            if signal.sid in hoisted or signal.is_memory:
                continue
            hoisted.add(signal.sid)
            w.line(f"_d{signal.sid} = D[{signal.sid}]")
            div_names.append(f"_d{signal.sid}")
        for signal in read_memories:
            w.line(f"_m{signal.sid} = MD[{signal.sid}]")
            div_names.append(f"_m{signal.sid}")
        w.line(f"_s{sid} = SITES[{sid}]")

        def commit() -> None:
            w.line(f"if V[{sid}] != _x or _d{sid} != _nd:")
            w.line(
                f"    V[{sid}] = _x; D[{sid}] = _nd; GC[0] = VER[{sid}] = GC[0] + 1"
                + ("; ch = True" if track_change else "")
            )

        w.line(f"if {' or '.join(div_names)}:")
        w.indent()
        w.line(f"_a = set(_d{sid})")
        for name in div_names:
            if name != f"_d{sid}":
                w.line(f"_a.update({name})")
        for signal in read_scalars:
            w.line(f"_g{signal.sid} = V[{signal.sid}]")
        w.line("_nd = {}")
        w.line("for _f in _a:")
        w.indent()
        for signal in read_scalars:
            w.line(f"_r{signal.sid} = _d{signal.sid}.get(_f, _g{signal.sid})")
        for signal in read_memories:
            w.line(f"_mf{signal.sid} = _m{signal.sid}.get(_f)")
        fault_ctx = _RtlFaultContext()
        fcode = _emit_expr(node.expr, fault_ctx, w)
        w.line(f"_v = ({fcode}) & {out.mask}")
        w.line(f"_st = _s{sid}.get(_f)")
        w.line("if _st is not None: _v = (_v | _st[0]) & _st[1]")
        w.line("if _v != _x: _nd[_f] = _v")
        w.dedent()
        w.line(f"if _s{sid}:")
        w.line(f"    for _f, _st in _s{sid}.items():")
        w.line("        if _f not in _a:")
        w.line("            _v = (_x | _st[0]) & _st[1]")
        w.line("            if _v != _x: _nd[_f] = _v")
        commit()
        w.dedent()
        w.line(f"elif _s{sid}:")
        w.indent()
        w.line("_nd = {}")
        w.line(f"for _f, _st in _s{sid}.items():")
        w.line("    _v = (_x | _st[0]) & _st[1]")
        w.line("    if _v != _x: _nd[_f] = _v")
        commit()
        w.dedent()
        w.line(f"elif V[{sid}] != _x:")
        w.line(
            f"    V[{sid}] = _x; GC[0] = VER[{sid}] = GC[0] + 1"
            + ("; ch = True" if track_change else "")
        )

    def comb_block_call(self, node: BehavioralNode, fn_name: str, w: SourceWriter) -> None:
        # level-sensitive blocks re-execute when a read changed (the
        # interpreted engine's comb_fanout scheduling, compiled)
        w.line(f"_u = {fn_name}(V, M)")
        considered = _emit_considered(node, w, seed=None)
        w.line("_fu = {}")
        w.line(f"for _f in {considered}:")
        w.line(f"    _fu[_f] = _bf{node.bid}(V, M, D, MD, _f)")
        w.line(
            "if _apply_outcomes(((_u, _fu, _ES),),"
            " V, M, D, MD, SITES, FA, FO, FN, VER, GC):"
        )
        w.line("    ch = True")

    def fire_clocked(self, fn_names: Dict[int, str], w: SourceWriter) -> None:
        """The clocked (NBA) region: compiled activation scheduling."""
        design = self.design
        clocked_nodes = [n for n in design.behavioral_nodes if n.is_clocked]
        ep_index = {signal: i for i, signal in enumerate(edge_signals(design))}
        w.line("def fire_clocked(V, M, D, MD, EP, EPD, SITES, FA, FO, FN, VER, GC):")
        w.indent()
        if not clocked_nodes:
            w.line("return False")
        else:
            # per-node activation: good edge flag, faults that saw their own edge
            # (_sn) and faults divergent on a transitioning sensitivity signal
            # (_cd); the difference _cd - _sn is the holder set
            for node in clocked_nodes:
                bid = node.bid
                w.line(f"_g{bid} = False")
                w.line(f"_sn{bid} = set()")
                w.line(f"_cd{bid} = set()")
                for edge in node.edges:
                    sid = edge.signal.sid
                    i = ep_index[edge.signal]
                    w.line(f"_og = EP[{i}]; _od = EPD[{i}]")
                    w.line(f"_ng = V[{sid}]; _nd = D[{sid}]")
                    w.line("if _og != _ng or _od != _nd:")
                    w.indent()
                    if edge.kind is EdgeKind.POSEDGE:
                        w.line("if (_og & 1) == 0 and (_ng & 1) == 1:")
                    else:
                        w.line("if (_og & 1) == 1 and (_ng & 1) == 0:")
                    w.line(f"    _g{bid} = True")
                    w.line("if _od or _nd:")
                    w.indent()
                    w.line("for _f in set(_od) | set(_nd):")
                    w.indent()
                    w.line(f"_cd{bid}.add(_f)")
                    w.line("_of = _od.get(_f, _og); _nf = _nd.get(_f, _ng)")
                    if edge.kind is EdgeKind.POSEDGE:
                        w.line("if (_of & 1) == 0 and (_nf & 1) == 1:")
                    else:
                        w.line("if (_of & 1) == 1 and (_nf & 1) == 0:")
                    w.line(f"    _sn{bid}.add(_f)")
                    w.dedent()
                    w.dedent()
                    w.dedent()
            for signal, i in ep_index.items():
                w.line(f"EP[{i}] = V[{signal.sid}]")
                w.line(f"EPD[{i}] = D[{signal.sid}]")
            active = " or ".join(f"_g{n.bid} or _sn{n.bid}" for n in clocked_nodes)
            w.line(f"if not ({active}):")
            w.line("    return False")
            # execute every active node first (pre-commit state), apply all after:
            # the NBA region semantics shared with the interpreted engine
            w.line("_out = []")
            for node in clocked_nodes:
                bid = node.bid
                w.line(f"if _g{bid}:")
                w.indent()
                w.line(f"_h = _cd{bid} - _sn{bid}")
                considered = _emit_considered(node, w, seed=f"_sn{bid}")
                w.line(f"if _h: {considered} -= _h")
                w.line("_fu = {}")
                w.line(f"for _f in {considered}:")
                w.line(f"    _fu[_f] = _bf{bid}(V, M, D, MD, _f)")
                w.line(f"_out.append(({fn_names[bid]}(V, M), _fu, _h))")
                w.dedent()
                w.line(f"elif _sn{bid}:")
                w.indent()
                w.line("_fu = {}")
                w.line(f"for _f in _sn{bid}:")
                w.line(f"    _fu[_f] = _bf{bid}(V, M, D, MD, _f)")
                w.line("_out.append((None, _fu, _ES))")
                w.dedent()
            w.line("_apply_outcomes(_out, V, M, D, MD, SITES, FA, FO, FN, VER, GC)")
            w.line("return True")
        w.dedent()
        w.blank()

    def header(self) -> str:
        design = self.design
        return (
            f"# repro eraser (concurrent) codegen kernel v{ERASER_VERSION}\n"
            f"# design: {design.name}\n"
            f"# signals={len(design.signals)} rtl={len(design.rtl_nodes)}"
            f" behavioral={len(design.behavioral_nodes)}\n\n"
            "from repro.sim.eraser_runtime import *\n\n\n"
        )


def generate_eraser_source(design: Design) -> str:
    """Emit the specialized concurrent (Eraser) simulation module."""
    return emit_kernel(design, _EraserBackend(design))


def load_eraser_kernel(design: Design, use_cache: bool = True):
    """Load the concurrent kernel through the shared persistent disk cache."""
    return load_kernel_variant(
        design,
        lambda: generate_eraser_source(design),
        suffix=f"e{ERASER_VERSION}",
        use_cache=use_cache,
    )


# ------------------------------------------------------------------ the engine
class EraserCodegenEngine(GeneratedEngine):
    """Concurrent (good + whole-fault-list) simulation on generated code.

    Implements the same :class:`~repro.sim.kernel.SimulationKernel` protocol
    as the single-machine engines, so the shared
    :class:`~repro.sim.kernel.CycleDriver` advances it; outputs seen through
    ``snapshot_outputs``/``run`` and the peeks are the good machine's, which
    is what makes ``engine="eraser-codegen"`` selectable everywhere the
    other kernels are.

    Parameters
    ----------
    faults:
        Stuck-at faults simulated concurrently against the good machine as
        per-signal divergences.  Mutually exclusive with ``force_hook``.
    force_hook:
        Single-machine forcing (the per-bit stuck-at contract shared with the
        other engines): probed once per signal into OR/AND masks applied to
        the good machine — the serial-baseline seam.
    observation:
        Optional :class:`~repro.fault.detection.ObservationManager`; when
        set, :meth:`observe` marks faults divergent at an output as detected
        and *drops* them (their divergences are purged everywhere).
    """

    def __init__(
        self,
        design: Design,
        force_hook: Optional[ForceHook] = None,
        faults: Sequence["StuckAtFault"] = (),
        observation: Optional["ObservationManager"] = None,
        use_cache: bool = True,
    ) -> None:
        super().__init__(design, force_hook, faults)
        self.observation = observation
        namespace, self.source, self.fingerprint, self.cache_hit = load_eraser_kernel(
            design, use_cache
        )
        count = len(design.signals)
        # good-machine forcing (the serial seam; off in concurrent mode), with
        # the initial forcing on the all-zero state (matches the others)
        self.FA = force_hook is not None
        self.V: List[int] = list(self.FO)  # type: ignore[arg-type]
        #: per-signal divergence dicts: ``D[sid][fault_id] -> value``
        self.D: List[Dict[int, int]] = [{} for _ in range(count)]
        #: per-memory fault overlays: ``MD[sid][fault_id] -> {index: value}``
        self.MD: List[Dict[int, Dict[int, int]]] = [{} for _ in range(count)]
        #: per-fault site forcing masks: ``SITES[sid][fault_id] -> (OR, AND)``
        self.SITES: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(count)]
        for fault in self.faults:
            sid = fault.signal.sid
            om = fault.force(0) & fault.signal.mask
            an = fault.force(fault.signal.mask) & fault.signal.mask
            self.SITES[sid][fault.fault_id] = (om, an)
            # seed the divergence at the fault site on the reset state
            forced = (self.V[sid] | om) & an
            if forced != self.V[sid]:
                self.D[sid][fault.fault_id] = forced
        #: per-edge-signal divergence snapshots, beside the good ``EP``
        self.EPD: List[Dict[int, int]] = [{} for _ in self.EP]
        V, M, D, MD, EP, EPD = self.V, self.M, self.D, self.MD, self.EP, self.EPD
        SITES, FA, FO, FN = self.SITES, self.FA, self.FO, self.FN
        VER, LS, GC = self.VER, self.LS, self.GC
        self._bind(
            namespace,
            (V, M, D, MD, SITES, FA, FO, FN, VER, LS, GC),
            (V, M, D, MD, EP, EPD, SITES, FA, FO, FN, VER, GC),
            edges=((EP, V), (EPD, D)),
        )

    # ------------------------------------------------------- kernel protocol
    def apply_input(self, signal: Signal, value: int) -> None:
        """Drive one primary input; site faults re-seed their divergences."""
        sid = signal.sid
        new_good = value & signal.mask
        if self.FA:
            new_good = (new_good | self.FO[sid]) & self.FN[sid]
        site = self.SITES[sid]
        if site:
            new_div: Dict[int, int] = {}
            for fault_id, (om, an) in site.items():
                forced = (new_good | om) & an
                if forced != new_good:
                    new_div[fault_id] = forced
            if new_good != self.V[sid] or new_div != self.D[sid]:
                self.GC[0] = self.VER[sid] = self.GC[0] + 1
            self.D[sid] = new_div
        else:
            if new_good != self.V[sid] or self.D[sid]:
                self.GC[0] = self.VER[sid] = self.GC[0] + 1
            if self.D[sid]:
                self.D[sid] = {}
        self.V[sid] = new_good

    def observe(self, cycle: int) -> None:
        """Strobe the observation points; detect and drop divergent faults."""
        super().observe(cycle)
        observation = self.observation
        if observation is None:
            return
        newly = set()
        for sid in self._out_sids:
            for fault_id in self.D[sid]:
                if fault_id not in newly and observation.mark_detected(fault_id, cycle):
                    newly.add(fault_id)
        if newly:
            self.drop_faults(newly)

    def drop_faults(self, fault_ids: Set[int]) -> None:
        """Purge every divergence (and the site masks) of the dropped faults.

        One pass over ``D``/``MD``/``EPD``/``SITES`` drops them all.  Reader
        nodes are re-fired (version bump) so downstream divergence dicts that
        referenced a dropped fault get rebuilt without it.
        """
        VER, GC = self.VER, self.GC
        for table in (self.D, self.MD, self.SITES):
            for sid, entries in enumerate(table):
                if entries:
                    hit = False
                    for fault_id in fault_ids:
                        if entries.pop(fault_id, None) is not None:
                            hit = True
                    if hit:
                        GC[0] = VER[sid] = GC[0] + 1
        for entries in self.EPD:
            if entries:
                for fault_id in fault_ids:
                    entries.pop(fault_id, None)

    # ------------------------------------------------------------------ peeks
    def fault_value(self, name: str, fault_id: int) -> int:
        """The named signal as seen by one fault's machine (debug/tests)."""
        signal = self.design.signal(name)
        if signal.is_memory:
            raise SimulationError(f"{name!r} is a memory; peek its words instead")
        return self.D[signal.sid].get(fault_id, self.V[signal.sid])


# ------------------------------------------------------------------- campaigns
class EraserCodegenSimulator:
    """Concurrent fault campaign on the generated Eraser kernel.

    The whole fault list advances in one batched pass (like the interpreted
    :class:`~repro.core.framework.EraserSimulator`, which this simulator is
    verdict- and detection-cycle exact against); detected faults are dropped
    mid-campaign, shrinking every divergence loop that follows.
    """

    name = "Eraser-codegen"

    def __init__(
        self, design: Design, use_cache: bool = True, name: Optional[str] = None
    ) -> None:
        design.check_finalized()
        from repro.core.stats import SimulationStats

        self.design = design
        self.use_cache = use_cache
        if name is not None:
            self.name = name
        self.stats = SimulationStats()
        #: The engine of the last run (exposes the generated source/cache hit).
        self.engine: Optional[EraserCodegenEngine] = None

    def run(self, stimulus: Stimulus, faults: "FaultList") -> "FaultSimResult":
        """Fault-simulate the whole fault list against the stimulus."""
        from repro.core.stats import SimulationStats
        from repro.fault.coverage import FaultCoverageReport
        from repro.fault.detection import ObservationManager
        from repro.fault.result import FaultSimResult
        from repro.sim.kernel import CycleDriver

        stimulus.validate(self.design)
        start = time.perf_counter()
        observation = ObservationManager(self.design, faults)
        self.engine = EraserCodegenEngine(
            self.design,
            faults=list(faults),
            observation=observation,
            use_cache=self.use_cache,
        )
        CycleDriver(self.engine, stimulus).run()
        wall = time.perf_counter() - start
        self.stats = SimulationStats()
        self.stats.time_total = wall
        self.stats.cycles = stimulus.num_cycles()
        coverage = FaultCoverageReport.from_observation(
            self.design.name, faults, observation, simulator=self.name
        )
        return FaultSimResult(self.name, coverage, wall, self.stats)


__all__ = [
    "ERASER_VERSION",
    "EraserCodegenEngine",
    "EraserCodegenSimulator",
    "generate_eraser_source",
    "load_eraser_kernel",
]
