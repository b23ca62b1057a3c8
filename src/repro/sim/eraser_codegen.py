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
source, the way :mod:`repro.sim.codegen` does for the single-machine engines:

* ``comb_pass``     — one flat levelized pass fusing the good-value update of
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
forcing, memory-word overlays) lives in a shared ``_apply_outcomes`` runtime
emitted verbatim into every kernel, so the generated module stays
self-contained and picklable-by-source like the other kernels.

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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConvergenceError, SimulationError
from repro.ir.behavioral import BehavioralNode, EdgeKind
from repro.ir.design import Design
from repro.ir.rtlnode import RtlNode
from repro.ir.signal import Signal, split_reads
from repro.sim.codegen import (
    _blocking_targets,
    _emit_body,
    _emit_expr,
    _ReadContext,
    _rtl_acyclic,
    _rtl_schedule,
    _Writer,
    edge_signals,
    load_kernel_variant,
)
from repro.sim.emitter import open_scheduler_guard
from repro.sim.engine import ForceHook, TracedRun
from repro.sim.kernel import MAX_PASSES
from repro.sim.stimulus import Stimulus

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.fault.detection import ObservationManager
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault
    from repro.fault.result import FaultSimResult

#: Bump whenever the generated concurrent-source format changes; participates
#: in the cache-key suffix so stale entries are never reused (and the serial /
#: packed caches survive eraser-emitter changes, and vice versa).
ERASER_VERSION = 2


# --------------------------------------------------------------- runtime text
#: Static helpers shared by every generated concurrent kernel, emitted
#: verbatim.  ``_mfrd`` is the fault-view memory read; ``_apply_outcomes``
#: is the interpreted engine's behavioral commit
#: (:meth:`~repro.core.framework.EraserSimulator._apply_behavioral_outcome`)
#: over flat lists: it folds update tuples into final values, then builds
#: each touched signal's divergence dict from four groups of faults — the
#: executed faults (their final value, or their old one when they did not
#: write the signal), the old divergent faults that did not execute (a holder
#: keeps its value, a follower replays the good machine's updates), the new
#: holders (they keep the overwritten good value) and the site faults (forced
#: on top of all that) — and recommits it with change detection.
_ERASER_RUNTIME = '''\
_ES = frozenset()


def _mfrd(mem, fo, ix):
    # fault-view memory word read: overlay first, then the good words.  The
    # out-of-range guard comes FIRST, matching Index.eval: a faulty machine
    # can hold an out-of-range overlay word (a faulty write at a divergent
    # address), but reads of a nonexistent word are 0 on every machine.
    if not 0 <= ix < len(mem):
        return 0
    if fo is not None:
        v = fo.get(ix)
        if v is not None:
            return v
    return mem[ix]


def _apply_outcomes(outcomes, V, M, D, MD, SITES, FA, FO, FN, VER, GC):
    # outcomes: sequence of (good_updates|None, {fault_id: updates}, holders)
    # where updates are (sid, msb, lsb, word_index, value) tuples.  Applied in
    # order; every signal touched by any machine is recommitted with a fresh
    # divergence dict, which is what keeps convergent faults invisible.
    # Every real change bumps the global commit counter GC[0] and stamps it
    # into VER[sid], so reader nodes that evaluated BEFORE this commit —
    # even earlier in the same pass — re-evaluate on the next pass.
    ch = False
    for good_upd, fault_upds, holders in outcomes:
        # the good machine's final values; per signal, the partial updates a
        # follower replays, or None once a whole write makes it the good value
        good_final = {}
        follow = {}
        good_words = {}
        if good_upd is not None:
            for u in good_upd:
                sid, a, b, wi, val = u
                if wi is not None:
                    good_words[(sid, wi)] = val
                elif a is None:
                    good_final[sid] = val
                    follow[sid] = None
                else:
                    base = good_final[sid] if sid in good_final else V[sid]
                    m = ((1 << (a - b + 1)) - 1) << b
                    good_final[sid] = (base & ~m) | ((val << b) & m)
                    if sid not in follow:
                        follow[sid] = [u]
                    elif follow[sid] is not None:
                        follow[sid].append(u)
        fault_final = {}
        fault_words = {}
        for f, upds in fault_upds.items():
            finals = {}
            for sid, a, b, wi, val in upds:
                if wi is not None:
                    wfinals = fault_words.get(f)
                    if wfinals is None:
                        fault_words[f] = wfinals = {}
                    wfinals[(sid, wi)] = val
                elif a is None:
                    finals[sid] = val
                else:
                    base = finals[sid] if sid in finals else D[sid].get(f, V[sid])
                    m = ((1 << (a - b + 1)) - 1) << b
                    finals[sid] = (base & ~m) | ((val << b) & m)
            fault_final[f] = finals
        touched = set(good_final)
        for finals in fault_final.values():
            touched.update(finals)
        for sid in touched:
            old_good = V[sid]
            old_div = D[sid]
            if sid in good_final:
                new_good = good_final[sid]
                if FA:
                    new_good = (new_good | FO[sid]) & FN[sid]
                new_div = {}
                # executed faults
                for f, finals in fault_final.items():
                    v = finals.get(sid)
                    if v is None:
                        v = old_div.get(f, old_good)
                    if v != new_good:
                        new_div[f] = v
                # old divergent faults that did not execute
                ops = follow[sid]
                for f, v in old_div.items():
                    if f in fault_final:
                        continue
                    if f not in holders:
                        if ops is None:
                            continue
                        for _s, a, b, _wi, val in ops:
                            m = ((1 << (a - b + 1)) - 1) << b
                            v = (v & ~m) | ((val << b) & m)
                    if v != new_good:
                        new_div[f] = v
                # new holders
                if old_good != new_good:
                    for f in holders:
                        if f not in old_div:
                            new_div[f] = old_good
            else:
                # only faults wrote it: everyone else keeps their value
                new_good = old_good
                new_div = dict(old_div)
                for f, finals in fault_final.items():
                    v = finals.get(sid)
                    if v is None:
                        continue
                    if v != new_good:
                        new_div[f] = v
                    elif f in new_div:
                        del new_div[f]
            # site faults
            site = SITES[sid]
            if site:
                for f, (om, an) in site.items():
                    v = (new_div.get(f, new_good) | om) & an
                    if v != new_good:
                        new_div[f] = v
                    elif f in new_div:
                        del new_div[f]
            if old_good != new_good or old_div != new_div:
                V[sid] = new_good
                D[sid] = new_div
                GC[0] = VER[sid] = GC[0] + 1
                ch = True
        if not (good_words or fault_words):
            continue
        touched_words = set(good_words)
        for wfinals in fault_words.values():
            touched_words.update(wfinals)
        for key in touched_words:
            sid, wi = key
            mem = M[sid]
            in_range = 0 <= wi < len(mem)
            old_good = mem[wi] if in_range else 0
            wbg = key in good_words
            new_good = good_words[key] if wbg else old_good
            mdov = MD[sid]
            vals = {}
            for f, ovl in mdov.items():
                if wi in ovl:
                    if wbg and f not in fault_upds and f not in holders:
                        vals[f] = new_good
                    else:
                        vals[f] = ovl[wi]
            if wbg:
                for f in holders:
                    if f not in vals:
                        vals[f] = old_good
                for f in fault_upds:
                    if f not in vals:
                        vals[f] = old_good
            for f, wfinals in fault_words.items():
                if key in wfinals:
                    vals[f] = wfinals[key]
            if old_good != new_good and in_range:
                mem[wi] = new_good
                GC[0] = VER[sid] = GC[0] + 1
                ch = True
            for f, v in vals.items():
                ovl = mdov.get(f)
                if v != new_good:
                    if ovl is None:
                        mdov[f] = ovl = {}
                    if ovl.get(wi) != v:
                        ovl[wi] = v
                        GC[0] = VER[sid] = GC[0] + 1
                        ch = True
                elif ovl is not None and wi in ovl:
                    del ovl[wi]
                    if not ovl:
                        del mdov[f]
                    GC[0] = VER[sid] = GC[0] + 1
                    ch = True
    return ch
'''


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
def _emit_behavioral(node: BehavioralNode, w: _Writer, fault_view: bool) -> str:
    """One execution function for an ``always`` block (flat, view-selected).

    ``fault_view=False`` emits the good machine's execution over ``V``;
    ``fault_view=True`` emits the per-fault variant reading through the
    divergence overlays (extra ``D``/``MD``/``_f`` parameters and
    fault-valued blocking-scalar seeds); everything else — body emission,
    update-tuple shapes and their ordering (blocking scalars whole, then
    blocking memory words, then non-blocking updates in execution order,
    exactly like the interpreter's overlay publication) — is shared, so the
    two views can never drift apart.
    """
    name = f"_bf{node.bid}" if fault_view else f"_bg{node.bid}"
    scalars, memories = _blocking_targets(node)
    if fault_view:
        ctx: _ReadContext = _BehavioralFaultContext(
            frozenset(scalars), frozenset(memories)
        )
        w.line(f"def {name}(V, M, D, MD, _f):")
    else:
        ctx = _ReadContext(frozenset(scalars), frozenset(memories))
        w.line(f"def {name}(V, M):")
    w.indent()
    for signal in sorted(scalars, key=lambda s: s.sid):
        w.line(f"b{signal.sid} = {ctx.base_value(signal)}")
    for signal in sorted(memories, key=lambda s: s.sid):
        w.line(f"w{signal.sid} = {{}}")
    w.line("n = []")
    _emit_body(node.body, ctx, w)
    w.line("upd = []")
    for signal in sorted(scalars, key=lambda s: s.sid):
        w.line(f"upd.append(({signal.sid}, None, None, None, b{signal.sid}))")
    for signal in sorted(memories, key=lambda s: s.sid):
        w.line(f"for _k, _v in w{signal.sid}.items():")
        w.line(f"    upd.append(({signal.sid}, None, None, _k, _v))")
    w.line("upd.extend(n)")
    w.line("return upd")
    w.dedent()
    w.blank()
    return name


def _emit_rtl_node(
    design: Design,
    node: RtlNode,
    slot: int,
    good_ctx: _ReadContext,
    w: _Writer,
    track_change: bool = True,
) -> None:
    """Good-value update fused with the per-fault divergence delta loop.

    The whole node is wrapped in a compiled change guard: every commit bumps
    the global commit counter ``GC[0]`` and stamps it into ``VER[sid]``, and
    the node re-evaluates only when some *read* carries a stamp newer than
    its own last-evaluation stamp ``LS[slot]`` (taken at evaluation START, so
    a commit landing later in the same pass — a comb always block feeding an
    RTL assign, a levelization-broken combinational loop, the node's own
    self-loop write — is ordered after it and re-fires it on the next pass).
    This is the event-driven scheduling of the interpreted engine compiled
    down to a few integer compares: quiescent logic — including *stably
    divergent* faults — costs nothing per pass, and forward levelized flow
    pays no spurious confirm evaluations (drivers commit before their readers
    run).  The output's own divergence dict never needs to re-trigger the
    node: it only changes through this node's commit or through
    ``drop_faults``, which purges the dict directly.

    Within an evaluation, only faults divergent on a read (or previously
    divergent on the output) re-evaluate the expression; a site fault with no
    divergent reads provably computes the good value, so it is forced
    straight from ``_x`` without touching the expression at all — the
    compiled form of the paper's execution-redundancy elimination on RTL
    nodes.

    ``track_change=False`` is the acyclic single-pass mode: no ``ch`` flag is
    maintained (one levelized pass *is* the fixed point), though commits keep
    their compare so the version stamps stay exact.
    """
    out = node.output
    sid = out.sid
    read_scalars, read_memories = split_reads(node.reads)

    # constant nodes (no reads) evaluate once, then only drops can matter —
    # and drops purge divergence dicts directly, no re-evaluation needed
    open_scheduler_guard(w, slot, node.reads)

    code = _emit_expr(node.expr, good_ctx, w)
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
    w.dedent()


def _emit_considered(node: BehavioralNode, w: _Writer, seed: Optional[str]) -> str:
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


def generate_eraser_source(design: Design) -> str:
    """Emit the specialized concurrent (Eraser) simulation module."""
    design.check_finalized()
    w = _Writer()
    w.line(f"# repro eraser (concurrent) codegen kernel v{ERASER_VERSION}")
    w.line(f"# design: {design.name}")
    w.line(
        f"# signals={len(design.signals)} rtl={len(design.rtl_nodes)}"
        f" behavioral={len(design.behavioral_nodes)}"
    )
    w.blank()
    head = w.source()

    fns = _Writer()
    comb_nodes = [n for n in design.behavioral_nodes if not n.is_clocked]
    clocked_nodes = [n for n in design.behavioral_nodes if n.is_clocked]

    good_names: Dict[int, str] = {}
    fault_names: Dict[int, str] = {}
    for node in design.behavioral_nodes:
        good_names[node.bid] = _emit_behavioral(node, fns, fault_view=False)
        fault_names[node.bid] = _emit_behavioral(node, fns, fault_view=True)

    # --- one flat levelized pass: good values fused with divergence deltas --
    schedule = _rtl_schedule(design)
    slots = {node.nid: i for i, node in enumerate(schedule)}
    comb_slots = {node.bid: len(schedule) + i for i, node in enumerate(comb_nodes)}
    fns.line("def comb_pass(V, M, D, MD, SITES, FA, FO, FN, VER, LS, GC):")
    fns.indent()
    fns.line("ch = False")
    good_ctx = _ReadContext()
    for node in schedule:
        _emit_rtl_node(design, node, slots[node.nid], good_ctx, fns)
    for node in comb_nodes:
        # level-sensitive blocks re-execute when a read changed (the
        # interpreted engine's comb_fanout scheduling, compiled)
        open_scheduler_guard(fns, comb_slots[node.bid], node.reads)
        fns.line(f"_u = {good_names[node.bid]}(V, M)")
        considered = _emit_considered(node, fns, seed=None)
        fns.line("_fu = {}")
        fns.line(f"for _f in {considered}:")
        fns.line(f"    _fu[_f] = {fault_names[node.bid]}(V, M, D, MD, _f)")
        fns.line(
            "if _apply_outcomes(((_u, _fu, _ES),),"
            " V, M, D, MD, SITES, FA, FO, FN, VER, GC):"
        )
        fns.line("    ch = True")
        fns.dedent()
    fns.line("return ch")
    fns.dedent()
    fns.blank()

    # feed-forward designs (no comb always blocks, acyclic RTL) reach the
    # combinational fixed point — divergences included — in ONE levelized
    # pass: emit a variant with no change flag so the engine can skip the
    # confirm pass entirely (commits keep their compare: it feeds the
    # version stamps)
    if not comb_nodes and _rtl_acyclic(design):
        fns.line("def comb_once(V, M, D, MD, SITES, FA, FO, FN, VER, LS, GC):")
        fns.indent()
        for node in schedule:
            _emit_rtl_node(
                design, node, slots[node.nid], good_ctx, fns, track_change=False
            )
        fns.line("return False")
        fns.dedent()
        fns.blank()

    # --- the clocked (NBA) region: compiled activation scheduling -----------
    ep_index = {signal: i for i, signal in enumerate(edge_signals(design))}
    fns.line("def fire_clocked(V, M, D, MD, EP, EPD, SITES, FA, FO, FN, VER, GC):")
    fns.indent()
    if not clocked_nodes:
        fns.line("return False")
    else:
        # per-node activation: good edge flag, faults that saw their own edge
        # (_sn) and faults divergent on a transitioning sensitivity signal
        # (_cd); the difference _cd - _sn is the holder set
        for node in clocked_nodes:
            bid = node.bid
            fns.line(f"_g{bid} = False")
            fns.line(f"_sn{bid} = set()")
            fns.line(f"_cd{bid} = set()")
            for edge in node.edges:
                sid = edge.signal.sid
                i = ep_index[edge.signal]
                fns.line(f"_og = EP[{i}]; _od = EPD[{i}]")
                fns.line(f"_ng = V[{sid}]; _nd = D[{sid}]")
                fns.line("if _og != _ng or _od != _nd:")
                fns.indent()
                if edge.kind is EdgeKind.POSEDGE:
                    fns.line("if (_og & 1) == 0 and (_ng & 1) == 1:")
                else:
                    fns.line("if (_og & 1) == 1 and (_ng & 1) == 0:")
                fns.line(f"    _g{bid} = True")
                fns.line("if _od or _nd:")
                fns.indent()
                fns.line("for _f in set(_od) | set(_nd):")
                fns.indent()
                fns.line(f"_cd{bid}.add(_f)")
                fns.line("_of = _od.get(_f, _og); _nf = _nd.get(_f, _ng)")
                if edge.kind is EdgeKind.POSEDGE:
                    fns.line("if (_of & 1) == 0 and (_nf & 1) == 1:")
                else:
                    fns.line("if (_of & 1) == 1 and (_nf & 1) == 0:")
                fns.line(f"    _sn{bid}.add(_f)")
                fns.dedent()
                fns.dedent()
                fns.dedent()
        for signal, i in ep_index.items():
            fns.line(f"EP[{i}] = V[{signal.sid}]")
            fns.line(f"EPD[{i}] = D[{signal.sid}]")
        active = " or ".join(f"_g{n.bid} or _sn{n.bid}" for n in clocked_nodes)
        fns.line(f"if not ({active}):")
        fns.line("    return False")
        # execute every active node first (pre-commit state), apply all after:
        # the NBA region semantics shared with the interpreted engine
        fns.line("_out = []")
        for node in clocked_nodes:
            bid = node.bid
            fns.line(f"if _g{bid}:")
            fns.indent()
            fns.line(f"_h = _cd{bid} - _sn{bid}")
            considered = _emit_considered(node, fns, seed=f"_sn{bid}")
            fns.line(f"if _h: {considered} -= _h")
            fns.line("_fu = {}")
            fns.line(f"for _f in {considered}:")
            fns.line(f"    _fu[_f] = {fault_names[node.bid]}(V, M, D, MD, _f)")
            fns.line(f"_out.append(({good_names[node.bid]}(V, M), _fu, _h))")
            fns.dedent()
            fns.line(f"elif _sn{bid}:")
            fns.indent()
            fns.line("_fu = {}")
            fns.line(f"for _f in _sn{bid}:")
            fns.line(f"    _fu[_f] = {fault_names[node.bid]}(V, M, D, MD, _f)")
            fns.line("_out.append((None, _fu, _ES))")
            fns.dedent()
        fns.line("_apply_outcomes(_out, V, M, D, MD, SITES, FA, FO, FN, VER, GC)")
        fns.line("return True")
    fns.dedent()
    fns.blank()

    return head + _ERASER_RUNTIME + "\n\n" + fns.source()


def load_eraser_kernel(design: Design, use_cache: bool = True):
    """Load the concurrent kernel through the shared persistent disk cache."""
    return load_kernel_variant(
        design,
        lambda: generate_eraser_source(design),
        suffix=f"e{ERASER_VERSION}",
        use_cache=use_cache,
    )


# ------------------------------------------------------------------ the engine
class EraserCodegenEngine(TracedRun):
    """Concurrent (good + whole-fault-list) simulation on generated code.

    Implements the same :class:`~repro.sim.kernel.SimulationKernel` protocol
    as the single-machine engines, so the shared
    :class:`~repro.sim.kernel.CycleDriver` advances it; outputs seen through
    ``store``/``run`` are the good machine's, which is what makes
    ``engine="eraser-codegen"`` selectable everywhere the other kernels are.

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
        design.check_finalized()
        faults = list(faults)
        if faults and force_hook is not None:
            raise SimulationError(
                "eraser-codegen engine takes faults or force_hook, not both"
            )
        self.design = design
        self.force_hook = force_hook
        self.faults = faults
        self.observation = observation
        namespace, self.source, self.fingerprint, self.cache_hit = load_eraser_kernel(
            design, use_cache
        )
        self._comb_pass: Callable = namespace["comb_pass"]  # type: ignore
        self._fire_clocked: Callable = namespace["fire_clocked"]  # type: ignore
        # feed-forward designs ship a single-pass settle (see the emitter)
        self._comb_once: Optional[Callable] = namespace.get("comb_once")  # type: ignore
        count = len(design.signals)
        self.V: List[int] = [0] * count
        self.M: List[Optional[List[int]]] = [None] * count
        #: per-signal divergence dicts: ``D[sid][fault_id] -> value``
        self.D: List[Dict[int, int]] = [{} for _ in range(count)]
        #: per-memory fault overlays: ``MD[sid][fault_id] -> {index: value}``
        self.MD: List[Dict[int, Dict[int, int]]] = [{} for _ in range(count)]
        for signal in design.signals:
            if signal.is_memory:
                self.M[signal.sid] = [0] * signal.depth
        # good-machine forcing masks (the serial seam; off in concurrent mode)
        self.FA = force_hook is not None
        self.FO: List[int] = [0] * count
        self.FN: List[int] = [
            0 if signal.is_memory else signal.mask for signal in design.signals
        ]
        if force_hook is not None:
            for signal in design.signals:
                if signal.is_memory:
                    continue
                sid = signal.sid
                self.FO[sid] = force_hook(signal, 0) & signal.mask
                self.FN[sid] = force_hook(signal, signal.mask) & signal.mask
                # initial forcing on the all-zero state (matches the others)
                self.V[sid] = self.FO[sid]
        #: per-fault site forcing masks: ``SITES[sid][fault_id] -> (OR, AND)``
        self.SITES: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(count)]
        for fault in faults:
            sid = fault.signal.sid
            om = fault.force(0) & fault.signal.mask
            an = fault.force(fault.signal.mask) & fault.signal.mask
            self.SITES[sid][fault.fault_id] = (om, an)
            # seed the divergence at the fault site on the reset state
            forced = (self.V[sid] | om) & an
            if forced != self.V[sid]:
                self.D[sid][fault.fault_id] = forced
        #: per-signal change stamps + per-node last-eval stamps + the global
        #: commit counter (the compiled event scheduler); VER starts above LS
        #: so the first pass evaluates every node
        self.VER: List[int] = [1] * count
        n_comb = sum(1 for n in design.behavioral_nodes if not n.is_clocked)
        self.LS: List[int] = [0] * (len(design.rtl_nodes) + n_comb)
        self.GC: List[int] = [1]
        self.EP: List[int] = [0] * len(edge_signals(design))
        self.EPD: List[Dict[int, int]] = [{} for _ in self.EP]
        self._edge_sids = [signal.sid for signal in edge_signals(design)]
        self._out_sids = [signal.sid for signal in design.outputs]
        self._initialized = False

    @property
    def store(self) -> "_EraserStore":
        """Good-machine value-store facade, built per access.

        Holding it in an attribute would tie the engine into a reference
        cycle, so a finished campaign's engine would wait for the cyclic
        garbage collector instead of being freed when it is dropped.
        """
        return _EraserStore(self)

    # ------------------------------------------------------------- evaluation
    def _settle_comb(self) -> None:
        V, M, D, MD = self.V, self.M, self.D, self.MD
        SITES, FA, FO, FN = self.SITES, self.FA, self.FO, self.FN
        VER, LS, GC = self.VER, self.LS, self.GC
        if self._comb_once is not None:
            # provably feed-forward: one levelized pass IS the fixed point
            self._comb_once(V, M, D, MD, SITES, FA, FO, FN, VER, LS, GC)
            return
        comb_pass = self._comb_pass
        for _ in range(MAX_PASSES):
            if not comb_pass(V, M, D, MD, SITES, FA, FO, FN, VER, LS, GC):
                return
        raise ConvergenceError(
            f"design {self.design.name!r} did not converge within {MAX_PASSES} passes"
        )

    # ------------------------------------------------------- kernel protocol
    def initialize(self) -> None:
        """Settle the combinational network from reset (edges suppressed)."""
        if self._initialized:
            return
        self._settle_comb()
        V, D, EP, EPD = self.V, self.D, self.EP, self.EPD
        for i, sid in enumerate(self._edge_sids):
            EP[i] = V[sid]
            EPD[i] = D[sid]
        self._initialized = True

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

    def settle(self) -> None:
        """Settle combinational logic and fire clocked logic until stable."""
        fire = self._fire_clocked
        V, M, D, MD, EP, EPD = self.V, self.M, self.D, self.MD, self.EP, self.EPD
        SITES, FA, FO, FN = self.SITES, self.FA, self.FO, self.FN
        for _ in range(MAX_PASSES):
            self._settle_comb()
            if not fire(V, M, D, MD, EP, EPD, SITES, FA, FO, FN, self.VER, self.GC):
                return
        raise ConvergenceError(
            f"design {self.design.name!r}: clocked feedback did not settle"
        )

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
    def peek(self, name: str) -> int:
        signal = self.design.signal(name)
        if signal.is_memory:
            raise SimulationError(f"{name!r} is a memory; use peek_word")
        return self.V[signal.sid]

    def peek_word(self, name: str, index: int) -> int:
        signal = self.design.signal(name)
        words = self.M[signal.sid]
        if words is None:
            raise SimulationError(f"{name!r} is not a memory")
        return words[index] if 0 <= index < len(words) else 0

    def fault_value(self, name: str, fault_id: int) -> int:
        """The named signal as seen by one fault's machine (debug/tests)."""
        signal = self.design.signal(name)
        if signal.is_memory:
            raise SimulationError(f"{name!r} is a memory; peek its words instead")
        return self.D[signal.sid].get(fault_id, self.V[signal.sid])


class _EraserStore:
    """Good-machine value-store facade (what the driver/baseline seams read)."""

    __slots__ = ("engine",)

    def __init__(self, engine: EraserCodegenEngine) -> None:
        self.engine = engine

    def get(self, signal: Signal) -> int:
        return self.engine.V[signal.sid]

    def get_word(self, signal: Signal, index: int) -> int:
        words = self.engine.M[signal.sid]
        if words is None:
            raise SimulationError(f"{signal.name!r} is not a memory")
        return words[index] if 0 <= index < len(words) else 0

    def snapshot_outputs(self) -> Tuple[int, ...]:
        V = self.engine.V
        return tuple(V[sid] for sid in self.engine._out_sids)


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
