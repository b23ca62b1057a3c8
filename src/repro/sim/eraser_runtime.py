"""Runtime helpers of the concurrent (Eraser) kernels.

``_mfrd`` is the fault-view memory read.  ``_apply_outcomes`` is the
interpreted engine's behavioral commit
(:meth:`~repro.core.framework.EraserSimulator._apply_behavioral_outcome`)
over flat lists: it folds update tuples into final values, then builds each
touched signal's divergence dict from four groups of faults: the executed
faults (their final value, or their old one when they did not write the
signal), the old divergent faults that did not execute (a holder keeps its
value, a follower replays the good machine's updates), the new holders (they
keep the overwritten good value) and the site faults (forced on top of all
that).  It recommits the dict with change detection.  A generated kernel
binds these names with one star import.

Cached kernels import this module as it is installed: an edit here needs an
``ERASER_VERSION`` bump (``tests/test_kernel_digests.py`` pins the file).
"""

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


#: What a kernel's star import binds.
__all__ = ["_ES", "_apply_outcomes", "_mfrd"]
