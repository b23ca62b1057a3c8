"""Runtime helpers of the packed (bigint PPSFP) kernels.

A packed kernel holds one Python integer per signal: ``_W`` lanes of ``_S``
bits each, lane 0 the good machine (see ``docs/internals-packing.md``).  Its
lane-local operators are emitted inline; the serial ones (multiply, divide,
modulo, variable shifts, dynamic bit-selects, memory reads and writes, and
the NBA commit) call the helpers below by bare name.  The helpers read eight
per-geometry constants, so :func:`packed_runtime` builds constants and
helpers together, once per ``(lanes, stride)``, and every kernel of that
geometry binds the same names into its globals before its constant pool.

Cached kernels import this module as it is installed: an edit here needs a
``PACKED_VERSION`` bump (``tests/test_kernel_digests.py`` pins the file).
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping


@functools.lru_cache(maxsize=None)
def packed_runtime(lanes: int, stride: int) -> Mapping[str, object]:
    """The lane constants and helpers of a ``lanes`` x ``stride`` kernel, by name.

    The mapping is read-only: every kernel of the geometry shares it.
    """
    _W = lanes
    _S = stride
    _SP = _S - 1
    _SM = (1 << _S) - 1
    _F = (1 << (_W * _S)) - 1
    _R1 = _F // _SM
    _RH = _R1 << _SP
    _NZC = _R1 * ((1 << _SP) - 1)

    def _repl(v):
        return v * _R1

    def _nz(x):
        # per-lane "value != 0" -> one bit at each lane base (lanes < 2**_SP)
        return ((x + _NZC) >> _SP) & _R1

    def _lanes(rest):
        # bit offsets of the lanes flagged in rest (one bit at a lane base),
        # top-down.  If the top eight flags are adjacent the word is taken as
        # dense and every lane below is listed, flagged or not: walking lanes
        # costs less than finding bits, and a per-lane body gives a lane that
        # shares lane 0's result that same result again
        offs = []
        while rest:
            off = rest.bit_length() - 1
            rest ^= 1 << off
            offs.append(off)
            if len(offs) == 8 and offs[0] - off == 7 * _S:
                offs.extend(range(off - _S, -1, -_S))
                break
        return offs

    def _mrd(mem, ovl, ix):
        # packed memory read: the lanes at lane 0's address share its word, and
        # only the lanes whose address diverges gather their own
        i0 = ix & _SM
        x0 = i0 * _R1
        r = 0
        if i0 < len(mem):
            r = ovl.get(i0, mem[i0]) if ovl is not None else mem[i0]
        if ix == x0:
            return r
        rest = _nz(ix ^ x0)
        same = rest ^ _R1
        r &= (same << _S) - same
        for off in _lanes(rest):
            a = (ix >> off) & _SM
            if a < len(mem):
                wv = ovl.get(a, mem[a]) if ovl is not None else mem[a]
                r |= wv & (_SM << off)
        return r

    def _mwr(mem, ovl, ix, v, wbits, p):
        # predicated packed memory write into a blocking overlay
        i0 = ix & _SM
        if ix == i0 * _R1:
            if i0 < len(mem):
                pm = (p << wbits) - p
                old = ovl.get(i0, mem[i0])
                ovl[i0] = (old & (pm ^ _F)) | (v & pm)
            return
        off = 0
        for _ in range(_W):
            if (p >> off) & 1:
                a = (ix >> off) & _SM
                if a < len(mem):
                    lm = ((1 << wbits) - 1) << off
                    old = ovl.get(a, mem[a])
                    ovl[a] = (old & ~lm) | (v & lm)
            off += _S

    def _bidx(x, ix, width, lsb):
        # per-lane dynamic bit read x[ix], out-of-range lanes read 0
        i0 = (ix & _SM) - lsb
        if ix == (ix & _SM) * _R1:
            if 0 <= i0 < width:
                return (x >> i0) & _R1
            return 0
        r = 0
        off = 0
        for _ in range(_W):
            a = ((ix >> off) & _SM) - lsb
            if 0 <= a < width:
                r |= ((x >> (off + a)) & 1) << off
            off += _S
        return r

    def _bset(x, ix, v, width, lsb, p):
        # predicated dynamic bit write; out-of-range lanes are left untouched
        i0 = (ix & _SM) - lsb
        if ix == (ix & _SM) * _R1:
            if 0 <= i0 < width:
                m = p << i0
                return (x & (m ^ _F)) | ((v << i0) & m)
            return x
        off = 0
        for _ in range(_W):
            if (p >> off) & 1:
                a = ((ix >> off) & _SM) - lsb
                if 0 <= a < width:
                    b = off + a
                    x = (x & ~(1 << b)) | (((v >> off) & 1) << b)
            off += _S
        return x

    def _bnba(ix, v, width, lsb, p):
        # non-blocking dynamic bit write -> (write mask, value in place)
        i0 = (ix & _SM) - lsb
        if ix == (ix & _SM) * _R1:
            if 0 <= i0 < width:
                m = p << i0
                return m, (v << i0) & m
            return 0, 0
        wm = 0
        vip = 0
        off = 0
        for _ in range(_W):
            if (p >> off) & 1:
                a = ((ix >> off) & _SM) - lsb
                if 0 <= a < width:
                    b = off + a
                    wm |= 1 << b
                    vip |= ((v >> off) & 1) << b
            off += _S
        return wm, vip

    def _pmul(a, b, m):
        # lanes whose operands both equal lane 0's share its product
        a0 = a & _SM
        b0 = b & _SM
        rest = _nz((a ^ a0 * _R1) | (b ^ b0 * _R1))
        r = ((a0 * b0) & m) * (rest ^ _R1)
        for off in _lanes(rest):
            r |= ((((a >> off) & _SM) * ((b >> off) & _SM)) & m) << off
        return r

    def _pdiv(a, b, m):
        r = 0
        off = 0
        for _ in range(_W):
            y = (b >> off) & _SM
            r |= (((((a >> off) & _SM) // y) & m) if y else m) << off
            off += _S
        return r

    def _pmod(a, b, m):
        r = 0
        off = 0
        for _ in range(_W):
            y = (b >> off) & _SM
            if y:
                r |= ((((a >> off) & _SM) % y) & m) << off
            off += _S
        return r

    def _pshl(a, b, w, m):
        # lanes shifting by lane 0's amount share one whole-word shift
        s0 = b & _SM
        rest = _nz(b ^ s0 * _R1)
        r = (a & ((m >> s0) * (rest ^ _R1))) << s0 if s0 < w else 0
        for off in _lanes(rest):
            s = (b >> off) & _SM
            if s < w:
                r |= ((((a >> off) & _SM) << s) & m) << off
        return r

    def _pshr(a, b, w):
        # lanes shifting by lane 0's amount share one whole-word shift
        s0 = b & _SM
        rest = _nz(b ^ s0 * _R1)
        r = (a >> s0) & ((_SM >> s0) * (rest ^ _R1)) if s0 < w else 0
        for off in _lanes(rest):
            s = (b >> off) & _SM
            if s < w:
                r |= (((a >> off) & _SM) >> s) << off
        return r

    def _psra(a, b, w, m):
        r = 0
        off = 0
        sb = 1 << (w - 1)
        for _ in range(_W):
            x = (a >> off) & _SM
            s = (b >> off) & _SM
            if s > w:
                s = w
            if x & sb:
                x -= 1 << w
            r |= ((x >> s) & m) << off
            off += _S
        return r

    def _publish(upd, V, M, FB, FO, FN, VER, GC):
        # apply (sid, write_mask, word_index, value_in_place) updates with
        # per-lane blending, change detection, the forcing guard and the
        # scheduler version stamps (unread when the event_scheduler pass is off)
        ch = False
        for i, wm, wi, val in upd:
            if wi is not None:
                # gathered write: the lanes at lane 0's address share one word
                # write, and only the lanes whose address diverges write their own
                mem = M[i]
                i0 = wi & _SM
                x0 = i0 * _R1
                rest = 0 if wi == x0 else _nz(wi ^ x0)
                if i0 < len(mem):
                    same = rest ^ _R1
                    wm0 = wm & ((same << _S) - same) if rest else wm
                    old = mem[i0]
                    nv = (old & (wm0 ^ _F)) | (val & wm0)
                    if old != nv:
                        mem[i0] = nv
                        GC[0] = VER[i] = GC[0] + 1
                        ch = True
                for off in _lanes(rest):
                    lanebits = wm & (_SM << off)
                    if lanebits:
                        a = (wi >> off) & _SM
                        if a < len(mem):
                            old = mem[a]
                            nv = (old & ~lanebits) | (val & lanebits)
                            if old != nv:
                                mem[a] = nv
                                GC[0] = VER[i] = GC[0] + 1
                                ch = True
                continue
            old = V[i]
            nv = (old & (wm ^ _F)) | (val & wm)
            if FB[i]:
                nv = (nv | FO[i]) & FN[i]
            if old != nv:
                V[i] = nv
                GC[0] = VER[i] = GC[0] + 1
                ch = True
        return ch

    # every underscored local is a kernel global
    return MappingProxyType(
        {name: value for name, value in locals().items() if name.startswith("_")}
    )
