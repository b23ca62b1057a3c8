"""Runtime helpers of the vector (NumPy) kernels.

A vector kernel holds each ``w``-bit signal as a ``(planes, lanes)`` uint64
array, lane 0 the good machine (see ``docs/internals-packing.md``).  The
emitted code calls these helpers by bare name after one star import, so only
a vector kernel imports this module, and NumPy with it.

Cached kernels import this module as it is installed: an edit here needs a
``VECTOR_VERSION`` bump (``tests/test_kernel_digests.py`` pins the file).
"""

import numpy as np

_T = np.uint64
_T0 = _T(0)
_T1 = _T(1)
_TF = _T(0xFFFFFFFFFFFFFFFF)
_IX = np.intp


def _a2(v):
    # normalize a value (int literal / 1-D / 2-D array) to a (planes, n) array
    a = np.asarray(v, _T)
    if a.ndim == 0:
        return a.reshape(1, 1)
    if a.ndim == 1:
        return a.reshape(1, -1)
    return a


def _pb(p):
    # normalize a lane predicate (bool (1, n) array or np.bool_ scalar) to 1-D
    return np.asarray(p).reshape(1, -1)[0]


def _kc(v, planes):
    # bit-slice an arbitrary-precision constant into a (planes, 1) plane column
    return np.array(
        [[(v >> (64 * k)) & 0xFFFFFFFFFFFFFFFF] for k in range(planes)], _T
    )


_LC = {}


def _ln(n):
    a = _LC.get(n)
    if a is None:
        a = np.arange(n, dtype=_IX)
        _LC[n] = a
    return a


def _xp(x, planes):
    # zero-extend a value to ``planes`` planes (no-op when already wide enough)
    x = _a2(x)
    if x.shape[0] >= planes:
        return x
    out = np.zeros((planes, x.shape[1]), _T)
    out[: x.shape[0]] = x
    return out


def _mtp(x, m):
    # truncate: copy, then mask the top plane
    r = _a2(x).copy()
    r[-1] = r[-1] & _T(m)
    return r


def _bf(x, v):
    # broadcast a constant store over the lane shape of an existing value
    return np.broadcast_to(np.asarray(v, _T), x.shape)


def _vst(V, i, x):
    # change-tracked value store (values are never mutated in place); the
    # broadcast normalization only fires for literal / (P, 1) stores — lane
    # expressions already carry the full shape, and np.broadcast_to is a
    # (surprisingly costly) Python-level call on the hot node path
    old = V[i]
    if type(x) is not np.ndarray or x.shape != old.shape:
        x = np.broadcast_to(np.asarray(x, _T), old.shape)
    if np.array_equal(old, x):
        return False
    V[i] = x
    return True


def _vsn(V, i, x):
    old = V[i]
    if type(x) is not np.ndarray or x.shape != old.shape:
        x = np.broadcast_to(np.asarray(x, _T), old.shape)
    V[i] = x


def _okx(ix, bound):
    # (plane-0 index, lane-wise in-range flag) of a possibly multi-plane index
    ix = _a2(ix)
    i = ix[0]
    ok = i < bound
    for k in range(1, ix.shape[0]):
        ok = ok & (ix[k] == 0)
    return i, ok


def _mrd(mem, ix):
    # memory read: out-of-range lanes read 0; the result must NOT alias the
    # backing rows (memories are the one structure mutated in place)
    d, L = mem.shape
    i, ok = _okx(ix, d)
    if i.shape[0] == 1:
        if ok[0]:
            return mem[int(i[0])][None, :].copy()
        return np.zeros((1, L), _T)
    safe = np.where(ok, i, _T0).astype(_IX)
    return np.where(ok, mem[safe, _ln(L)], _T0)[None, :]


def _mst(mem, fresh, ix, v, p):
    # blocking memory write through a copy-on-first-write overlay: ``fresh``
    # means ``mem`` is still the committed array and must not be touched
    d, L = mem.shape
    i, ok = _okx(ix, d)
    i = np.broadcast_to(i, (L,))
    ok = np.broadcast_to(ok, (L,))
    if p is not None:
        ok = ok & np.broadcast_to(_pb(p), (L,))
    if not ok.any():
        return None if fresh else mem
    out = mem.copy() if fresh else mem
    vv = np.broadcast_to(_a2(v)[0], (L,))
    out[i[ok].astype(_IX), _ln(L)[ok]] = vv[ok]
    return out


def _bix(x, ix, width, lsb):
    # dynamic bit select: out-of-range lanes read 0
    x = _a2(x)
    ixa = _a2(ix)
    j = (ixa[0] - _T(lsb)) if lsb else ixa[0]
    ok = j < width
    for k in range(1, ixa.shape[0]):
        ok = ok & (ixa[k] == 0)
    n = max(x.shape[1], j.shape[0])
    jb = np.broadcast_to(j, (n,))
    okb = np.broadcast_to(ok, (n,))
    js = np.where(okb, jb, _T0)
    if x.shape[0] == 1:
        v = (np.broadcast_to(x[0], (n,)) >> js) & _T1
    else:
        q = (js >> _T(6)).astype(_IX)
        r = js & _T(63)
        xb = np.broadcast_to(x, (x.shape[0], n))
        v = (xb[q, _ln(n)] >> r) & _T1
    return np.where(okb, v, _T0)[None, :]


def _bst(x, ix, v, width, lsb, p):
    # blocking dynamic bit write (out-of-range lanes keep their value)
    x = _a2(x)
    ixa = _a2(ix)
    j = (ixa[0] - _T(lsb)) if lsb else ixa[0]
    ok = j < width
    for k in range(1, ixa.shape[0]):
        ok = ok & (ixa[k] == 0)
    va = _a2(v)[0]
    n = max(x.shape[1], j.shape[0], va.shape[0])
    if p is not None:
        pv = _pb(p)
        n = max(n, pv.shape[0])
        ok = np.broadcast_to(ok, (n,)) & np.broadcast_to(pv, (n,))
    else:
        ok = np.broadcast_to(ok, (n,))
    out = np.broadcast_to(x, (x.shape[0], n)).copy()
    if not ok.any():
        return out
    js = np.where(ok, np.broadcast_to(j, (n,)), _T0)
    vs = np.where(ok, np.broadcast_to(va, (n,)) & _T1, _T0)
    if out.shape[0] == 1:
        bit = np.where(ok, _T1 << js, _T0)
        out[0] = (out[0] & ~bit) | (vs << js)
    else:
        for k in range(out.shape[0]):
            sel = ok & ((js >> _T(6)) == k)
            if not sel.any():
                continue
            r = js & _T(63)
            bit = np.where(sel, _T1 << r, _T0)
            out[k] = (out[k] & ~bit) | np.where(sel, vs << r, _T0)
    return out


def _bnb(ix, v, width, lsb, p, planes):
    # non-blocking dynamic bit write -> (write_mask, value_in_place) arrays;
    # out-of-range lanes get a zero write mask (the write never lands)
    ixa = _a2(ix)
    j = (ixa[0] - _T(lsb)) if lsb else ixa[0]
    ok = j < width
    for k in range(1, ixa.shape[0]):
        ok = ok & (ixa[k] == 0)
    va = _a2(v)[0]
    n = max(j.shape[0], va.shape[0])
    if p is not None:
        pv = _pb(p)
        n = max(n, pv.shape[0])
        ok = np.broadcast_to(ok, (n,)) & np.broadcast_to(pv, (n,))
    else:
        ok = np.broadcast_to(ok, (n,))
    wm = np.zeros((planes, n), _T)
    vip = np.zeros((planes, n), _T)
    if not ok.any():
        return wm, vip
    js = np.where(ok, np.broadcast_to(j, (n,)), _T0)
    vs = np.where(ok, np.broadcast_to(va, (n,)) & _T1, _T0)
    if planes == 1:
        wm[0] = np.where(ok, _T1 << js, _T0)
        vip[0] = vs << js
    else:
        for k in range(planes):
            sel = ok & ((js >> _T(6)) == k)
            if not sel.any():
                continue
            r = js & _T(63)
            wm[k] = np.where(sel, _T1 << r, _T0)
            vip[k] = np.where(sel, vs << r, _T0)
    return wm, vip


def _add(a, b, m, c0=0):
    # multi-plane ripple add over 64-bit limbs, top plane masked to ``m``
    a = _a2(a)
    b = _a2(b)
    n = max(a.shape[1], b.shape[1])
    out = np.empty((a.shape[0], n), _T)
    carry = np.full((n,), c0, _T)
    for k in range(a.shape[0]):
        ak = np.broadcast_to(a[k], (n,))
        bk = np.broadcast_to(b[k], (n,))
        s = ak + bk
        c1 = s < ak
        s = s + carry
        c2 = s < carry
        out[k] = s
        carry = (c1 | c2).astype(_T)
    out[-1] = out[-1] & _T(m)
    return out


def _sub(a, b, m):
    # a - b == a + ~b + 1 (mod 2**(64*planes)), then top-plane truncation
    return _add(a, _a2(b) ^ _TF, m, 1)


def _lt(a, b):
    # lexicographic unsigned compare from the top plane down -> uint64 0/1
    a = _a2(a)
    b = _a2(b)
    n = max(a.shape[1], b.shape[1])
    lt = np.zeros((n,), bool)
    done = np.zeros((n,), bool)
    for k in range(a.shape[0] - 1, -1, -1):
        ak = np.broadcast_to(a[k], (n,))
        bk = np.broadcast_to(b[k], (n,))
        lt = np.where(~done & (ak < bk), True, lt)
        done = done | (ak != bk)
    return lt.astype(_T)[None, :]


def _inv(x, m):
    r = _a2(x) ^ _TF
    r[-1] = r[-1] & _T(m)
    return r


def _par(x):
    # parity: fold the planes together, then fold 64 bits down to 1
    x = _a2(x)
    t = x[0]
    for k in range(1, x.shape[0]):
        t = t ^ x[k]
    for s in (32, 16, 8, 4, 2, 1):
        t = t ^ (t >> _T(s))
    return (t & _T1)[None, :]


def _dv(a, b, m):
    # Verilog x/0 == all-ones
    av = _a2(a)[0:1]
    bv = _a2(b)[0:1]
    bz = bv == 0
    return np.where(bz, _T(m), av // np.where(bz, _T1, bv))


def _md(a, b):
    # Verilog x%0 == 0
    av = _a2(a)[0:1]
    bv = _a2(b)[0:1]
    bz = bv == 0
    return np.where(bz, _T0, av % np.where(bz, _T1, bv))


def _sv(b):
    # (plane-0 shift amount, high-planes-zero flag or None) of a shift rhs
    b = _a2(b)
    hz = None
    for k in range(1, b.shape[0]):
        z = b[k : k + 1] == 0
        hz = z if hz is None else hz & z
    return b[0:1], hz


def _shl(a, b, w, m):
    av = _a2(a)[0:1]
    s, hz = _sv(b)
    ok = s < w
    if hz is not None:
        ok = ok & hz
    ss = np.where(ok, s, _T0)
    return np.where(ok, (av << ss) & _T(m), _T0)


def _shr(a, b, w):
    av = _a2(a)[0:1]
    s, hz = _sv(b)
    ok = s < w
    if hz is not None:
        ok = ok & hz
    ss = np.where(ok, s, _T0)
    return np.where(ok, av >> ss, _T0)


def _sra(a, b, w):
    # arithmetic shift right, shift clamped to ``w`` (full shift -> sign fill)
    av = _a2(a)[0:1]
    s, hz = _sv(b)
    full = ~(s < w)
    if hz is not None:
        full = full | ~hz
    m = _T((1 << w) - 1)
    sign = (av >> _T(w - 1)) & _T1
    ss = np.where(full, _T0, s)
    part = (av >> ss) | (sign * (m ^ (m >> ss)))
    return np.where(full, sign * m, part)


def _toi(x, n):
    # plane columns -> per-lane Python bigints
    x = _a2(x)
    xb = np.broadcast_to(x, (x.shape[0], n))
    cols = [0] * n
    for k in range(x.shape[0] - 1, -1, -1):
        row = xb[k].tolist()
        cols = [(c << 64) | v for c, v in zip(cols, row)]
    return cols


def _plf(op, a, b, w, planes):
    # per-lane bigint fallback for the genuinely serial multi-plane operators
    a = _a2(a)
    b = _a2(b)
    n = max(a.shape[1], b.shape[1])
    av = _toi(a, n)
    bv = _toi(b, n)
    m = (1 << w) - 1
    res = []
    for x, y in zip(av, bv):
        if op == "mul":
            r = (x * y) & m
        elif op == "div":
            r = ((x // y) & m) if y else m
        elif op == "mod":
            r = (x % y) if y else 0
        elif op == "shl":
            r = ((x << y) & m) if y < w else 0
        elif op == "shr":
            r = (x >> y) if y < w else 0
        else:  # sra
            if x & (1 << (w - 1)):
                x -= 1 << w
            r = (x >> min(y, w)) & m
        res.append(r)
    out = np.empty((planes, n), _T)
    for k in range(planes):
        out[k] = [(r >> (64 * k)) & 0xFFFFFFFFFFFFFFFF for r in res]
    return out


def _sl(x, lsb, w):
    # constant slice [lsb +: w] of a multi-plane value
    x = _a2(x)
    planes = (w + 63) >> 6
    q, r = lsb >> 6, lsb & 63
    out = np.zeros((planes, x.shape[1]), _T)
    xs = x.shape[0]
    for k in range(planes):
        j = q + k
        if j < xs:
            v = (x[j] >> _T(r)) if r else x[j]
            if r and j + 1 < xs:
                v = v | (x[j + 1] << _T(64 - r))
            out[k] = v
    t = w & 63
    if t:
        out[-1] = out[-1] & _T((1 << t) - 1)
    return out


def _shlc(x, c, w):
    # constant left shift into a ``w``-bit multi-plane result
    x = _a2(x)
    planes = (w + 63) >> 6
    q, r = c >> 6, c & 63
    out = np.zeros((planes, x.shape[1]), _T)
    xs = x.shape[0]
    for k in range(planes):
        j = k - q
        if 0 <= j < xs:
            out[k] = (x[j] << _T(r)) if r else x[j]
        if r and 0 <= j - 1 < xs:
            out[k] = out[k] | (x[j - 1] >> _T(64 - r))
    t = w & 63
    if t:
        out[-1] = out[-1] & _T((1 << t) - 1)
    return out


def _cat(parts, w):
    # concat of (value, width) parts, first part highest (values pre-truncated)
    planes = (w + 63) >> 6
    shift = w
    acc = None
    for v, pw in parts:
        shift -= pw
        ve = _xp(v, planes)
        sh = _shlc(ve, shift, w) if shift else ve
        acc = sh if acc is None else acc | sh
    return acc


_KM = {}


def _ins(base, v, lsb, w, sw):
    # constant slice insert: keep-mask blend plus a shifted-in value
    planes = (sw + 63) >> 6
    key = (lsb, w, sw)
    keep = _KM.get(key)
    if keep is None:
        kv = ((1 << sw) - 1) & ~(((1 << w) - 1) << lsb)
        keep = _kc(kv, planes)
        _KM[key] = keep
    return (_a2(base) & keep) | _shlc(_xp(v, planes), lsb, sw)


def _msc(mem, p, ix, v):
    # non-blocking memory scatter (one element per lane; no collisions)
    d, L = mem.shape
    i, ok = _okx(ix, d)
    i = np.broadcast_to(i, (L,))
    ok = np.broadcast_to(ok, (L,))
    if p is not None:
        ok = ok & np.broadcast_to(_pb(p), (L,))
    if not ok.any():
        return False
    a = i[ok].astype(_IX)
    l = _ln(L)[ok]
    nv = np.broadcast_to(_a2(v)[0], (L,))[ok]
    old = mem[a, l]
    diff = old != nv
    if not diff.any():
        return False
    mem[a[diff], l[diff]] = nv[diff]
    return True


def _publish(upd, V, M, FB, FO, FN, VER, GC):
    # the NBA region: (sid, write_mask, word_index, value_in_place) tuples.
    # write_mask None -> full replace; bool array -> lane blend; uint64 ->
    # bit blend.  word_index True commits a whole-memory overlay.  Every
    # commit that changes a value stamps the scheduler's VER.
    ch = False
    for i, wm, wi, val in upd:
        if wi is not None:
            if wi is True:
                mem = M[i]
                if not np.array_equal(mem, val):
                    np.copyto(mem, val)
                    GC[0] = VER[i] = GC[0] + 1
                    ch = True
            elif _msc(M[i], wm, wi, val):
                GC[0] = VER[i] = GC[0] + 1
                ch = True
            continue
        old = V[i]
        if wm is None:
            nv = val
        elif np.asarray(wm).dtype.kind == "b":
            nv = np.where(wm, val, old)
        else:
            nv = old ^ ((old ^ val) & wm)
        if FB[i]:
            nv = (nv | FO[i]) & FN[i]
        if type(nv) is not np.ndarray or nv.shape != old.shape:
            nv = np.broadcast_to(np.asarray(nv, _T), old.shape)
        if not np.array_equal(old, nv):
            V[i] = nv
            GC[0] = VER[i] = GC[0] + 1
            ch = True
    return ch


#: What a kernel's star import binds: every helper, dtype constant and cache.
__all__ = sorted(name for name in dir() if name.startswith("_") and not name.startswith("__"))
