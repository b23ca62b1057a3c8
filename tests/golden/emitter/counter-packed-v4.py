# repro packed codegen kernel v4
# design: counter
# lanes=4 stride=33
_W = 4
_S = 33
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


def _eqz(x):
    return ((((x + _NZC) >> _SP) & _R1) ^ _R1)


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

_K0 = _repl(15)
_K1 = _repl(4294967295)

def _bn0(V, M, FB, FO, FN, upd, p):
    n = []
    _t1 = V[1]
    _t2 = _t1 & p
    if _t2:
        _t3 = ((_t2 << 4) - _t2)
        n.append((5, _t3, None, (0) & _K0))
    _t4 = (_t1 ^ _R1) & p
    if _t4:
        _t5 = V[3]
        _t6 = _t5 & _t4
        if _t6:
            _t7 = ((_t6 << 4) - _t6)
            n.append((5, _t7, None, (V[4]) & _K0))
        _t8 = (_t5 ^ _R1) & _t4
        if _t8:
            _t9 = V[2]
            _t10 = _t9 & _t8
            if _t10:
                _t11 = ((_t10 << 4) - _t10)
                n.append((5, _t11, None, (V[7]) & _K0))
    upd.extend(n)

def comb_once(V, M, FB, FO, FN, VER, LS, GC):
    _ls = LS[0]
    if VER[5] > _ls:
        LS[0] = GC[0]
        _x = (((V[5] + _R1) & _K1)) & _K0
        if FB[7]: _x = (_x | FO[7]) & FN[7]
        if V[7] != _x:
            V[7] = _x; GC[0] = VER[7] = GC[0] + 1
    _ls = LS[1]
    if VER[5] > _ls:
        LS[1] = GC[0]
        _x = ((((((V[5] ^ _K0) + _NZC) >> _SP) & _R1) ^ _R1)) & _R1
        if FB[8]: _x = (_x | FO[8]) & FN[8]
        if V[8] != _x:
            V[8] = _x; GC[0] = VER[8] = GC[0] + 1
    _ls = LS[2]
    if VER[2] > _ls or VER[8] > _ls:
        LS[2] = GC[0]
        _x = ((V[8] & V[2])) & _R1
        if FB[6]: _x = (_x | FO[6]) & FN[6]
        if V[6] != _x:
            V[6] = _x; GC[0] = VER[6] = GC[0] + 1
    return False

def fire_clocked(V, M, EP, FB, FO, FN, VER, GC):
    _a0 = ((EP[0] ^ _R1) & V[0] & _R1)
    EP[0] = V[0]
    if not (_a0):
        return False
    upd = []
    if _a0: _bn0(V, M, FB, FO, FN, upd, _a0)
    _publish(upd, V, M, FB, FO, FN, VER, GC)
    return True

