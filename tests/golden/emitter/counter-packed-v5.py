# repro packed codegen kernel v5
# design: counter
# lanes=4 stride=33
from repro.sim.packed_runtime import packed_runtime; globals().update(packed_runtime(4, 33))

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

