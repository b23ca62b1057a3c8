# repro vector codegen kernel v4
# design: counter
# lane layout: fault-major columns of uint64 plane arrays;
# the lane count is a runtime property of the value arrays,
# so one cached module serves every campaign width
import numpy as np

from repro.sim.vector_runtime import *

def _bn0(V, M, FB, FO, FN, upd, p):
    n = []
    _t1 = (V[1] != 0)
    _t2 = _t1 & p
    if _t2.any():
        n.append((5, _t2, None, 0))
    _t3 = ~_t1 & p
    if _t3.any():
        _t4 = (V[3] != 0)
        _t5 = _t4 & _t3
        if _t5.any():
            n.append((5, _t5, None, V[4]))
        _t6 = ~_t4 & _t3
        if _t6.any():
            _t7 = (V[2] != 0)
            _t8 = _t7 & _t6
            if _t8.any():
                n.append((5, _t8, None, V[7]))
    upd.extend(n)

def comb_once(V, M, FB, FO, FN, VER, LS, GC):
    _ls = LS[0]
    if VER[5] > _ls:
        LS[0] = GC[0]
        _x = ((((V[5] + 1) & 4294967295)) & 15)
        if FB[7]: _x = (_x | FO[7]) & FN[7]
        V[7] = _x
        GC[0] = VER[7] = GC[0] + 1
    _ls = LS[1]
    if VER[5] > _ls:
        LS[1] = GC[0]
        _x = ((V[5] == 15).astype(_T))
        if FB[8]: _x = (_x | FO[8]) & FN[8]
        V[8] = _x
        GC[0] = VER[8] = GC[0] + 1
    _ls = LS[2]
    if VER[2] > _ls or VER[8] > _ls:
        LS[2] = GC[0]
        _x = (V[8] & V[2])
        if FB[6]: _x = (_x | FO[6]) & FN[6]
        V[6] = _x
        GC[0] = VER[6] = GC[0] + 1
    return False

def fire_clocked(V, M, EP, FB, FO, FN, VER, GC):
    _a0 = (((EP[0][:1] & _T1) == 0) & ((V[0][:1] & _T1) == 1))
    EP[0] = V[0]
    if not (_a0).any():
        return False
    upd = []
    if _a0.any(): _bn0(V, M, FB, FO, FN, upd, _a0)
    _publish(upd, V, M, FB, FO, FN, VER, GC)
    return True

