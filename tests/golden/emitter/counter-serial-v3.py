# repro codegen kernel v3
# design: counter
# signals=9 rtl=3 behavioral=1

def _publish(upd, V, M, FA, FO, FN, VER, GC):
    ch = False
    for i, a, b, wi, val in upd:
        if wi is not None:
            mem = M[i]
            if 0 <= wi < len(mem):
                if mem[wi] != val:
                    mem[wi] = val; GC[0] = VER[i] = GC[0] + 1; ch = True
            continue
        old = V[i]
        if a is not None:
            val = (old & ~(((1 << (a - b + 1)) - 1) << b)) | (val << b)
        if FA: val = (val | FO[i]) & FN[i]
        if old != val:
            V[i] = val; GC[0] = VER[i] = GC[0] + 1; ch = True
    return ch

def _bn0(V, M, FA, FO, FN, upd):
    n = []
    if V[1]:
        n.append((5, None, None, None, (0) & 15))
    else:
        if V[3]:
            n.append((5, None, None, None, (V[4]) & 15))
        else:
            if V[2]:
                n.append((5, None, None, None, (V[7]) & 15))
    upd.extend(n)

def comb_once(V, M, FA, FO, FN, VER, LS, GC):
    _ls = LS[0]
    if VER[5] > _ls:
        LS[0] = GC[0]
        _x = (((V[5] + 1) & 4294967295)) & 15
        if FA: _x = (_x | FO[7]) & FN[7]
        if V[7] != _x:
            V[7] = _x; GC[0] = VER[7] = GC[0] + 1
    _ls = LS[1]
    if VER[5] > _ls:
        LS[1] = GC[0]
        _x = ((1 if V[5] == 15 else 0)) & 1
        if FA: _x = (_x | FO[8]) & FN[8]
        if V[8] != _x:
            V[8] = _x; GC[0] = VER[8] = GC[0] + 1
    _ls = LS[2]
    if VER[2] > _ls or VER[8] > _ls:
        LS[2] = GC[0]
        _x = ((V[8] & V[2])) & 1
        if FA: _x = (_x | FO[6]) & FN[6]
        if V[6] != _x:
            V[6] = _x; GC[0] = VER[6] = GC[0] + 1
    return False

def fire_clocked(V, M, EP, FA, FO, FN, VER, GC):
    _a0 = ((EP[0] & 1) == 0 and (V[0] & 1) == 1)
    EP[0] = V[0]
    if not (_a0):
        return False
    upd = []
    if _a0: _bn0(V, M, FA, FO, FN, upd)
    _publish(upd, V, M, FA, FO, FN, VER, GC)
    return True

