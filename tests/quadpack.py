"""QUADPACK's QAGS (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner
1983) on many integrals over one interval at once, in numpy: the
quadrature behind `weights_oracle.mellin_qags`, which generates the
package's table of W_NONSPLIT's Mellin transform and checks it bit for bit.

`qags` is `dqagse` with its 21-point Gauss-Kronrod rule `dqk21`, its
error-list sort `dqpsrt` and its epsilon algorithm `dqelg`, at the
settings of `scipy.integrate.quad` (epsabs = epsrel = 1.49e-8, limit
200).  Every problem of a call runs the Fortran's control flow as its own
row: at each step each unfinished row bisects one interval, and a branch
of the Fortran is a mask over the rows.  Rows go in blocks of `_BLOCK`,
and a block's interval lists grow only as far as its rows subdivide, so
the memory of a call is bounded whatever the number of problems.

The floats are QUADPACK's, bit for bit, by two rules.  Every sum is
accumulated term by term in the Fortran's order (a column at a time or
`np.add.accumulate`, never `np.sum`, whose pairwise order rounds
differently).  The power (200 abserr / resasc)^1.5 of `dqk21` is Python's
`**`, which is C's `pow`; `np.power` differs from it in the last bit."""

from __future__ import annotations

import sys

import numpy as np

EPSABS = EPSREL = 1.49e-8  # scipy.integrate.quad's defaults
LIMIT = 200  # subintervals at most, scipy's `limit=200`
_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMEXP = 50  # epsilon table length of dqelg
# rows per block; 2048 held a nonsplit run 4-5 MB higher at the same speed, when
# the package still integrated with this port
_BLOCK = 1024
_COLS = 32  # interval-list columns a block starts with; doubled as needed

# dqk21: Kronrod abscissae (xgk[1], xgk[3], ... are the 10-point Gauss
# abscissae), Kronrod weights and Gauss weights, as QUADPACK lists them
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208977890040,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
])
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def kronrod_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 21 nodes dqk21 evaluates on each interval (lo, hi), one row
    each: the centre, then centre - hlgth xgk[j] for j = 0..9, then
    centre + hlgth xgk[j]."""
    centr = (0.5 * (lo + hi))[:, None]
    absc = (0.5 * (hi - lo))[:, None] * _XGK
    return np.concatenate([centr, centr - absc, centr + absc], axis=1)


def _qk21(f, rows, lo, hi):
    """dqk21 on the intervals (lo, hi) of the problems rows: (result,
    abserr, resabs, resasc), each a row array."""
    fc, fv1, fv2 = np.split(np.ascontiguousarray(f(rows, lo, hi).T), [1, 11])
    fc = fc[0]
    hlgth = 0.5 * (hi - lo)
    dhlgth = np.abs(hlgth)
    fsum = fv1 + fv2
    wsum = _WGK[:, None] * fsum
    wabs = _WGK[:, None] * (np.abs(fv1) + np.abs(fv2))
    resg = np.zeros(len(rows))
    resk = _WGK_CENTRE * fc
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9):  # the Gauss nodes, then the rest
        resg = resg + _WG[j // 2] * fsum[j]
        resk = resk + wsum[j]
        resabs = resabs + wabs[j]
    for j in (0, 2, 4, 6, 8):
        resk = resk + wsum[j]
        resabs = resabs + wabs[j]
    reskh = resk * 0.5
    dev = _WGK[:, None] * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh))
    resasc = _WGK_CENTRE * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + dev[j]
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    if scaled.any():
        ratio = (200.0 * abserr[scaled] / resasc[scaled]).tolist()
        power = np.array([r**1.5 for r in ratio])  # C pow, not np.power
        abserr[scaled] = resasc[scaled] * np.minimum(1.0, power)
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[floor] = np.maximum((_EPMACH * 50.0) * resabs[floor], abserr[floor])
    return result, abserr, resabs, resasc


class _Rows:
    """The dqagse variables of the unfinished problems of one block, one
    array entry (or one row of a list array) per problem."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def take(self, keep: np.ndarray) -> None:
        for name, value in vars(self).items():
            setattr(self, name, value[keep])

    def widen(self, cols: int) -> None:
        for name in ("alist", "blist", "rlist", "elist", "iord"):
            old = getattr(self, name)
            setattr(self, name, np.pad(old, ((0, 0), (0, cols - old.shape[1]))))


def _qpsrt(S: _Rows, last: int) -> None:
    """dqpsrt for every row: insert the two newest error estimates into
    the descending list iord, then point maxerr at the nrmax-th largest."""
    i = np.arange(len(S.maxerr))
    if last <= 2:
        S.iord[:, 1], S.iord[:, 2] = 1, 2
    else:
        errmax = S.elist[i, S.maxerr]
        # a bisection that raised the error moves maxerr up past smaller ones
        up = S.nrmax > 1
        while up.any():
            j = np.flatnonzero(up)
            isucc = S.iord[j, S.nrmax[j] - 1]
            move = ~(errmax[j] <= S.elist[j, isucc])
            j, isucc = j[move], isucc[move]
            S.iord[j, S.nrmax[j]] = isucc
            S.nrmax[j] -= 1
            up[:] = False
            up[j] = S.nrmax[j] > 1
        jupbn = last if last <= LIMIT // 2 + 2 else LIMIT + 3 - last
        jbnd = jupbn - 1
        errmin = S.elist[:, last]
        nrmax = S.nrmax[:, None]
        pos = np.arange(1, jupbn + 1)
        old = S.iord[:, 1 : jupbn + 1]
        err = S.elist[i[:, None], old]
        # top-down: errmax goes to the first place p >= nrmax + 1 whose
        # error it reaches, the list above it moving up one
        hit = (pos > nrmax) & (pos <= jbnd) & (errmax[:, None] >= err)
        istar = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, jbnd + 1)
        # bottom-up: errmin goes below the last place from istar on whose
        # error exceeds it, the list below moving down one
        hit = (pos >= istar[:, None]) & (pos <= jbnd) & (errmin[:, None] < err)
        kstar = np.where(hit.any(axis=1), jupbn - hit[:, ::-1].argmax(axis=1), istar - 1)
        up = (pos >= nrmax) & (pos <= istar[:, None] - 2)
        down = pos >= kstar[:, None] + 2
        new = np.take_along_axis(old, pos - 1 + up.astype(np.int64) - down, axis=1)
        new[i, istar - 2] = S.maxerr  # at place istar - 1
        new[i, kstar] = last  # at place kstar + 1
        S.iord[:, 1 : jupbn + 1] = new
    S.maxerr = S.iord[i, S.nrmax]
    S.errmax = S.elist[i, S.maxerr]


def _qelg(S: _Rows, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dqelg on the rows g: the epsilon algorithm's next extrapolation of
    the sequence rlist2[1..numrl2] with its error estimate, updating the
    table, numrl2, res3la and nres as the Fortran does."""
    j = np.arange(len(g))
    n = S.numrl2[g]
    tab = S.rlist2[g]
    res3la = S.res3la[g]
    nres = S.nres[g] + 1
    abserr = np.full(len(g), _OFLOW)
    result = tab[j, n]
    run = n >= 3
    extr = np.flatnonzero(run)
    tab[extr, n[extr] + 2] = tab[extr, n[extr]]
    newelm = (n - 1) // 2
    tab[extr, n[extr]] = _OFLOW
    num = n.copy()
    k1 = n.copy()
    converged = np.zeros(len(g), dtype=bool)
    live = run.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, int(newelm.max(initial=0)) + 1):
            r = np.flatnonzero(live & (it <= newelm))
            if r.size == 0:
                break
            k = k1[r]
            res = tab[r, k + 2]
            e0, e1, e2 = tab[r, k - 2], tab[r, k - 1], res
            e1abs = np.abs(e1)
            delta2 = e2 - e1
            err2 = np.abs(delta2)
            tol2 = np.maximum(np.abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = np.abs(delta3)
            tol3 = np.maximum(e1abs, np.abs(e0)) * _EPMACH
            # e0, e1 and e2 equal to machine accuracy: convergence
            conv = ~((err2 > tol2) | (err3 > tol3))
            c = r[conv]
            result[c] = res[conv]
            abserr[c] = err2[conv] + err3[conv]
            converged[c] = True
            live[c] = False
            go = ~conv
            e3 = tab[r, k]
            tab[r[go], k[go]] = e1[go]
            delta1 = e1 - e3
            err1 = np.abs(delta1)
            tol1 = np.maximum(e1abs, np.abs(e3)) * _EPMACH
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = np.abs(ss * e1)
            # two close elements or an irregular table: cut it at 2 it - 1
            cut = go & ((err1 <= tol1) | (err2 <= tol2) | (err3 <= tol3) | ~(epsinf > 1e-4))
            n[r[cut]] = 2 * it - 1
            live[r[cut]] = False
            new = go & ~cut
            rn, kn = r[new], k[new]
            res = e1[new] + 1.0 / ss[new]
            tab[rn, kn] = res
            k1[rn] -= 2
            error = err2[new] + np.abs(res - e2[new]) + err3[new]
            better = ~(error > abserr[rn])
            abserr[rn[better]] = error[better]
            result[rn[better]] = res[better]
    shift = run & ~converged
    n[shift & (n == _LIMEXP)] = 2 * (_LIMEXP // 2) - 1
    s = np.flatnonzero(shift)
    pos = np.arange(tab.shape[1] - 2)
    ib = np.where(num[s] % 2 == 0, 2, 1)[:, None]
    ie = newelm[s, None] + 1
    moved = (pos >= ib) & ((pos - ib) % 2 == 0) & (pos < ib + 2 * ie)
    head = tab[s, :-2]
    head = np.where(moved, tab[s, 2:], head)
    drop = (num[s] - n[s])[:, None]
    idx = np.where((pos >= 1) & (pos <= n[s, None]), pos + drop, pos)
    tab[s, :-2] = np.take_along_axis(head, idx, axis=1)
    early = s[nres[s] < 4]
    res3la[early, nres[early]] = result[early]
    abserr[early] = _OFLOW
    late = s[nres[s] >= 4]
    rl = result[late]
    abserr[late] = (
        np.abs(rl - res3la[late, 3]) + np.abs(rl - res3la[late, 2]) + np.abs(rl - res3la[late, 1])
    )
    res3la[late, 1:3] = res3la[late, 2:4]
    res3la[late, 3] = rl
    abserr = np.maximum(abserr, (5.0 * _EPMACH) * np.abs(result))
    S.numrl2[g], S.rlist2[g], S.res3la[g], S.nres[g] = n, tab, res3la, nres
    return result, abserr


def _store(out, r: np.ndarray, result, abserr, ier, last: int) -> None:
    """Enter the outputs of the problems r, which ended at subinterval last."""
    out[0][r], out[1][r], out[2][r], out[3][r] = result, abserr, ier, last
    out[4][r] = 42 * last - 21  # neval: 21 per dqk21 call


def _finish(S: _Rows, done: np.ndarray, label: np.ndarray, last: int, out, rows) -> None:
    """dqagse's labels 100 to 140 for the rows done, leaving by label 100
    or 115 of the Fortran."""
    d = np.flatnonzero(done)
    result, abserr, ier = S.result[d], S.abserr[d], S.ier[d]
    area, errsum = S.area[d], S.errsum[d]
    ierro, ksgn, defabs = S.ierro[d], S.ksgn[d], S.defabs[d]
    total = label[d] == 115
    at100 = ~total
    total |= at100 & (abserr == _OFLOW)
    at100 &= ~total
    to110 = at100 & (ier + ierro == 0)
    flagged = at100 & ~to110
    abserr = np.where(flagged & (ierro == 3), abserr + S.correc[d], abserr)
    ier = np.where(flagged & (ier == 0), 3, ier)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        both = flagged & (result != 0.0) & (area != 0.0)
        worse = abserr / np.abs(result) > errsum / np.abs(area)
        total |= both & worse
        to110 |= both & ~worse
        rest = flagged & ~both
        total |= rest & (abserr > errsum)
        to110 |= rest & ~(abserr > errsum) & (area != 0.0)
        # label 110: the test on divergence
        small = (ksgn == -1) & (np.maximum(np.abs(result), np.abs(area)) <= defabs * 0.01)
        ratio = result / area
        diverges = (0.01 > ratio) | (ratio > 100.0) | (errsum > np.abs(area))
    ier = np.where(to110 & ~small & diverges, 6, ier)
    # label 115: the sum of the list, in list order
    listed = np.add.accumulate(S.rlist[d, 1 : last + 1], axis=1)[:, -1]
    result = np.where(total, listed, result)
    abserr = np.where(total, errsum, abserr)
    ier = np.where(ier > 2, ier - 1, ier)
    _store(out, rows[S.row[d]], result, abserr, ier, last)


def _qags_block(f, a: float, b: float, rows: np.ndarray, out) -> None:
    """dqagse for the problems rows, all over (a, b), in lockstep."""
    m = len(rows)
    result, abserr, defabs, resabs = _qk21(f, rows, np.full(m, a), np.full(m, b))
    dres = np.abs(result)
    errbnd = np.maximum(EPSABS, EPSREL * dres)
    ier = np.where((abserr <= (100.0 * _EPMACH) * defabs) & (abserr > errbnd), 2, 0)
    first = (ier != 0) | ((abserr <= errbnd) & (abserr != resabs)) | (abserr == 0.0)
    _store(out, rows[first], result[first], abserr[first], ier[first], 1)
    keep = ~first
    m = int(keep.sum())
    if m == 0:
        return
    zeros, ints = np.zeros(m), np.zeros(m, dtype=np.int64)
    S = _Rows(
        row=np.flatnonzero(keep),
        alist=np.zeros((m, _COLS)), blist=np.zeros((m, _COLS)),
        rlist=np.zeros((m, _COLS)), elist=np.zeros((m, _COLS)),
        iord=np.zeros((m, _COLS), dtype=np.int64),
        rlist2=np.zeros((m, _LIMEXP + 3)), res3la=np.zeros((m, 4)),
        result=result[keep], abserr=np.full(m, _OFLOW), defabs=defabs[keep],
        errmax=abserr[keep], maxerr=ints + 1, area=result[keep], errsum=abserr[keep],
        nrmax=ints + 1, nres=ints.copy(), numrl2=ints + 2, ktmin=ints.copy(),
        extrap=np.zeros(m, dtype=bool), noext=np.zeros(m, dtype=bool),
        iroff1=ints.copy(), iroff2=ints.copy(), iroff3=ints.copy(),
        ksgn=np.where(dres[keep] >= (1.0 - 50.0 * _EPMACH) * defabs[keep], 1, -1),
        ierro=ints.copy(), ier=ints.copy(),
        small=zeros.copy(), erlarg=zeros.copy(), ertest=zeros.copy(), correc=zeros.copy(),
    )
    S.alist[:, 1], S.blist[:, 1] = a, b
    S.rlist[:, 1], S.elist[:, 1], S.iord[:, 1] = result[keep], abserr[keep], 1
    S.rlist2[:, 1] = result[keep]
    for last in range(2, LIMIT + 1):
        if last >= S.alist.shape[1]:
            S.widen(min(2 * S.alist.shape[1], LIMIT + 1))
        i = np.arange(len(S.row))
        mx = S.maxerr
        a1, b2 = S.alist[i, mx], S.blist[i, mx]
        b1 = 0.5 * (a1 + b2)
        a2 = b1
        erlast = S.errmax
        both = np.concatenate([S.row, S.row])
        lo, hi = np.concatenate([a1, a2]), np.concatenate([b1, b2])
        area_, error_, _, defab_ = _qk21(f, rows[both], lo, hi)
        n = len(i)
        area1, area2 = area_[:n], area_[n:]
        error1, error2 = error_[:n], error_[n:]
        area12 = area1 + area2
        erro12 = error1 + error2
        S.errsum = S.errsum + erro12 - S.errmax
        rl = S.rlist[i, mx]
        S.area = S.area + area12 - rl
        counted = ~((defab_[:n] == error1) | (defab_[n:] == error2))
        moved = np.abs(rl - area12) > 1e-5 * np.abs(area12)
        stuck = counted & ~(moved | (erro12 < 0.99 * S.errmax))
        S.iroff2 += stuck & S.extrap
        S.iroff1 += stuck & ~S.extrap
        if last > 10:
            S.iroff3 += counted & (erro12 > S.errmax)
        errbnd = np.maximum(EPSABS, EPSREL * np.abs(S.area))
        S.ier[(S.iroff1 + S.iroff2 >= 10) | (S.iroff3 >= 20)] = 2
        S.ierro[S.iroff2 >= 5] = 3
        if last == LIMIT:
            S.ier[:] = 1
        # an interval too short to bisect: bad integrand behaviour
        tiny = (1.0 + 100.0 * _EPMACH) * (np.abs(a2) + 1000.0 * _UFLOW)
        S.ier[np.maximum(np.abs(a1), np.abs(b2)) <= tiny] = 4
        # the larger error keeps the slot maxerr, the smaller goes to last
        swap = error2 > error1
        S.alist[i, mx] = np.where(swap, a2, a1)
        S.blist[i, mx] = np.where(swap, b2, b1)
        S.alist[:, last] = np.where(swap, a1, a2)
        S.blist[:, last] = np.where(swap, b1, b2)
        S.rlist[i, mx] = np.where(swap, area2, area1)
        S.rlist[:, last] = np.where(swap, area1, area2)
        S.elist[i, mx] = np.where(swap, error2, error1)
        S.elist[:, last] = np.where(swap, error1, error2)
        _qpsrt(S, last)
        label = np.zeros(n, dtype=np.int64)
        label[S.errsum <= errbnd] = 115
        label[(label == 0) & (S.ier != 0)] = 100
        go = label == 0
        if last == 2:
            S.small[:] = abs(b - a) * 0.375
            S.erlarg = S.errsum.copy()
            S.ertest = errbnd
            S.rlist2[:, 2] = S.area
        else:
            go &= ~S.noext
            S.erlarg = np.where(go, S.erlarg - erlast, S.erlarg)
            S.erlarg = np.where(go & (np.abs(b1 - a1) > S.small), S.erlarg + erro12, S.erlarg)
            large = np.abs(S.blist[i, S.maxerr] - S.alist[i, S.maxerr]) > S.small
            start = go & ~S.extrap & ~large
            go &= S.extrap | ~large
            S.extrap |= start
            S.nrmax[start] = 2
            # the smallest interval has the largest error: unless erlarg is
            # already small, bisect the large intervals first
            jupbnd = last if last <= 2 + LIMIT // 2 else LIMIT + 3 - last
            search = go & ~((S.ierro == 3) | (S.erlarg <= S.ertest)) & (S.nrmax <= jupbnd)
            while search.any():
                s = np.flatnonzero(search)
                S.maxerr[s] = S.iord[s, S.nrmax[s]]
                S.errmax[s] = S.elist[s, S.maxerr[s]]
                wide = np.abs(S.blist[s, S.maxerr[s]] - S.alist[s, S.maxerr[s]]) > S.small[s]
                go[s[wide]] = False
                S.nrmax[s[~wide]] += 1
                search[s[wide]] = False
                search[s] &= S.nrmax[s] <= jupbnd
            g = np.flatnonzero(go)
            if g.size:
                S.numrl2[g] += 1
                S.rlist2[g, S.numrl2[g]] = S.area[g]
                reseps, abseps = _qelg(S, g)
                S.ktmin[g] += 1
                give_up = (S.ktmin[g] > 5) & (S.abserr[g] < 1e-3 * S.errsum[g])
                S.ier[g[give_up]] = 5
                gain = abseps < S.abserr[g]
                h = g[gain]
                S.ktmin[h] = 0
                S.abserr[h] = abseps[gain]
                S.result[h] = reseps[gain]
                S.correc[h] = S.erlarg[h]
                S.ertest[h] = np.maximum(EPSABS, EPSREL * np.abs(reseps[gain]))
                label[h[S.abserr[h] <= S.ertest[h]]] = 100
                g = g[label[g] == 0]
                S.noext[g[S.numrl2[g] == 1]] = True
                label[g[S.ier[g] == 5]] = 100
                g = g[label[g] == 0]
                S.maxerr[g] = S.iord[g, 1]
                S.errmax[g] = S.elist[g, S.maxerr[g]]
                S.nrmax[g] = 1
                S.extrap[g] = False
                S.small[g] *= 0.5
                S.erlarg[g] = S.errsum[g]
        done = label != 0
        if done.any():
            _finish(S, done, label, last, out, rows)
            S.take(~done)
            if len(S.row) == 0:
                return


def qags(f, a: float, b: float, n: int):
    """dqagse on n integrals over (a, b): (result, abserr, ier, last,
    neval), each an array over the problems 0..n-1, as
    `scipy.integrate.quad(..., limit=200, full_output=1)` gives them (ier
    is scipy's: 0 success, 1 limit, 2 roundoff, 3 bad integrand, 4 no
    convergence of the extrapolation, 5 divergence).

    f(rows, lo, hi) returns the integrands of the problems rows (an int
    array, repeats allowed) at the `kronrod_nodes` of the intervals
    (lo, hi), one row of 21 values per entry."""
    out = (np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64),
           np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    for start in range(0, n, _BLOCK):
        _qags_block(f, a, b, np.arange(start, min(n, start + _BLOCK)), out)
    return out
