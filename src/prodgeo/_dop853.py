"""DOP853: the explicit Runge-Kutta method of order 8 of Dormand and Prince,
with its 5th- and 3rd-order error estimators and 7th-order dense output.

Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
2nd ed., section II.10 (the method), section II.4 (the starting step) and
section II.5 (dense output); Dormand & Prince, J. Comput. Appl. Math. 6
(1980).  The step controller is that of SciPy's ``solve_ivp`` DOP853, so
both take the same steps up to rounding: safety 0.9, factors clipped to
[0.2, 10], and no growth right after a rejected step.

The coefficient tables are Hairer's, as transcribed in SciPy's
``integrate/_ivp/dop853_coefficients.py`` (BSD-3-Clause, Copyright (c)
2001-2002 Enthought, Inc. and 2003 SciPy Developers), built into arrays at
import: only ``oracle`` imports this module, and every run of it uses numpy.
"""

from __future__ import annotations

import math

from .core import np
from .exceptions import SingularityError

__all__ = ["solve"]


def _table(shape, rows):
    out = np.zeros(shape)
    for i, row in rows.items():
        out[i, list(row)] = list(row.values())
    return out


#: nodes of the 12 stages of a step, then of the 3 extra dense-output stages
#: (index 12 is the endpoint derivative, which the next step reuses)
C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])

#: stage couplings A[s, j], row s for stage s; row 12 holds the weights B
A = _table((16, 16), {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
})
B = A[12, :12]
#: 3rd-order error estimator over the 12 stages: the weights less Hairer's BHH
E3 = B.copy()
E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]

#: 5th-order error estimator over the 12 stages
E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1])

#: the four highest dense-output coefficients over all 16 stages
D = _table((4, 16), {
    0: {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
})

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
#: the step factor is (error norm) ** (-1/8): the estimator is of 7th order
_EXPONENT = -1.0 / 8.0


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x @ x) / math.sqrt(x.size)


def _initial_step(fun, t, y, f, span, rtol, atol) -> float:
    """Hairer's starting step (section II.4): one trial Euler step measures
    the second derivative."""
    scale = atol + rtol * np.abs(y)
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_EXPONENT)
    return min(100.0 * h0, h1, span)


def _error_norm(K: np.ndarray, h: float, scale: np.ndarray) -> float:
    """RMS norm of the local error, the 5th-order estimate damped by the
    3rd-order one (Hairer, section II.10)."""
    err5, err3 = (E5 @ K[:12]) / scale, (E3 @ K[:12]) / scale
    e5, e3 = float(err5 @ err5), float(err3 @ err3)
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return h * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size)


def _dense(fun, t, y, h, y_new, K, times) -> np.ndarray:
    """The 7th-order interpolant of the step (t, y) -> (t + h, y_new) at
    ``times``, shape (n, len(times)); evaluates the three extra stages."""
    for s in (13, 14, 15):
        K[s] = fun(t + C[s] * h, y + h * (A[s, :s] @ K[:s]))
    dy = y_new - y
    coeffs = [dy, h * K[0] - dy, 2.0 * dy - h * (K[12] + K[0]), *(h * (D @ K))]
    x = ((times - t) / h)[:, None]
    out = np.zeros((len(times), len(y)))
    for i, c in enumerate(reversed(coeffs)):
        out += c
        out *= x if i % 2 == 0 else 1.0 - x
    return (out + y).T


def solve(fun, y0, times, rtol: float, atol: float) -> np.ndarray:
    """Integrate y' = fun(t, y) with y(times[0]) = y0 up to times[-1] and
    return the states at the non-decreasing ``times``, shape (n, len(times)).

    A time inside a step is read from the dense output; a time at a step's
    end is that step's state.  Raises SingularityError when the step size
    falls below ten ulps of t, as it does where the solution blows up.
    """
    times = np.asarray(times, dtype=float)
    t, t_end = float(times[0]), float(times[-1])
    y = np.array(y0, dtype=float)
    K = np.empty((16, y.size))
    K[0] = fun(t, y)
    out = np.empty((y.size, times.size))
    done = int(np.searchsorted(times, t, side="right"))
    out[:, :done] = y[:, None]
    h = _initial_step(fun, t, y, K[0], t_end - t, rtol, atol) if t < t_end else 0.0
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h, rejected = max(h, min_step), False
        while True:
            if h < min_step:
                raise SingularityError(f"integration failed: step size underflow at t = {t}")
            t_new = min(t + h, t_end)
            h = t_new - t
            for s in range(1, 12):
                K[s] = fun(t + C[s] * h, y + h * (A[s, :s] @ K[:s]))
            y_new = y + h * (B @ K[:12])
            K[12] = fun(t_new, y_new)
            norm = _error_norm(K, h, atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
            if norm < 1.0:
                factor = MAX_FACTOR if norm == 0.0 else min(MAX_FACTOR, SAFETY * norm ** _EXPONENT)
                h *= min(1.0, factor) if rejected else factor
                break
            # a NaN norm fails the test above and shrinks the step by MIN_FACTOR
            h *= max(MIN_FACTOR, SAFETY * norm ** _EXPONENT)
            rejected = True
        inner = int(np.searchsorted(times, t_new, side="left"))
        if inner > done:
            out[:, done:inner] = _dense(fun, t, y, t_new - t, y_new, K, times[done:inner])
        done = int(np.searchsorted(times, t_new, side="right"))
        out[:, inner:done] = y_new[:, None]
        t, y, K[0] = t_new, y_new, K[12]
    return out
