"""Microscopic validation layer: detuned atom-cavity dynamics.

Two atoms are conveyed through a cavity waist at constant velocity
while a third sits trapped at a transverse offset; all three couple to
one far-detuned mode.  This module integrates the exact single-
excitation dynamics (atomic amplitudes plus the one-photon amplitude),
the adiabatically eliminated atom-only dynamics, and the two constant-
coupling approximations, and quantifies how well they agree.  That
chain is what justifies replacing the microscopic model by the ring-
exchange Hamiltonian of :mod:`xypurify.xy` in the protocol code.

The model works in units hbar = g0 = w = 1: the peak coupling g0 and
the waist w set the scales of rate and length, so times are in 1/g0,
lengths in w and velocities in w*g0.  A geometry is then fully
specified by the dimensionless ratios Delta/g0, ell/w, d/w and
v/(w*g0), which are the four fields of :class:`CavityGeometry`.  Each is
bounded when a geometry is built, before any run, so that every number
the model computes is a normal float (the class docstring says why), and
so is max(|Delta|, 1) times the transit window, which sets the exact
run's step count.

Every integral runs over :meth:`CavityGeometry.window`, which clips at
most erfc(DEFAULT_SPAN) ~ 1.5e-12 of any transit integral (proof in
:func:`asymptotic_hamiltonian`).

The module needs numpy only.  Both dynamics are integrated by
:func:`_dop853`, the Dormand-Prince 8(5,3) pair with the initial step,
error norm and step control of scipy's ``solve_ivp(method="DOP853")``
written out operation for operation: it makes the same floating-point
operations in the same order, so its steps and states equal
``solve_ivp``'s bit for bit, and the tests check that against scipy.
It yields the accepted steps and stores none of them: only
:func:`integrate_full` collects them, into a :class:`Trajectory`;
:func:`xy_agreement` and :func:`convergence_study` keep only endpoints.
The right-hand sides it calls work on y = (Re c, Im c) in plain Python
float arithmetic, summing g . c left to right, and build one array per
call, the returned derivative: on vectors of 3 to 8 entries numpy's
per-call cost would outweigh the arithmetic.
The transit integrals use Gauss-Legendre quadrature, and the constant
models' propagators the eigendecomposition of their real symmetric
generators.
"""
from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, GeometryError, StiffnessError

ADIABATIC_RATIO_MIN = 20.0
DEFAULT_SPAN = 5.0          # conveyed atoms cover |z| <= DEFAULT_SPAN waists
INTEGRATOR_RTOL = 1e-10
INTEGRATOR_ATOL = 1e-12
# bounds checked before any run (CavityGeometry, _check_offset)
MAX_TRANSIT_PHASE = 10**6   # on max(|delta|, 1) (t_b - t_a)
MAX_OFFSET = 15.0           # on ell
MAX_SPACING = 25.0          # on d
MAX_DETUNING = 1e50         # on |delta| and on 1 / |delta|
MAX_VELOCITY = 1e50         # on v

# Dormand & Prince's 8(5,3) pair (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, Sec. II.10), digits as in Hairer's dop853.f: the
# nodes and stage rows of the 12 stages, the 8th-order weights, and the 5th-
# and 3rd-order error weights over the 12 stages plus f(t + h), weighted 0
_DOP_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0])
_DOP_A = np.zeros((13, 12))  # row 12 holds the weights
_DOP_A[1, :1] = [5.26001519587677318785587544488e-2]
_DOP_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_DOP_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_DOP_A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1]
_DOP_A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1]
_DOP_A[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
                           6.02165389804559606850219397283e-2, -1.7578125e-2]
_DOP_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3]
_DOP_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
_DOP_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
_DOP_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
_DOP_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
_DOP_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
_DOP_B = _DOP_A[12]
_DOP_E3 = np.append(_DOP_B, 0.0)
_DOP_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                        0.220588235294117647058823529412e-1]
_DOP_E5 = np.zeros(13)
_DOP_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]


_BLOCK_ROWS = 256  # rows _integrate starts with, and rows _row_max reduces at once


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(fun, t_a: float, t_b: float, y0: np.ndarray, rtol: float, atol: float
            ) -> Iterator[tuple[float, np.ndarray]]:
    """Yield the accepted (t, y) of y' = fun(t, y) from t_a to t_b > t_a, DOP853 pair.

    The first pair is (t_a, y0) and the last has t = t_b.  Nothing is
    stored: each yielded state is a new array that the integrator never
    writes again, so a caller keeps only what it reads.  The initial step,
    the error norm and the step control are those of
    ``scipy.integrate.solve_ivp(method="DOP853")``, written operation for
    operation, so the times and states are the same floats as its ``t``
    and the columns of its ``y``.  Raises :class:`StiffnessError` where it
    reports failure: the step falling below 10 ulp of t.
    """
    t, y = float(t_a), y0
    yield t, y
    f = fun(t, y)
    # initial step as Hairer, Norsett & Wanner II.4, for error order 7
    interval = t_b - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 8))
    h_abs = min(100 * h0, h1, interval)

    k = np.empty((13, y.size))
    while t < t_b:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    f"adaptive integrator failed at t = {t:.6g}: the step size "
                    "it needs is below 10 ulp of t")
            t_new = t + h_abs
            if t_new > t_b:
                t_new = t_b
            h_abs = h = t_new - t
            k[0] = f
            for s in range(1, 12):
                k[s] = fun(t + _DOP_C[s] * h, y + np.dot(k[:s].T, _DOP_A[s, :s]) * h)
            y_new = y + h * np.dot(k[:12].T, _DOP_B)
            k[12] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            # the 5th-order estimate, damped where the 3rd-order one is larger
            err5 = np.linalg.norm(np.dot(k.T, _DOP_E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(k.T, _DOP_E3) / scale) ** 2
            error_norm = (0.0 if err5 == 0 and err3 == 0 else
                          h * err5 / np.sqrt((err5 + 0.01 * err3) * y.size))
            # step factor 0.9 * error_norm^(-1/8) (error order 7), within [0.2, 10]
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        t, y, f = t_new, y_new, f_new
        yield t, y


def _check_offset(ell: float) -> None:
    """Reject an offset ell that is negative, not finite, or above MAX_OFFSET.

    The trapped atom couples with exp(-ell^2), and the commutator check
    of :func:`xy_agreement` divides by the square of a generator of that
    size, exp(-2 ell^2) / delta^2.  Past ell ~ 19.2 at |delta| = 50 (and
    ell ~ 18.1 at |delta| = 1e11) that square underflows and the check
    reads 0/0; past ell ~ 26.6 the closed-form pair coupling exp(ell^2)
    at d = 0 overflows.  MAX_OFFSET = 15 keeps exp(-2 ell^2) >= 1e-196.
    A nan, an inf and an int past the float range fail the comparison too.
    """
    if not 0 <= ell <= MAX_OFFSET:
        raise GeometryError(
            f"offset ell must be finite and nonnegative, at most the bound of "
            f"{MAX_OFFSET:g} where the couplings exp(-ell^2) stay normal "
            f"floats, got {ell}")


@dataclass(frozen=True)
class CavityGeometry:
    """Couplings and positions of the conveyed pair and the trapped atom.

    In units g0 = w = 1 (see the module docstring), so the peak coupling
    is 1 and atom k's coupling is exp(-z_k^2) at axial position z_k.

    Parameters
    ----------
    ell : transverse offset of the trapped atom, ell/w.
    d : spacing between the two conveyed atoms, d/w.
    v : conveyor velocity along z, v/(w*g0).
    delta : atom-cavity detuning Delta/g0; its sign sets the sign of the
        effective coupling g^2/delta.

    ``z0``, the initial positions of the conveyed atoms, is derived from
    d: atom 2 starts ``DEFAULT_SPAN`` waists before the waist and atom 1 a
    further d behind, so the whole Gaussian transit lies inside the
    window.

    Every field is bounded before any run, so that every number the model
    computes is a normal float, at least 2.2e-308 in magnitude and finite:

    * ell <= MAX_OFFSET = 15, as :func:`_check_offset` explains.
    * d <= MAX_SPACING = 25.  The pair coupling g1 g2 peaks at
      exp(-d^2 / 2), at least exp(-312.5) ~ 2e-136; past d ~ 38.6 the
      closed-form pair coefficient exp((2 ell^2 - d^2) / 2) at ell = 1
      underflows to 0, and :func:`asymptotic_hamiltonian` divides by it.
      :func:`solve_geometry`'s largest spacing, at ell = MAX_OFFSET, is
      ~21.2.
    * 1 / MAX_DETUNING <= |delta| <= MAX_DETUNING = 1e50.  The eliminated
      generator g g^T / delta has an entry of at least exp(-ell^2) / |delta|
      while a conveyed atom is near the waist, so the squared norm that
      the commutator check of :func:`xy_agreement` divides by stays above
      ~1e-296.  At ell = MAX_OFFSET it turns subnormal past |delta| ~ 1e56,
      where the check loses digits (0.68 at 1e63 and 1.0 at 1e64, for
      0.6795), and underflows to 0 past ~1e65, where it reads 0/0.  From
      below, 1 / |delta| and its square stay at most 1e100.
    * v <= MAX_VELOCITY = 1e50, and the transit bound below gives
      v >= 1e-5 max(|delta|, 1), as (t_b - t_a) v = 2 DEFAULT_SPAN + d >= 10.
      So |delta| v lies in [1e-55, 1e100], and the couplings integrated
      over one transit, sqrt(pi) / (|delta| v) times exp(-ell^2) or
      exp(-d^2 / 2), lie between ~3e-236 and ~2e55.

    The exact run's work is bounded too: max(|delta|, 1) (t_b - t_a) <=
    MAX_TRANSIT_PHASE = 1e6.  Above |delta| = 1 the detuning sets the step
    count, below it the couplings, of rate ~1.  Runs at the bound, at
    ell = 1 with :func:`solve_geometry`'s d (one each, 2 shared vCPUs,
    Python 3.11): 131 039 steps in 17 s at |delta| = 1e-4, 196 763 in 22 s
    at 0.5, 265 201 in 29 s at 1, and 184 799 in 20 s at 20.
    """

    ell: float
    d: float
    v: float
    delta: float
    z0: tuple[float, float] = field(init=False)

    def __post_init__(self) -> None:
        # finite bounds, so that a nan and an int past the float range fail
        # here and not in float arithmetic later
        if not 1.0 / MAX_DETUNING <= abs(self.delta) <= MAX_DETUNING:
            raise GeometryError(f"|delta| must lie within the bounds of "
                                f"{1.0 / MAX_DETUNING:g} and {MAX_DETUNING:g}, "
                                f"got {self.delta}")
        if not 0 < self.v <= MAX_VELOCITY:
            raise GeometryError(f"v must be positive and at most the bound of "
                                f"{MAX_VELOCITY:g}, got {self.v}")
        if not 0 <= self.d <= MAX_SPACING:
            raise GeometryError(
                f"distance d must be finite and nonnegative, at most the bound of "
                f"{MAX_SPACING:g} where the pair coupling exp(-d^2/2) stays a "
                f"normal float, got {self.d}")
        _check_offset(self.ell)
        # Python floats from here on, which overflow without numpy's
        # RuntimeWarning; float() is exact on a numpy float
        for name in ("ell", "d", "v", "delta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # a field, not a property: the integrators' right-hand sides read it
        # on every step
        start = -DEFAULT_SPAN - self.d
        object.__setattr__(self, "z0", (start, start + self.d))
        t_a, t_b = self.window()
        if not 0 < t_b < math.inf:
            raise GeometryError("w / v gives an empty or unbounded transit window")
        # below |delta| = 1 the couplings, of rate ~1, set the step count
        phase = max(abs(self.delta), 1.0) * (t_b - t_a)
        if not phase <= MAX_TRANSIT_PHASE:
            raise GeometryError(
                f"max(|delta|, 1) times the transit window is {phase:.3g}, above the "
                f"bound of {MAX_TRANSIT_PHASE:.3g}; reduce |delta| or raise v")

    @property
    def adiabatic(self) -> bool:
        return abs(self.delta) >= ADIABATIC_RATIO_MIN

    @property
    def g_trapped(self) -> float:
        return math.exp(-self.ell ** 2)

    @property
    def mean_coupling(self) -> float:
        """exp(-ell^2 / 2), the transit-averaged coupling scale."""
        return math.exp(-(self.ell ** 2) / 2.0)

    @property
    def j_effective(self) -> float:
        """mean_coupling^2 / delta."""
        return self.mean_coupling ** 2 / self.delta

    @property
    def t_prime(self) -> float:
        """Effective interaction time sqrt(pi) / v of one transit."""
        return math.sqrt(math.pi) / self.v

    def window(self) -> tuple[float, float]:
        """Time window over which both conveyed atoms cover |z| <= DEFAULT_SPAN."""
        z1, z2 = self.z0
        t_a = 0.0
        t_b = (DEFAULT_SPAN - min(z1, z2)) / self.v
        return t_a, t_b


def _coupling_vector(geom: CavityGeometry, t: float) -> np.ndarray:
    """Couplings of atoms 1, 2 (conveyed) and 3 (trapped) at time t."""
    z1, z2 = geom.z0
    v = geom.v
    return np.array([
        math.exp(-(z1 + v * t) ** 2),
        math.exp(-(z2 + v * t) ** 2),
        geom.g_trapped,
    ])


def _coupling_samples(geom: CavityGeometry, ts: np.ndarray) -> np.ndarray:
    """Couplings of atoms 1, 2 and 3 (rows) at the times ts (columns)."""
    z1, z2 = geom.z0
    g1 = np.exp(-(z1 + geom.v * ts) ** 2)
    g2 = np.exp(-(z2 + geom.v * ts) ** 2)
    return np.array([g1, g2, np.full_like(ts, geom.g_trapped)])


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """100 Gauss-Legendre nodes and weights on [-1, 1], computed on first use.

    Over the window they give the transit integrals to within a few ulp of
    adaptive quadrature; 200 nodes round worse.  Read-only: every caller
    shares them.
    """
    nodes, weights = np.polynomial.legendre.leggauss(100)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def peak_collective_coupling(geom: CavityGeometry) -> float:
    """max over 2001 window samples of the collective coupling sqrt(sum g_k^2)."""
    t_a, t_b = geom.window()
    z1, z2 = geom.z0
    vt = geom.v * np.linspace(t_a, t_b, 2001)
    # g1^2 + g2^2 + g3^2 in that order, in place in g1's samples
    g1 = np.exp(-(z1 + vt) ** 2)
    g1 *= g1
    g2 = np.exp(-(z2 + vt) ** 2)
    g2 *= g2
    g1 += g2
    g1 += geom.g_trapped ** 2
    return float(np.sqrt(g1, out=g1).max())


@dataclass(frozen=True)
class Trajectory:
    """Integrated amplitude history over the transit window."""

    times: np.ndarray = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)  # shape (len(times), n_amp)
    max_photon_population: float

    @property
    def endpoint(self) -> np.ndarray:
        return self.amplitudes[-1]


def _check_initial(c: np.ndarray, n: int) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.shape != (n,):
        raise DomainError(f"initial amplitudes must have shape ({n},)")
    nrm = np.linalg.norm(c)
    if not abs(nrm - 1.0) <= 1e-9:  # a nan norm fails too
        raise DomainError(f"initial amplitudes must be normalized, norm {nrm:.3e}")
    return c


def _steps(rhs, geom: CavityGeometry, c_init: np.ndarray
           ) -> Iterator[tuple[float, np.ndarray]]:
    """_dop853's accepted (t, y) of c' = rhs over the window, y = (Re c, Im c)."""
    t_a, t_b = geom.window()
    return _dop853(rhs, t_a, t_b, np.concatenate([c_init.real, c_init.imag]),
                   INTEGRATOR_RTOL, INTEGRATOR_ATOL)


def _integrate(steps: Iterator[tuple[float, np.ndarray]], n: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Times and (steps, n) complex amplitudes of the states y = (Re c, Im c).

    The one collector that stores steps: each time and the amplitudes
    of its state go straight into one array of each, with no copy of the
    real state.  Both start at _BLOCK_ROWS rows, grow in place by a
    quarter when full and are cut to the step count at the end, so each
    step is stored once and at most a quarter of the rows stand empty.
    """
    times = np.empty(_BLOCK_ROWS)
    amplitudes = np.empty((_BLOCK_ROWS, n), dtype=complex)
    row = 0
    for t, y in steps:
        if row == len(times):
            # no view of either array is read after this
            times.resize(row + row // 4, refcheck=False)
            amplitudes.resize((len(times), n), refcheck=False)
        times[row] = t
        c = amplitudes[row]
        c.real, c.imag = y[:n], y[n:]
        row += 1
    times.resize(row, refcheck=False)
    amplitudes.resize((row, n), refcheck=False)
    return times, amplitudes


def _row_max(c: np.ndarray, per_row) -> float:
    """max over the rows of c of per_row(rows), _BLOCK_ROWS rows at a time."""
    return float(np.max([np.max(per_row(c[i:i + _BLOCK_ROWS]))
                         for i in range(0, len(c), _BLOCK_ROWS)]))


def _full_steps(geom: CavityGeometry, c_init: np.ndarray
                ) -> Iterator[tuple[float, np.ndarray]]:
    """_steps of the exact dynamics, c = (c0, c1, c2, c3).

    Shared by :func:`integrate_full`, which stores them, and
    :func:`convergence_study`, which keeps the endpoint only.  A
    StiffnessError names the detuning.
    """
    delta = geom.delta
    z1, z2 = geom.z0
    v, g3 = geom.v, geom.g_trapped

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # y = (Re c, Im c), read as Python floats: the arithmetic is plain
        # float arithmetic, the sums g . c_atoms taken left to right, and
        # the returned 8-vector is the one array built
        r0, r1, r2, r3, i0, i1, i2, i3 = y.tolist()
        g1 = math.exp(-(z1 + v * t) ** 2)
        g2 = math.exp(-(z2 + v * t) ** 2)
        return np.array((g1 * r1 + g2 * r2 + g3 * r3 - delta * i0,
                         -g1 * r0, -g2 * r0, -g3 * r0,
                         g1 * i1 + g2 * i2 + g3 * i3 + delta * r0,
                         -g1 * i0, -g2 * i0, -g3 * i0))

    try:
        yield from _steps(rhs, geom, c_init)
    except StiffnessError as err:
        raise StiffnessError(
            f"{err}; |delta| is probably too large for the tolerance "
            f"(|delta|/g0 = {abs(delta):.3g}). Reduce the detuning "
            "ratio or the transit time, or relax the tolerance.") from None


def _effective_steps(geom: CavityGeometry, c_init: np.ndarray
                     ) -> Iterator[tuple[float, np.ndarray]]:
    """_steps of the eliminated dynamics i c' = M c, M = g g^T / delta Hermitian."""
    inv_delta = 1.0 / geom.delta  # numpy's complex / real divides this way
    z1, z2 = geom.z0
    v, g3 = geom.v, geom.g_trapped

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # y = (Re c, Im c); c' = -i g (g.c) / delta with real g, in Python
        # floats as in _full_steps
        r1, r2, r3, i1, i2, i3 = y.tolist()
        g1 = math.exp(-(z1 + v * t) ** 2)
        g2 = math.exp(-(z2 + v * t) ** 2)
        s_re = g1 * r1 + g2 * r2 + g3 * r3
        s_im = g1 * i1 + g2 * i2 + g3 * i3
        return np.array((g1 * s_im * inv_delta, g2 * s_im * inv_delta, g3 * s_im * inv_delta,
                         -g1 * s_re * inv_delta, -g2 * s_re * inv_delta,
                         -g3 * s_re * inv_delta))

    return _steps(rhs, geom, c_init)


def _endpoint(steps: Iterator[tuple[float, np.ndarray]], n: int) -> np.ndarray:
    """The n complex amplitudes of the last y = (Re c, Im c); one step is held."""
    [(_, y)] = deque(steps, maxlen=1)
    c = np.empty(n, dtype=complex)
    c.real, c.imag = y[:n], y[n:]
    return c


def integrate_full(geom: CavityGeometry, initial: np.ndarray) -> Trajectory:
    """Integrate the exact single-excitation atom-photon dynamics.

      c0' = i delta c0 + (g . c_atoms)
      ck' = -g_k c0

    ``initial`` holds (c0, c1, c2, c3); the photon amplitude must start
    at zero for the usual protocol question, but any normalized vector
    is accepted.  The trajectory is stored at the solver's natural
    steps, which resolve the fast photon-amplitude oscillation.
    """
    times, c = _integrate(_full_steps(geom, _check_initial(initial, 4)), 4)
    return Trajectory(
        times=times,
        amplitudes=c,
        max_photon_population=_row_max(c, lambda rows: np.abs(rows[:, 0]) ** 2),
    )


def solve_geometry(ell: float) -> float:
    """Spacing d/w that makes the conveyed-conveyed coupling coefficient 1.

    ``ell`` is the trapped atom's offset in waists.  Requires
    2 ell^2 >= ln 2; below that bound no spacing can compensate the pair
    overlap.
    """
    _check_offset(ell)
    bound = math.sqrt(math.log(2.0) / 2.0)
    if ell < bound:
        raise GeometryError(
            f"ell = {ell:.6g} is below the feasibility bound w*sqrt(ln2/2) "
            f"= {bound:.6g}; the pair coupling cannot reach 1")
    return math.sqrt(2.0 * ell ** 2 - math.log(2.0))


@dataclass(frozen=True)
class AsymptoticCouplings:
    """Transit-integrated coupling coefficients, checked against the closed form."""

    c_matrix: np.ndarray = field(repr=False)   # dimensionless coefficients
    max_rel_error: float                        # numeric vs closed form


def _c12_closed_form(geom: CavityGeometry) -> float:
    return (1.0 / math.sqrt(2.0)) * math.exp((2.0 * geom.ell ** 2 - geom.d ** 2) / 2.0)


def asymptotic_hamiltonian(geom: CavityGeometry) -> AsymptoticCouplings:
    """Constant generator whose action over t' equals the transit integral.

    Integrates every pairwise coupling product over the window; the
    largest relative gap of the off-diagonal entries to the closed-form
    Gaussian integrals over all time is ``max_rel_error``.

    The window needs no truncation check.  Atom 2 starts DEFAULT_SPAN
    waists before the waist, atom 1 a further d behind, and the window
    ends with atom 1 DEFAULT_SPAN waists past it.  So each atom crosses
    the waist inside the window and is at least DEFAULT_SPAN waists from
    it at both edges, exactly that at one edge (5.0 or 4.999999999999999
    in floating point).  With z_k = z0_k + v t, g_k g_3 ~ exp(-z_k^2)
    then loses at most erfc(DEFAULT_SPAN) of its integral past the
    edges, and g_1 g_2 ~ exp(-2 z_m^2), with z_m = (z_1 + z_2)/2 as far
    out, at most
    erfc(sqrt(2) DEFAULT_SPAN): no more than erfc(5) ~ 1.5e-12.
    """
    t_a, t_b = geom.window()
    prefactor = math.exp(-geom.ell ** 2) / geom.delta
    tp = geom.t_prime
    # Gauss-Legendre over the whole window; only the off-diagonal entries
    # are used
    nodes, weights = _gauss_legendre()
    mid, half = 0.5 * (t_a + t_b), 0.5 * (t_b - t_a)
    g = _coupling_samples(geom, mid + half * nodes)
    numeric = half * ((g * weights) @ g.T) / geom.delta

    c_closed = np.ones((3, 3)) - np.eye(3)
    c_closed[0, 1] = c_closed[1, 0] = _c12_closed_form(geom)
    closed = prefactor * tp * c_closed

    off = ~np.eye(3, dtype=bool)
    rel = np.abs(numeric[off] - closed[off]) / np.abs(closed[off])
    c_numeric = numeric / (prefactor * tp)
    np.fill_diagonal(c_numeric, 0.0)
    return AsymptoticCouplings(
        c_matrix=c_numeric,
        max_rel_error=float(rel.max()),
    )


def _mean_hamiltonian_3(geom: CavityGeometry) -> np.ndarray:
    """Constant mean-coupling generator in the single-excitation basis.

    Uniform level shift J on every excited atom plus hopping 2J between
    every pair, J = mean_coupling^2 / delta.
    """
    j = geom.j_effective
    hop = np.ones((3, 3)) - np.eye(3)
    return j * (np.eye(3) + 2.0 * hop)


def _ring_exchange_3(geom: CavityGeometry) -> np.ndarray:
    """Pure ring-exchange generator (no level shift), 2J hopping."""
    j = geom.j_effective
    return 2.0 * j * (np.ones((3, 3)) - np.eye(3))


def distance_mod_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Vector distance minimized over a global phase."""
    overlap = abs(np.vdot(a, b))
    val = np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2 - 2.0 * overlap
    return math.sqrt(max(val, 0.0))


@dataclass(frozen=True)
class AgreementReport:
    """How well the model chain agrees over one transit.

    Endpoint distances are between normalized single-excitation state
    vectors; full-vs-constant-model distances are minimized over a
    global phase because the constant models live in a frame that
    differs by state-independent phases.
    """

    distance_full_mean: float          # exact vs constant mean-coupling model
    distance_full_mean_raw: float      # same, without the phase freedom
    distance_full_effective: float     # exact vs adiabatically eliminated
    distance_mean_corrected_xy: float  # constant model vs ring exchange + phase
    max_photon_population: float
    photon_population_bound: float     # 4 (g_max / delta)^2
    commutator_ratio: float            # max |[M(t1), M(t2)]| / max |M|^2
    c12_numeric: float
    t_prime: float
    adiabatic: bool


# the excitation starts on conveyed atom 1, with no photon
_C3 = np.array([1.0, 0.0, 0.0], dtype=complex)
_C4 = np.concatenate(([0.0 + 0j], _C3))


def _propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for a real symmetric h, from its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.T


def _mean_endpoint(geom: CavityGeometry) -> np.ndarray:
    """Atomic amplitudes after one transit of the constant mean-coupling model."""
    return _propagator(_mean_hamiltonian_3(geom), geom.t_prime) @ _C3


def xy_agreement(geom: CavityGeometry, *,
                 full: Trajectory | None = None) -> AgreementReport:
    """Quantify the microscopic-to-ring-exchange reduction for one transit.

    The excitation starts on conveyed atom 1.  ``full`` lets a caller
    that already holds ``integrate_full(geom, (0, 1, 0, 0))`` pass it in
    instead of having it integrated again.
    """
    if full is None:
        full = integrate_full(geom, _C4)
    elif (full.amplitudes.shape[1] != 4 or not np.allclose(full.amplitudes[0], _C4)
          or (full.times[0], full.times[-1]) != geom.window()):
        raise DomainError("full trajectory must be integrate_full(geom, (0, 1, 0, 0)) "
                          "over the geometry's window")
    eff_end = _endpoint(_effective_steps(geom, _C3), 3)
    tp = geom.t_prime

    mean_end = _mean_endpoint(geom)
    u_xy = _propagator(_ring_exchange_3(geom), tp)
    # single-excitation sector: the level-shift correction is the scalar
    # phase exp(-i J t')
    corrected_xy_end = np.exp(-1j * geom.j_effective * tp) * (u_xy @ _C3)

    full_atoms = full.endpoint[1:]

    # commutator smallness of the eliminated generator M = g g^T / delta at
    # 25 times, diagonal removed (the pure exchange part), all pairs at once
    t_a, t_b = geom.window()
    g = np.array([_coupling_vector(geom, t) for t in np.linspace(t_a, t_b, 25)])
    mats = np.where(np.eye(3, dtype=bool), 0.0, g[:, :, None] * g[:, None, :] / geom.delta)
    i, j = np.triu_indices(len(mats), 1)
    comms = mats[i] @ mats[j] - mats[j] @ mats[i]
    norm_max = np.linalg.norm(mats, 2, axis=(1, 2)).max()
    comm_max = np.linalg.norm(comms, 2, axis=(1, 2)).max()

    couplings = asymptotic_hamiltonian(geom)
    gmax = peak_collective_coupling(geom)
    return AgreementReport(
        distance_full_mean=distance_mod_phase(full_atoms, mean_end),
        distance_full_mean_raw=float(np.linalg.norm(full_atoms - mean_end)),
        distance_full_effective=float(np.linalg.norm(full_atoms - eff_end)),
        distance_mean_corrected_xy=float(np.linalg.norm(mean_end - corrected_xy_end)),
        max_photon_population=full.max_photon_population,
        photon_population_bound=4.0 * (gmax / geom.delta) ** 2,
        commutator_ratio=float(comm_max / norm_max ** 2),
        c12_numeric=float(couplings.c_matrix[0, 1]),
        t_prime=tp,
        adiabatic=geom.adiabatic,
    )


def convergence_study(geom: CavityGeometry,
                      factors: Sequence[float] = (1.0, 2.0, 4.0)
                      ) -> list[tuple[float, float]]:
    """Full-vs-mean endpoint distance as the detuning is scaled up.

    Returns (detuning, distance) pairs, each distance the
    ``distance_full_mean`` of :func:`xy_agreement` at that detuning, from
    one exact integration per factor.  Each integration keeps only its
    current state, so the memory does not grow with its step count.
    First-order elimination error means the distance should halve each
    time the detuning doubles.
    """
    out = []
    # every geometry is built, and so checked, before the first integration
    for g in [replace(geom, delta=geom.delta * fac) for fac in factors]:
        full_atoms = _endpoint(_full_steps(g, _C4), 4)[1:]
        out.append((g.delta, distance_mod_phase(full_atoms, _mean_endpoint(g))))
    return out
