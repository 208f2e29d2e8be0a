"""Microscopic validation layer: detuned atom-cavity dynamics.

Two atoms are conveyed through a cavity waist at constant velocity
while a third sits trapped at a transverse offset; all three couple to
one far-detuned mode.  This module integrates the exact single-
excitation dynamics (atomic amplitudes plus the one-photon amplitude),
the adiabatically eliminated atom-only dynamics, and the two constant-
coupling approximations, and quantifies how well they agree.  That
chain is what justifies replacing the microscopic model by the ring-
exchange Hamiltonian of :mod:`xypurify.xy` in the protocol code.

Internally hbar = 1, times are measured in 1/g0 and lengths in w, so a
geometry is fully specified by the dimensionless ratios Delta/g0,
ell/w, d/w and the velocity in units of w*g0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from .errors import DomainError, GeometryError, StiffnessError, TruncationError

ADIABATIC_RATIO_MIN = 20.0
DEFAULT_SPAN = 5.0          # conveyed atoms cover |z| <= DEFAULT_SPAN * w
INTEGRATOR_RTOL = 1e-10
INTEGRATOR_ATOL = 1e-12
TAIL_MASS_MAX = 1e-8


@dataclass(frozen=True)
class CavityGeometry:
    """Couplings and positions of the conveyed pair and the trapped atom.

    Parameters
    ----------
    g0 : vacuum Rabi frequency (peak coupling).
    w : cavity field waist.
    ell : transverse offset of the trapped atom.
    d : spacing between the two conveyed atoms.
    v : conveyor velocity along z.
    delta : atom-cavity detuning; sign sets the sign of the effective
        coupling g^2/delta.

    ``z0``, the initial positions of the conveyed atoms, is derived: both
    start a distance ``DEFAULT_SPAN*w + d`` before the waist, so the
    whole Gaussian transit lies inside the window.
    """

    g0: float
    w: float
    ell: float
    d: float
    v: float
    delta: float
    z0: tuple[float, float] = field(init=False)

    def __post_init__(self) -> None:
        for name in ("g0", "w", "v"):
            if getattr(self, name) <= 0:
                raise GeometryError(f"{name} must be positive")
        if self.delta == 0:
            raise GeometryError("detuning must be nonzero")
        if self.d < 0 or self.ell < 0:
            raise GeometryError("distances d and ell must be nonnegative")
        # a field, not a property: the integrators' right-hand sides read it
        # on every step
        start = -DEFAULT_SPAN * self.w - self.d
        object.__setattr__(self, "z0", (start, start + self.d))

    @property
    def adiabatic(self) -> bool:
        return abs(self.delta) >= ADIABATIC_RATIO_MIN * self.g0

    @property
    def g_trapped(self) -> float:
        return self.g0 * math.exp(-(self.ell / self.w) ** 2)

    @property
    def mean_coupling(self) -> float:
        """g0 * exp(-ell^2 / 2 w^2), the transit-averaged coupling scale."""
        return self.g0 * math.exp(-(self.ell ** 2) / (2.0 * self.w ** 2))

    @property
    def j_effective(self) -> float:
        """mean_coupling^2 / delta."""
        return self.mean_coupling ** 2 / self.delta

    @property
    def t_prime(self) -> float:
        """Effective interaction time sqrt(pi) w / v of one transit."""
        return math.sqrt(math.pi) * self.w / self.v

    def window(self) -> tuple[float, float]:
        """Time window over which both conveyed atoms cover |z| <= DEFAULT_SPAN*w."""
        z1, z2 = self.z0
        t_a = 0.0
        t_b = (DEFAULT_SPAN * self.w - min(z1, z2)) / self.v
        return t_a, t_b


def coupling(geom: CavityGeometry, atom: int, t: float) -> float:
    """Atom-cavity coupling of atom 1, 2 (conveyed) or 3 (trapped) at time t."""
    if atom not in (1, 2, 3):
        raise DomainError(f"atom index must be 1, 2 or 3, got {atom}")
    return float(_coupling_vector(geom, t)[atom - 1])


def _coupling_vector(geom: CavityGeometry, t: float) -> np.ndarray:
    z1, z2 = geom.z0
    g0, w, v = geom.g0, geom.w, geom.v
    return np.array([
        g0 * math.exp(-((z1 + v * t) / w) ** 2),
        g0 * math.exp(-((z2 + v * t) / w) ** 2),
        geom.g_trapped,
    ])


def peak_collective_coupling(geom: CavityGeometry) -> float:
    """max over 2001 window samples of the collective coupling sqrt(sum g_k^2)."""
    t_a, t_b = geom.window()
    ts = np.linspace(t_a, t_b, 2001)
    z1, z2 = geom.z0
    g1 = geom.g0 * np.exp(-((z1 + geom.v * ts) / geom.w) ** 2)
    g2 = geom.g0 * np.exp(-((z2 + geom.v * ts) / geom.w) ** 2)
    return float(np.sqrt(g1 ** 2 + g2 ** 2 + geom.g_trapped ** 2).max())


@dataclass(frozen=True)
class Trajectory:
    """Integrated amplitude history over the transit window."""

    times: np.ndarray = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)  # shape (len(times), n_amp)
    max_photon_population: float
    norm_drift: float

    @property
    def endpoint(self) -> np.ndarray:
        return self.amplitudes[-1]


def _check_initial(c: np.ndarray, n: int) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.shape != (n,):
        raise DomainError(f"initial amplitudes must have shape ({n},)")
    nrm = np.linalg.norm(c)
    if abs(nrm - 1.0) > 1e-9:
        raise DomainError(f"initial amplitudes must be normalized, norm {nrm:.3e}")
    return c


def integrate_full(geom: CavityGeometry, initial: np.ndarray,
                   window: tuple[float, float] | None = None) -> Trajectory:
    """Integrate the exact single-excitation atom-photon dynamics.

      c0' = i delta c0 + (g . c_atoms)
      ck' = -g_k c0

    ``initial`` holds (c0, c1, c2, c3); the photon amplitude must start
    at zero for the usual protocol question, but any normalized vector
    is accepted.  The trajectory is stored at the solver's natural
    steps, which resolve the fast photon-amplitude oscillation.
    """
    c_init = _check_initial(initial, 4)
    t_a, t_b = window if window is not None else geom.window()
    delta = geom.delta
    z1, z2 = geom.z0
    g0, w, v, g3 = geom.g0, geom.w, geom.v, geom.g_trapped

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # y = (Re c, Im c); the sums g . c_atoms use np.dot, the reduction
        # numpy applies to each part of a complex g @ c, so the step
        # sequence is the one complex arithmetic gives
        g1 = g0 * math.exp(-((z1 + v * t) / w) ** 2)
        g2 = g0 * math.exp(-((z2 + v * t) / w) ** 2)
        g = np.array((g1, g2, g3))
        r0, i0 = float(y[0]), float(y[4])
        return np.array((g @ y[1:4] - delta * i0, -g1 * r0, -g2 * r0, -g3 * r0,
                         g @ y[5:8] + delta * r0, -g1 * i0, -g2 * i0, -g3 * i0))

    y0 = np.concatenate([c_init.real, c_init.imag])
    sol = solve_ivp(rhs, (t_a, t_b), y0, method="DOP853",
                    rtol=INTEGRATOR_RTOL, atol=INTEGRATOR_ATOL)
    if not sol.success:
        raise StiffnessError(
            "adaptive integrator failed; |delta| is probably too large for the "
            f"tolerance (|delta|/g0 = {abs(delta) / geom.g0:.3g}). Reduce the "
            "detuning ratio, shorten the window, or relax the tolerance. "
            f"Solver message: {sol.message}")
    c = sol.y[:4] + 1j * sol.y[4:]
    norms = np.linalg.norm(c, axis=0)
    return Trajectory(
        times=sol.t,
        amplitudes=c.T,
        max_photon_population=float(np.max(np.abs(c[0]) ** 2)),
        norm_drift=float(np.max(np.abs(norms - 1.0))),
    )


def effective_generator(geom: CavityGeometry, t: float) -> np.ndarray:
    """Instantaneous atom-only generator g_k g_j / delta (photon eliminated)."""
    g = _coupling_vector(geom, t)
    return np.outer(g, g) / geom.delta


def integrate_effective(geom: CavityGeometry, initial: np.ndarray,
                        window: tuple[float, float] | None = None) -> Trajectory:
    """Integrate the adiabatically eliminated dynamics i ck' = sum_j M_kj cj.

    The generator is Hermitian, so the atomic norm is conserved exactly
    (up to integrator error).
    """
    c_init = _check_initial(np.asarray(initial, dtype=complex), 3)
    t_a, t_b = window if window is not None else geom.window()

    inv_delta = 1.0 / geom.delta  # numpy's complex / real divides this way

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        # y = (Re c, Im c); c' = -i g (g.c) / delta with real g
        g = _coupling_vector(geom, t)
        s_re, s_im = np.dot(g, y[:3]), np.dot(g, y[3:])
        return np.concatenate([g * s_im * inv_delta, -g * s_re * inv_delta])

    y0 = np.concatenate([c_init.real, c_init.imag])
    sol = solve_ivp(rhs, (t_a, t_b), y0, method="DOP853",
                    rtol=INTEGRATOR_RTOL, atol=INTEGRATOR_ATOL)
    if not sol.success:
        raise StiffnessError(f"effective-dynamics integration failed: {sol.message}")
    c = sol.y[:3] + 1j * sol.y[3:]
    norms = np.linalg.norm(c, axis=0)
    return Trajectory(
        times=sol.t,
        amplitudes=c.T,
        max_photon_population=0.0,
        norm_drift=float(np.max(np.abs(norms - 1.0))),
    )


def solve_geometry(ell: float, w: float) -> float:
    """Spacing d that makes the conveyed-conveyed coupling coefficient 1.

    Requires 2 ell^2 >= w^2 ln 2; below that bound no spacing can
    compensate the pair overlap.
    """
    if w <= 0:
        raise GeometryError("waist w must be positive")
    if ell < 0:
        raise GeometryError("offset ell must be nonnegative")
    bound = w * math.sqrt(math.log(2.0) / 2.0)
    if ell < bound:
        raise GeometryError(
            f"ell = {ell:.6g} is below the feasibility bound w*sqrt(ln2/2) "
            f"= {bound:.6g}; the pair coupling cannot reach 1")
    return math.sqrt(2.0 * ell ** 2 - w ** 2 * math.log(2.0))


@dataclass(frozen=True)
class AsymptoticCouplings:
    """Transit-integrated coupling coefficients, checked against the closed form."""

    c_matrix: np.ndarray = field(repr=False)   # dimensionless coefficients
    max_rel_error: float                        # numeric vs closed form


def _c12_closed_form(geom: CavityGeometry) -> float:
    return (1.0 / math.sqrt(2.0)) * math.exp(
        (2.0 * geom.ell ** 2 - geom.d ** 2) / (2.0 * geom.w ** 2))


def asymptotic_hamiltonian(geom: CavityGeometry,
                           window: tuple[float, float] | None = None
                           ) -> AsymptoticCouplings:
    """Constant generator whose action over t' equals the transit integral.

    Numerically integrates every pairwise coupling product over the
    window and checks it against the closed-form Gaussian integrals;
    raises :class:`TruncationError` when the window clips more than
    TAIL_MASS_MAX of the products' mass.
    """
    t_a, t_b = window if window is not None else geom.window()
    # each conveyed atom must cross the waist inside the window, and the
    # window edges must sit far enough out that the clipped Gaussian
    # tails are negligible
    reach = math.inf
    for z in geom.z0:
        za, zb = z + geom.v * t_a, z + geom.v * t_b
        if not (za <= 0.0 <= zb):
            raise TruncationError(
                f"window [{t_a:.4g}, {t_b:.4g}] does not cover the waist "
                f"crossing of the atom starting at z0 = {z:.4g}")
        reach = min(reach, min(abs(za), abs(zb)) / geom.w)
    tail = math.erfc(reach)  # conservative envelope of the clipped mass
    if tail > TAIL_MASS_MAX:
        raise TruncationError(
            f"window clips coupling tails (erfc({reach:.3g}) = {tail:.3e}); "
            "widen the window")

    prefactor = geom.g0 ** 2 * math.exp(-(geom.ell / geom.w) ** 2) / geom.delta
    tp = geom.t_prime
    numeric = np.zeros((3, 3))
    for i in range(3):
        for k in range(i + 1, 3):
            val, _ = quad(
                lambda t, i=i, k=k: (_coupling_vector(geom, t)[i]
                                     * _coupling_vector(geom, t)[k]),
                t_a, t_b, limit=200)
            numeric[i, k] = numeric[k, i] = val / geom.delta

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


def _mean_endpoint(geom: CavityGeometry) -> np.ndarray:
    """Atomic amplitudes after one transit of the constant mean-coupling model."""
    return expm(-1j * _mean_hamiltonian_3(geom) * geom.t_prime) @ _C3


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
    eff = integrate_effective(geom, _C3)
    tp = geom.t_prime

    mean_end = _mean_endpoint(geom)
    u_xy = expm(-1j * _ring_exchange_3(geom) * tp)
    # single-excitation sector: the level-shift correction is the scalar
    # phase exp(-i J t')
    corrected_xy_end = np.exp(-1j * geom.j_effective * tp) * (u_xy @ _C3)

    full_atoms = full.endpoint[1:]

    # commutator smallness of the time-dependent eliminated generator,
    # diagonal removed (the pure exchange part)
    t_a, t_b = geom.window()
    ts = np.linspace(t_a, t_b, 25)
    mats = []
    for t in ts:
        m = effective_generator(geom, t)
        np.fill_diagonal(m, 0.0)
        mats.append(m)
    norm_max = max(np.linalg.norm(m, 2) for m in mats)
    comm_max = max(np.linalg.norm(m1 @ m2 - m2 @ m1, 2)
                   for i, m1 in enumerate(mats) for m2 in mats[i + 1:])

    couplings = asymptotic_hamiltonian(geom)
    gmax = peak_collective_coupling(geom)
    return AgreementReport(
        distance_full_mean=distance_mod_phase(full_atoms, mean_end),
        distance_full_mean_raw=float(np.linalg.norm(full_atoms - mean_end)),
        distance_full_effective=float(np.linalg.norm(full_atoms - eff.endpoint)),
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
    one exact integration per factor.  First-order elimination error
    means the distance should halve each time the detuning doubles.
    """
    out = []
    for fac in factors:
        g = replace(geom, delta=geom.delta * fac)
        full_atoms = integrate_full(g, _C4).endpoint[1:]
        out.append((g.delta, distance_mod_phase(full_atoms, _mean_endpoint(g))))
    return out
