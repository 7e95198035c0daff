"""Closed-form dissipativity constants, absorbing radii, and dimension bounds.

Everything here is pure arithmetic on the model parameters and a handful of
spectral norms of the forcing.  The conventions:

  * L1 drives the energy level |u|^2 + alpha^2 ||u||^2 with decay rate
    delta; L2 drives ||u||^2 + alpha^2 |Au|^2 with rate delta'.
  * With drag (sigma > 0): delta = min(nu lambda_1, sigma) and
    delta' = min(3 nu lambda_1 / 2, 2 sigma).  Without drag the harmonic
    space must be trivial (sphere), and both rates are nu lambda_1.
  * Absorbing radii double the half-radius limits of the corresponding
    Gronwall envelopes.
  * N* is the zero crossing of the q_N majorant
        q_N <= -(nu/2) k2 lambda_1 N^2
              + (k1/(4 nu)) (1 + 1/(lambda_1 alpha^2)) X,
    where X majorizes the time average of ||u||^2 / 2; the positive root
    gives N* = [k1/(2 k2 lambda_1 nu^2) (1 + 1/(lambda_1 alpha^2)) X]^(1/2).
    The +1/2 exponent is forced by that solve; reports carry a note since
    the opposite sign is sometimes quoted for this family of bounds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import basis
from .errors import ConfigurationError, UnsupportedGeometryError

K1_SLT = 3.0 / (2.0 * np.pi)

EXPONENT_NOTE = (
    "N* uses the +1/2 exponent: it is the positive root of the zero crossing "
    "of the q_N majorant; a -1/2 exponent would not solve q_N(N*) = 0."
)
SQUEEZING_NOTE = (
    "the squeezing rate b_n of the exponential tracking property has no "
    "closed form here; not computable"
)


# ---------------------------------------------------------------------------
# forcing norms


@dataclass(frozen=True)
class ForcingNorms:
    """Spectral norms of the body force f = f1 + f2.

    f1 is the rotational part (stored through Curl_n f1), f2 the harmonic
    part.  All values are L2 norms over the manifold: |f1|, |A^(-1/2) f1|,
    |A^(-1) f1|, |f2|.
    """

    f1: float
    f1_half_inv: float
    f1_inv: float
    f2: float

    @property
    def total(self):
        return float(np.hypot(self.f1, self.f2))


def forcing_norms(plan, forcing):
    """Exact modewise norms; |A^s f1|^2 = sum c^2 lam^(2s - 1) for c = Curl_n f1."""
    c2 = forcing.f1_curl**2
    f1 = np.sqrt(np.sum(c2 / plan.lam))
    f1_half = np.sqrt(np.sum(c2 / plan.lam**2))
    f1_inv = np.sqrt(np.sum(c2 / plan.lam**3))
    f2 = np.sqrt(plan.area * np.sum(forcing.f2**2)) if plan.n_harmonic else 0.0
    return ForcingNorms(float(f1), float(f1_half), float(f1_inv), float(f2))


# ---------------------------------------------------------------------------
# dissipativity constants


@dataclass(frozen=True)
class DissipativityConstants:
    lambda_1: float
    delta: float
    delta_prime: float
    l1: float
    l2: float
    k1: float
    k2: float
    k2_direct: bool  # torus: k2 recovered from the direct N^2 inequality


def constants(plan, params, norms=None):
    """Decay rates, source levels, and the trace-inequality constants.

    Without drag (sphere only) the rates are nu lambda_1 and L1 keeps the
    single |A^(-1) f1|^2/(nu alpha^2) form of the undamped energy estimate;
    with drag both L1 branches compete and the harmonic forcing adds
    |f2|^2 / sigma.
    """
    if norms is None:
        norms = forcing_norms(plan, params.forcing)
    lam1 = plan.lambda_1
    nu, al, sg = params.nu, params.alpha, params.sigma
    if sg == 0.0:
        if plan.n_harmonic:
            raise ConfigurationError("sigma = 0 leaves the harmonic part undamped")
        delta = delta_p = nu * lam1
        l1 = norms.f1_inv**2 / (nu * al**2)
    else:
        delta = min(nu * lam1, sg)
        delta_p = min(1.5 * nu * lam1, 2.0 * sg)
        l1 = min(norms.f1_inv**2 / (nu * al**2), norms.f1_half_inv**2 / nu)
        l1 += norms.f2**2 / sg
    l2 = min(norms.f1_half_inv**2 / (nu * al**2), norms.f1**2 / nu)
    if plan.geometry.kind == basis.SPHERE:
        k2, direct = 0.25, False
    else:
        # sum(lam_i) >= k2 lam_1 N^2 recovered from the direct bound
        # q_N <= -nu pi N^2 / (6 L^2): k2 lam_1 = pi / (3 L^2)
        k2, direct = 1.0 / (12.0 * np.pi), True
    return DissipativityConstants(lam1, delta, delta_p, l1, l2, K1_SLT, k2, direct)


# ---------------------------------------------------------------------------
# absorbing radii


@dataclass(frozen=True)
class AbsorbingRadii:
    """Ball radii absorbing the flow after transients (twice the limsup bounds).

    rho0: |u| ball; rho1: ||u|| ball from the energy level; rho1_tilde:
    ||u|| ball from the enstrophy level; rho2: |Au| ball.  rho_v_sum =
    rho0 + alpha^2 rho2 bounds |v| by the triangle inequality applied to
    the doubled radii; rho_v_half is the same combination of the raw
    half-radius limits.  Both conventions appear downstream, so both are
    reported.
    """

    rho0: float
    rho1: float
    rho1_tilde: float
    rho2: float
    rho_v_sum: float
    rho_v_half: float


def radii_from_constants(c, al):
    """The `AbsorbingRadii` of `DissipativityConstants` c at filter width al."""
    shell = 1.0 + al**2 * c.lambda_1
    rho0 = 2.0 * np.sqrt(c.l1 / (shell * c.delta))
    rho1 = 2.0 * np.sqrt(c.l1 / (al**2 * c.delta))
    rho1t = 2.0 * np.sqrt(c.l2 / (shell * c.delta_prime))
    rho2 = 2.0 * np.sqrt(c.l2 / (al**2 * c.delta_prime))
    rho_sum = rho0 + al**2 * rho2
    return AbsorbingRadii(rho0, rho1, rho1t, rho2, rho_sum, 0.5 * rho_sum)


# ---------------------------------------------------------------------------
# Grashof numbers and attractor dimension bounds


def grashof(nu, f_total):
    """G = |f| / nu^2."""
    return f_total / nu**2


def nstar_generic(nu, alpha, lambda_1, k1, k2, l2_over_deltap):
    """Positive root of the q_N majorant zero crossing."""
    x = k1 / (2.0 * k2 * lambda_1 * nu**2)
    x *= 1.0 + 1.0 / (lambda_1 * alpha**2)
    return float(np.sqrt(x * l2_over_deltap))


def sphere_enstrophy_levels(nu, alpha, norms):
    """The two successive majorants of L2/delta' used on the sphere.

    tight: |A^(-1/2) f|^2 / (4 nu^2 alpha^2); loose: |f|^2 / (8 nu^2 alpha^2)
    (the second follows from the first via |A^(-1/2) f|^2 <= |f|^2 / lambda_1).
    """
    tight = norms.f1_half_inv**2 / (4.0 * nu**2 * alpha**2)
    loose = norms.f1**2 / (8.0 * nu**2 * alpha**2)
    return tight, loose


def nstar_sphere(nu, alpha, f_total):
    """Closed form on the unit sphere: sqrt(3) G / (4 sqrt(pi) alpha) shell factor."""
    g = grashof(nu, f_total)
    return float(np.sqrt(3.0) * g / (4.0 * np.sqrt(np.pi) * alpha) * np.sqrt(1.0 + 0.5 / alpha**2))


def nstar_torus(nu, alpha, length, f_total):
    g = grashof(nu, f_total)
    shell = np.sqrt(1.0 + length**2 / (4.0 * np.pi**2 * alpha**2))
    return float(3.0 * np.sqrt(2.0) * length**3 / (16.0 * np.pi**3 * alpha) * shell * g)


def attractor_bound(plan, params, norms=None):
    """Dimension bound N*: the closed form of the plan geometry."""
    if norms is None:
        norms = forcing_norms(plan, params.forcing)
    if plan.geometry.kind == basis.SPHERE:
        return nstar_sphere(params.nu, params.alpha, norms.total)
    return nstar_torus(params.nu, params.alpha, plan.geometry.length, norms.total)


# ---------------------------------------------------------------------------
# inertial manifold report (sphere)


@dataclass(frozen=True)
class InertialReport:
    """Spectral gaps against the Lipschitz scale of the prepared nonlinearity.

    gaps[n - 1] = lambda_(n+1) - lambda_n = 2 (n + 1) on the sphere.  The
    cutoff nonlinearity is Lipschitz with constant
    ell = c lambda_1^(-1) alpha^(-4) (4 rho), both arguments living in the
    invariant ball of radius 2 rho.  crossing is the first shell whose gap
    clears 2 ell / nu (the classical sufficient condition; the constant c
    is an input, not derived).
    """

    gaps: np.ndarray
    ell: float
    rho: float
    c: float
    crossing: int
    squeezing_note: str = SQUEEZING_NOTE


def inertial_report(plan, params, rho, n_max=32, c=1.0):
    if plan.geometry.kind != basis.SPHERE:
        raise UnsupportedGeometryError("spectral gaps grow only on the sphere")
    if not c > 0.0:
        raise ConfigurationError(f"the Lipschitz input constant must be positive, got {c}")
    if rho < 0.0:
        raise ConfigurationError(f"rho must be nonnegative, got {rho}")
    # alpha^2 passed the parser, but alpha^4 may underflow or overflow
    try:
        ell = c * (4.0 * float(rho)) / (plan.lambda_1 * params.alpha**4)
    except (OverflowError, ZeroDivisionError):
        ell = math.inf
    if not 0.0 <= ell < math.inf:
        raise ConfigurationError(
            f"alpha: ell = c (4 rho) / (lambda_1 alpha^4) is not finite at alpha = {params.alpha}"
        )
    ns = np.arange(1, n_max + 1)
    gaps = 2.0 * (ns + 1.0)
    ok = np.nonzero(gaps > 2.0 * ell / params.nu)[0]
    crossing = int(ns[ok[0]]) if ok.size else -1
    return InertialReport(gaps, float(ell), float(rho), float(c), crossing)


# ---------------------------------------------------------------------------
# assembled report


def bounds_report(plan, params, n_max=32, c=1.0):
    """Self-describing dict of every constant, radius, and bound (JSON-ready).

    The `DissipativityConstants` and `AbsorbingRadii` enter under their
    field names, `k2_direct` alone renamed to `k2_from_direct_inequality`;
    the inputs carry each `ForcingNorms` field f as `f_norm`.  On the sphere
    `inertial` is the `InertialReport`, its gaps as a list.
    """
    norms = forcing_norms(plan, params.forcing)
    con = constants(plan, params, norms)
    out = {
        "inputs": {
            "geometry": plan.geometry.kind,
            "length": plan.geometry.length,
            "truncation": plan.truncation,
            "nu": params.nu,
            "alpha": params.alpha,
            "sigma": params.sigma,
            **{f"{key}_norm": value for key, value in asdict(norms).items()},
            "f_total_norm": norms.total,
            "lipschitz_c": c,
        },
        **asdict(con),
        **asdict(radii_from_constants(con, params.alpha)),
        "grashof": grashof(params.nu, norms.total),
        "nstar": attractor_bound(plan, params, norms),
        "average_enstrophy_bound": 2.0 * con.l2 / con.delta_prime,
        "exponent_note": EXPONENT_NOTE,
    }
    out["k2_from_direct_inequality"] = out.pop("k2_direct")
    if plan.geometry.kind == basis.SPHERE:
        tight, loose = sphere_enstrophy_levels(params.nu, params.alpha, norms)
        out["l2_over_deltap_tight"] = tight
        out["l2_over_deltap_loose"] = loose
        rep = inertial_report(plan, params, out["rho_v_sum"], n_max=n_max, c=c)
        out["inertial"] = {**asdict(rep), "gaps": rep.gaps.tolist()}
    return out
