"""Model tendencies: nonlinearity, filtered momentum equation, tangent flow.

The evolved variable is the unfiltered velocity u.  With v = (I + alpha^2 A) u
the momentum equation

    dv/dt + nu A v + B(u, u) + sigma u = f,    B(u, u) = (P + Q)(Curl_n u x u)

becomes, mode by mode in streamfunction coefficients,

    dpsi/dt = -nu lam psi + (f1 - Np - sigma psi) / (1 + alpha^2 lam)

with f1 here the streamfunction representation of the rotational forcing, and
for the harmonic component on the torus dh/dt = f2 - sigma h - Nq.  The
nonlinearity is evaluated pointwise on the grid as zeta * (n x u) and split
into its Leray and harmonic projections; the grids are large enough that this
product analyzes onto every retained mode without aliasing.

The tangent flow linearizes the nonlinearity to

    Ntilde(u, U) = zeta_U (n x u) + zeta_u (n x U)

with the forcing removed and the drag acting on the perturbation.  One
kernel, `_remainder_u`, evaluates both on stacked rows: row 0 is the base
state u, rows 1.. are tangents U linearized about row 0, and the forcing
acts on row 0 only.  All rows share one flow synthesis and one flow
analysis.  A trajectory steps a one-row stack; the Lyapunov ensemble steps
the base state with its tangents.

What the kernel needs of a run's plan and parameters besides the rows, the
forcing psi_f and the Helmholtz divisor 1 + alpha^2 lam, is built once per
run by `run_constants`, and `remainder` wraps the kernel for a run with
them.  On both geometries the product is formed on
grad psi - n x h = -(n x u), so the analysis returns -P and -Q, and the
kernel finishes each row in place with no negation pass.

The prepared variant evolves v directly on the sphere with the nonlinear and
forcing terms multiplied by a smooth cutoff of |v| / rho, which makes every
large ball positively invariant while leaving the dynamics untouched inside
the ball of radius rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis
from . import operators as ops
from .errors import ConfigurationError, ShapeError, UnsupportedGeometryError


@dataclass
class Forcing:
    """Rotational forcing by its scalar Curl_n coefficients, plus harmonic pair."""

    f1_curl: np.ndarray
    f2: np.ndarray


@dataclass
class ModelParams:
    nu: float
    alpha: float
    sigma: float
    forcing: Forcing


@dataclass
class NonlinearSplit:
    """Leray part as streamfunction coefficients, harmonic part as a pair."""

    p_part: np.ndarray
    q_part: np.ndarray


def zero_forcing(plan):
    return Forcing(np.zeros(plan.n_modes), np.zeros(plan.n_harmonic))


def forcing_state(plan, forcing):
    """The forcing as a velocity state: psi_f = -f1_curl / lam, harmonic = f2."""
    if forcing.f1_curl.shape != (plan.n_modes,) or forcing.f2.shape != (plan.n_harmonic,):
        raise ShapeError("forcing arrays do not match plan")
    return ops.VelocityState(-forcing.f1_curl / plan.lam, forcing.f2.copy())


MODEL_PARAMS = ("nu", "alpha", "sigma")


def param_error(kind, key, value):
    """Why model parameter `key` may not be `value` on geometry `kind`, or None.

    nu and alpha must be positive.  sigma must be nonnegative, and positive
    on the torus, where it alone damps the harmonic component.
    """
    if key == "sigma" and kind != basis.TORUS:
        return None if value >= 0.0 else f"must be nonnegative, got {value}"
    return None if value > 0.0 else f"must be positive, got {value}"


def validate_params(plan, params):
    """Parameter sanity shared by integrators, envelopes, and the CLI."""
    for key in MODEL_PARAMS:
        why = param_error(plan.geometry.kind, key, getattr(params, key))
        if why:
            raise ConfigurationError(f"{key} {why}")
    forcing_state(plan, params.forcing)


# ---------------------------------------------------------------------------
# nonlinearity


def _product_parts(plan, psis, hs):
    """-P and -Q of zeta (n x u) on row 0 and of Ntilde(u, U) on rows 1..

    The rows run through the plan core's transforms directly, checked here
    once.  With u = n x grad psi + h, the product takes
    grad psi - n x h = -(n x u), formed in place of the gradient grids,
    which the core workspace's `grids` holds, and the product in its `g`,
    through the views the workspace binds.  The sign stays with the
    analyzed rows, far fewer than grid points.
    """
    if psis.shape[1:] != (plan.n_modes,) or hs.shape != (len(psis), plan.n_harmonic):
        raise ShapeError(
            f"row shapes {psis.shape}/{hs.shape} do not match plan "
            f"({plan.n_modes} modes, {plan.n_harmonic} harmonic)"
        )
    core = plan.core
    ws = core.workspace(len(psis))
    core.flow_synthesis(psis, ws.grids)
    if plan.n_harmonic:
        # n x h = (-h_y, h_x)
        np.add(ws.grad_x, hs[:, 1, None, None], out=ws.grad_x)
        np.subtract(ws.grad_y, hs[:, 0, None, None], out=ws.grad_y)
    g = np.multiply(ws.zeta, ws.grad0, out=ws.g)
    if len(g) > 1:  # trajectories step one-row stacks; skip the empty product
        ws.g_rest += np.multiply(ws.zeta0, ws.grad_rest, out=ws.grad_rest)
    return core.flow_analysis(g)


def nonlinear_term(plan, state):
    """B(u, u) = (P + Q)(zeta * (n x u)) with zeta * (n x u) formed pointwise."""
    p, q = _product_parts(plan, state.psi[None], state.harmonic[None])
    return NonlinearSplit(-p[0], -q[0])


# ---------------------------------------------------------------------------
# tendencies


@dataclass(frozen=True)
class RunConstants:
    """What `_remainder_u` needs of one run's plan and parameters: the row-0
    forcing psi_f and the Helmholtz divisor 1 + alpha^2 lam."""

    forcing: np.ndarray
    divisor: np.ndarray


def run_constants(plan, params):
    """The `RunConstants` of (plan, params), built once per run."""
    return RunConstants(
        forcing_state(plan, params.forcing).psi, 1.0 + params.alpha**2 * plan.lam
    )


def remainder(plan, params):
    """rem(psis, hs) -> `_remainder_u` of stacked rows, for one run.

    The run constants are built here once; each call goes through the
    module attribute `_remainder_u`.
    """
    run = run_constants(plan, params)

    def rem(psis, hs):
        return _remainder_u(plan, psis, hs, params, run)

    return rem


def _remainder_u(plan, psis, hs, params, run):
    """Non-stiff tendency of stacked rows; the integrator exponentiates -nu lam.

    Row 0 is the base state with the forcing; rows 1.. are its tangents.
    `run` is `run_constants(plan, params)`.  Each row is formed in place on
    the -P of `_product_parts` as ((psi_f - P) - sigma psi) / (1 + alpha^2 lam),
    without psi_f on rows 1..; the harmonic rows are (f2 - sigma h) - Q on
    row 0 and -sigma h - Q on the others.
    """
    p, q = _product_parts(plan, psis, hs)
    p[0] += run.forcing
    p -= np.multiply(params.sigma, psis)
    p /= run.divisor
    if plan.n_harmonic:
        dh = np.multiply(hs, -params.sigma)
        dh[0] += params.forcing.f2
        q = np.add(dh, q, out=dh)
    return p, q


def rhs_u(plan, state, params):
    """Full tendency of the evolved state, stiff linear part included."""
    dpsi, dh = remainder(plan, params)(state.psi[None], state.harmonic[None])
    return ops.VelocityState(dpsi[0] - params.nu * plan.lam * state.psi, dh[0])


def rhs_tangent(plan, delta, state, params):
    """Full tangent tendency at base state `state` (forcing drops out)."""
    ops._check(plan, state)
    ops._check(plan, delta)
    rem = remainder(plan, params)
    psis = np.stack((state.psi, delta.psi))
    hs = np.stack((state.harmonic, delta.harmonic))
    dpsis, dhs = rem(psis, hs)
    return ops.VelocityState(dpsis[1] - params.nu * plan.lam * delta.psi, dhs[1])


# ---------------------------------------------------------------------------
# prepared equation (sphere)


def cutoff_theta(x):
    """Smooth cutoff: 1 on (-inf, 1], 0 on [2, inf), cubic blend between."""
    x = np.asarray(x, dtype=np.float64)
    t = np.clip(x - 1.0, 0.0, 1.0)
    out = 1.0 - t * t * (3.0 - 2.0 * t)
    return out if out.ndim else float(out)


def _remainder_prepared(plan, vpsis, rho, run):
    """Non-stiff tendency theta (psi_f - P) of the prepared equation on a
    one-row stack, P that of u = v / (1 + alpha^2 lam); `run` is
    `run_constants(plan, params)`."""
    p, _ = _product_parts(plan, vpsis / run.divisor, np.zeros((1, 0)))
    nv = float(np.sqrt(np.dot(plan.lam * vpsis[0], vpsis[0])))
    return cutoff_theta(nv / rho) * (p + run.forcing)


def prepared_rhs(plan, vstate, params, rho):
    """Tendency of the prepared v-equation; requires the sphere and sigma = 0.

    dv/dt = -nu A v - theta(|v| / rho) (B(u, u) - f),  u = (I + alpha^2 A)^-1 v.
    """
    if plan.geometry.kind != basis.SPHERE:
        raise UnsupportedGeometryError("the prepared equation is defined on the sphere")
    ops._check(plan, vstate)  # the filter inversion would broadcast a bad row first
    if not rho > 0.0:
        raise ConfigurationError(f"rho must be positive, got {rho}")
    if params.sigma != 0.0:
        raise ConfigurationError("the prepared equation carries no drag; set sigma = 0")
    run = run_constants(plan, params)
    dpsi = _remainder_prepared(plan, vstate.psi[None], rho, run)[0]
    return ops.VelocityState(dpsi - params.nu * plan.lam * vstate.psi, np.zeros(0))
