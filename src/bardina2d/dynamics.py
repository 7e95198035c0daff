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

The kernel's rows are core rows (see `basis`): the plan core's own
coefficients, then the harmonic pair, the slot rows on the sphere and the
torus matrix M flat.  Every operator above is diagonal in them, with lam
0 on the pair, so the kernel finishes each row in one pass over all its
columns.  What it needs of a run's plan and parameters besides the rows,
the forcing (psi_f, f2) as a core row and the Helmholtz divisor
1 + alpha^2 lam per column, is built once per run by `run_constants`, and
`remainder` wraps the kernel for a run with them.  On both geometries the
core's row synthesis returns the gradient grids as grad psi - n x h =
-(n x u), the harmonic pair already in them (on the torus the transform's
own products add it), so the product is formed on those grids with no
pass of its own, the analysis returns -P and -Q, and the kernel finishes
each row in place with no negation pass.  `rhs_u`, `rhs_tangent`,
`nonlinear_term` and `prepared_rhs` take and return states in slot order
and convert at their edges.

The prepared variant evolves v directly on the sphere with the nonlinear and
forcing terms multiplied by a smooth cutoff of |v| / rho, which makes every
large ball positively invariant while leaving the dynamics untouched inside
the ball of radius rho.
"""

from __future__ import annotations

import math
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


def product_error(lambda_1, nu, alpha):
    """(key, why) when lambda_1 or a product that the energy bounds divide
    by (alpha^2, lambda_1 alpha^2, nu alpha^2, nu^2 alpha^2) is 0 or not
    finite, else None; key is the parameter at fault."""
    a2 = alpha * alpha
    for key, name, value in (
        ("length", "lambda_1", lambda_1),
        ("alpha", "alpha^2", a2),
        ("alpha", "lambda_1 alpha^2", lambda_1 * a2),
        ("nu", "nu alpha^2", nu * a2),
        ("nu", "nu^2 alpha^2", nu * nu * a2),
    ):
        if not 0.0 < value < math.inf:
            return key, (
                f"{name} is {value} at nu = {nu}, alpha = {alpha}, lambda_1 = {lambda_1}; "
                "the energy bounds divide by it"
            )
    return None


def validate_params(plan, params):
    """Parameter sanity shared by integrators, envelopes, and the CLI."""
    for key in MODEL_PARAMS:
        why = param_error(plan.geometry.kind, key, getattr(params, key))
        if why:
            raise ConfigurationError(f"{key} {why}")
    found = product_error(plan.lambda_1, params.nu, params.alpha)
    if found:
        key, why = found
        raise ConfigurationError(f"{key}: {why}")
    forcing_state(plan, params.forcing)


# ---------------------------------------------------------------------------
# nonlinearity


def _product_parts(plan, rows):
    """-P and -Q of zeta (n x u) on row 0 and of Ntilde(u, U) on rows 1..,
    as core rows.

    The rows run through the plan core's row transforms directly, their
    width checked here once, with the core workspace of their row count,
    looked up here once for both.  With u = n x grad psi + h, the row
    synthesis writes the vorticity and grad psi - n x h = -(n x u) into
    the workspace's `grids`, and the product goes into its `g`, through
    the views the workspace binds, component by component.  The sign
    stays with the analyzed rows, far fewer than grid points.
    """
    core = plan.core
    if rows.shape[1:] != (core.ncols,):
        raise ShapeError(
            f"row shape {rows.shape} does not match the plan core's {core.ncols} columns"
        )
    ws = core.workspace(len(rows))
    core.row_synthesis(rows, ws, ws.grids)
    for g, grad0 in ws.products:
        np.multiply(ws.zeta, grad0, out=g)
    if len(rows) > 1:  # trajectories step one-row stacks; skip the empty product
        for grad in ws.tangents:
            np.multiply(grad, ws.zeta0, out=grad)
        np.add(ws.g_rest, ws.grad_rest, out=ws.g_rest)
    return core.row_analysis(ws.g, ws)


def nonlinear_term(plan, state):
    """B(u, u) = (P + Q)(zeta * (n x u)) with zeta * (n x u) formed pointwise."""
    core = plan.core
    rows = core.to_rows(state.psi[None], state.harmonic[None])
    p, q = core.from_rows(_product_parts(plan, rows))
    return NonlinearSplit(-p[0], -q[0])


# ---------------------------------------------------------------------------
# tendencies


@dataclass(frozen=True)
class RunConstants:
    """What `_remainder_u` needs of one run's plan and parameters, per
    column of the core rows: the row-0 forcing psi_f and h_f = f2, and the
    Helmholtz divisor 1 + alpha^2 lam, exactly 1 on the harmonic columns,
    as one row, which a one-row stack divides by on numpy's fast path."""

    forcing: np.ndarray
    divisor: np.ndarray


def run_constants(plan, params):
    """The `RunConstants` of (plan, params), built once per run."""
    f = forcing_state(plan, params.forcing)
    core = plan.core
    return RunConstants(
        core.to_rows(f.psi[None], f.harmonic[None])[0],
        (1.0 + params.alpha**2 * core.row_lam)[None],
    )


def remainder(plan, params):
    """rem(rows) -> `_remainder_u` of stacked core rows, for one run.

    The run constants are built here once; each call goes through the
    module attribute `_remainder_u`.
    """
    run = run_constants(plan, params)

    def rem(rows):
        return _remainder_u(plan, rows, params, run)

    return rem


def _remainder_u(plan, rows, params, run):
    """Non-stiff tendency of stacked core rows; the integrator exponentiates -nu lam.

    Row 0 is the base state with the forcing; rows 1.. are its tangents.
    `run` is `run_constants(plan, params)`.  Each row is formed in place on
    the -P, -Q of `_product_parts`, in one pass over all its columns, as
    ((f - P) - sigma x) / (1 + alpha^2 lam), f the forcing row on row 0
    and 0 on the others: on the harmonic columns lam is 0, so they read
    (f2 - Q) - sigma h.
    """
    p = _product_parts(plan, rows)
    p[0] += run.forcing
    p -= np.multiply(params.sigma, rows)
    p /= run.divisor
    return p


def _slot_tendencies(plan, params, psis, hs):
    """from_rows of the remainder of the stacked states (psis, hs)."""
    core = plan.core
    return core.from_rows(remainder(plan, params)(core.to_rows(psis, hs)))


def full_tendency(plan, params, dpsi, dh, psi):
    """The full tendency of a state with streamfunction psi, from the
    slot-order remainder (dpsi, dh): the stiff term -nu lam psi added."""
    return ops.VelocityState(dpsi - params.nu * plan.lam * psi, dh)


def rhs_u(plan, state, params):
    """Full tendency of the evolved state, stiff linear part included."""
    dpsi, dh = _slot_tendencies(plan, params, state.psi[None], state.harmonic[None])
    return full_tendency(plan, params, dpsi[0], dh[0], state.psi)


def rhs_tangent(plan, delta, state, params):
    """Full tangent tendency at base state `state` (forcing drops out)."""
    ops._check(plan, state)
    ops._check(plan, delta)
    psis = np.stack((state.psi, delta.psi))
    hs = np.stack((state.harmonic, delta.harmonic))
    dpsis, dhs = _slot_tendencies(plan, params, psis, hs)
    return full_tendency(plan, params, dpsis[1], dhs[1], delta.psi)


# ---------------------------------------------------------------------------
# prepared equation (sphere)


def cutoff_theta(x):
    """Smooth cutoff: 1 on (-inf, 1], 0 on [2, inf), cubic blend between."""
    x = np.asarray(x, dtype=np.float64)
    t = np.clip(x - 1.0, 0.0, 1.0)
    out = 1.0 - t * t * (3.0 - 2.0 * t)
    return out if out.ndim else float(out)


def _remainder_prepared(plan, vrows, rho, run):
    """Non-stiff tendency theta (psi_f - P) of the prepared equation on a
    one-row stack of core rows, which on the sphere are the slot rows, P
    that of u = v / (1 + alpha^2 lam); `run` is
    `run_constants(plan, params)`."""
    p = _product_parts(plan, vrows / run.divisor)
    nv = float(np.sqrt(np.dot(plan.lam * vrows[0], vrows[0])))
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
    core = plan.core
    vrows = core.to_rows(vstate.psi[None], np.zeros((1, 0)))
    dpsi, _ = core.from_rows(_remainder_prepared(plan, vrows, rho, run_constants(plan, params)))
    return full_tendency(plan, params, dpsi[0], np.zeros(0), vstate.psi)
