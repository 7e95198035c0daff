"""Integrating-factor time stepping for the semilinear mode system.

The stiff Stokes part -nu lam psi is removed exactly by the integrating
factor exp(-nu lam t); the remaining tendency (forcing, drag, nonlinearity,
all divided by the Helmholtz multiplier) is advanced with either forward
Euler or the classical four-stage Runge-Kutta rule applied in the
transformed variable:

    if-euler   psi+ = exp(-nu lam dt) (psi + dt G(psi))
    if-rk4     RK4 on w(t) = exp(nu lam t) psi(t)

The harmonic component carries no stiff part and is stepped with the same
rule using its full tendency.  Step size is fixed; a run either completes
or raises DivergenceError at the first non-finite state.

One loop, `_run_loop`, makes every step and is the one place a divergence
is caught.  It steps stacked core rows (row 0 the state, rows 1.. any
tangents; see `basis`), one array whose decay factors are exactly 1 on the
harmonic columns, so one formula steps both parts, and yields the live
rows at each sample; a caller may change them in place before the next
step, which is how lyapunov.benettin_run renormalizes its tangents.  A
one-row run converts at its samples only: each sample is the slot state
from_rows(rows), and the run continues from to_rows of it, which is where
a run resumed from that sample starts, so the resume reproduces the
continuation bit for bit.  `samples` yields a one-row run's samples one at
a time, so a caller that keeps only the latest (the CLI's `simulate`, and
the envelope and decay checks of `verify` and `selftest`) runs in memory
that does not grow with the run length; `run_prepared` yields the
prepared equation's samples the same way.

Observers are called as obs(t, state, tend) at every sample, before it is
yielded, where `tend` is the full tendency of `state` (what dynamics.rhs_u
returns for it, bit for bit).  A sampled state's tendency is evaluated
once: its non-stiff part is the first stage of the step that follows, so a
sampled run makes one extra right-hand side only for the final sample, and
only when there are observers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from . import dynamics as dyn
from .errors import ConfigurationError, DivergenceError

IF_EULER = "if-euler"
IF_RK4 = "if-rk4"


@dataclass
class SchemeConfig:
    dt: float
    t_end: float
    method: str = IF_RK4
    stride: int = 1

    def __post_init__(self):
        if self.method not in (IF_EULER, IF_RK4):
            raise ConfigurationError(f"unknown scheme method {self.method!r}")
        if not self.dt > 0.0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0.0:
            raise ConfigurationError(f"t_end must be nonnegative, got {self.t_end}")
        if self.stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {self.stride}")


def step_pair(rows, dt, e_full, e_half, rem, method, first=None):
    """One integrating-factor step of dx/dt = -r x + G(x) on stacked core rows.

    `rem(rows) -> G` is the non-stiff tendency; e_full/e_half are
    exp(-r dt) and exp(-r dt/2) per column, exactly 1 on the harmonic
    columns, which so step by the plain rule.  `first`, when given, is
    rem(rows) already evaluated and is used as the first stage.  Each stage
    state is passed to `rem` and dropped, so at most one is alive at a time.
    """
    g1 = rem(rows) if first is None else first
    if method == IF_EULER:
        return e_full * (rows + dt * g1)
    g2 = rem(e_half * (rows + 0.5 * dt * g1))
    g3 = rem(e_half * rows + 0.5 * dt * g2)
    decayed = e_full * rows
    g4 = rem(decayed + dt * (e_half * g3))
    return decayed + (dt / 6.0) * (e_full * g1 + 2.0 * (e_half * (g2 + g3)) + g4)


def decay_factors(plan, nu, dt):
    """(exp(-nu lam dt), exp(-nu lam dt / 2)) per column of the core rows."""
    r = nu * plan.core.row_lam
    return np.exp(-dt * r), np.exp(-0.5 * dt * r)


def _count_steps(span, dt, what):
    steps = span / dt
    if not np.isfinite(steps):
        raise ConfigurationError(f"{what}={span} is not a finite number of steps of dt={dt}")
    n = int(round(steps))
    if abs(n * dt - span) > 1e-9 * max(dt, abs(span)):
        raise ConfigurationError(
            f"{what}={span} is not an integer number of steps of dt={dt}"
        )
    return n


def _step_range(scheme, t_start):
    """(base, n_steps): t_start and the run length in steps of scheme.dt."""
    n_steps = _count_steps(scheme.t_end - t_start, scheme.dt, "t_end - t_start")
    return _count_steps(t_start, scheme.dt, "t_start"), n_steps


# the steps' errstate: a finite state near overflow overflows in a stage of
# the next step and surfaces as its DivergenceError, not as a warning
_STEP_ERRSTATE = {"over": "ignore", "invalid": "ignore"}


def _run_loop(rows, rem, decay, scheme, steps):
    """Yield (t, rows, first) at every sample of the stacked core rows.

    Samples are made at multiples of scheme.stride and at the final step;
    `steps` is `_step_range`'s (base, n_steps).  rows are the live rows.
    `first()` evaluates rem(rows) once, and the next step reuses it as its
    first stage.  A caller may change the rows in place before it calls
    first(), or without calling it: the next step starts from the changed
    rows.  Raises DivergenceError at the first non-finite state.
    """
    base, n_steps = steps
    e_full, e_half = (e.reshape(1, -1) for e in decay)  # one row, as the divisor
    g1 = None

    def first():
        nonlocal g1
        if g1 is None:
            with np.errstate(**_STEP_ERRSTATE):
                g1 = rem(rows)
        return g1

    for k in range(n_steps + 1):
        if k:
            with np.errstate(**_STEP_ERRSTATE):
                rows = step_pair(rows, scheme.dt, e_full, e_half, rem, scheme.method, g1)
            if not np.isfinite(rows).all():
                raise DivergenceError((base + k) * scheme.dt)
            g1 = None
        if k % scheme.stride == 0 or k == n_steps:
            yield (base + k) * scheme.dt, rows, first


def _one_row(plan, params, state, rem, scheme, steps, observers):
    """Yield (t, state) for a one-row run, each sample a state of its own.

    The first sample is the start state.  At every later one the core row
    goes back to slot order, and the run continues from that sampled
    state's row, as a run resumed from it starts: so a resume from any
    sample reproduces the continuation bit for bit.  Each sample's
    observers are called before it is yielded, with the full tendency: the
    sample's first() in slot order plus the stiff term, added as
    dynamics.rhs_u adds it.
    """
    core = plan.core
    psis, hs = state.psi[None].copy(), state.harmonic[None].copy()
    loop = _run_loop(
        core.to_rows(psis, hs),
        rem,
        decay_factors(plan, params.nu, scheme.dt),
        scheme,
        steps,
    )
    stiff = params.nu * plan.lam
    for k, (t, rows, first) in enumerate(loop):
        if k:
            psis, hs = core.from_rows(rows)
            rows[...] = core.to_rows(psis, hs)
        st = ops.VelocityState(psis[0], hs[0])
        if observers:
            # near overflow the observers' norms overflow as the step does
            with np.errstate(**_STEP_ERRSTATE):
                dpsi, dh = core.from_rows(first())
                tend = ops.VelocityState(dpsi[0] - stiff * psis[0], dh[0])
                for obs in observers:
                    obs(t, st, tend)
        yield t, st


def samples(plan, state, params, scheme, observers=(), t_start=0.0):
    """Integrate the momentum equation from `state` at t_start to scheme.t_end.

    Yields (t, state) at multiples of the stride and at the final step,
    each after its observers were called, and raises DivergenceError at
    the first non-finite state.  Each observer is called as
    obs(t, state, tend), with `tend` equal bit for bit to
    dynamics.rhs_u(plan, state, params).  Parameters and the step count are
    checked here, before the first sample.  A caller that keeps only the
    latest sample runs in memory independent of the run length.
    Restarting from a sampled state with the same dt reproduces the
    continuation of the original run bitwise.
    """
    dyn.validate_params(plan, params)
    steps = _step_range(scheme, t_start)
    rem = dyn.remainder(plan, params)
    return _one_row(plan, params, state, rem, scheme, steps, observers)


def run_prepared(plan, vstate, params, rho, scheme, observers=(), t_start=0.0):
    """Integrate the prepared v-equation on the sphere (see dynamics.prepared_rhs).

    Yields its samples as `samples` does, and checks its arguments at the
    call in the same way.  Observers receive `tend` equal bit for bit to
    dynamics.prepared_rhs(plan, state, params, rho).
    """
    # delegate validation of geometry / rho / sigma
    dyn.prepared_rhs(plan, vstate, params, rho)
    steps = _step_range(scheme, t_start)
    run = dyn.run_constants(plan, params)

    def rem(vrows):
        return dyn._remainder_prepared(plan, vrows, rho, run)

    state = ops.VelocityState(vstate.psi, np.zeros(0))
    return _one_row(plan, params, state, rem, scheme, steps, observers)

