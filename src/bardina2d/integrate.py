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

Samples are the states at multiples of the observer stride and at the
final step.  `samples` yields them one at a time as the run makes them, so
a caller that keeps only the latest (the CLI's `simulate`) runs in memory
that does not grow with the run length; `run` collects them into a
`Trajectory`.  Both come from one stepping loop and give the same states
bit for bit.

Observers are called as obs(t, state, tend) at every sample, before it is
yielded, where `tend` is the full tendency of `state` (what dynamics.rhs_u
returns for it, bit for bit).  A sampled state's tendency is evaluated
once: its non-stiff part is the first stage of the step that follows, so a
sampled run makes one extra right-hand side only for the final sample, and
only when there are observers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class Trajectory:
    """Every sample (t, state) of a run, the final state last."""

    samples: list = field(default_factory=list)

    @property
    def final_time(self):
        return self.samples[-1][0]

    @property
    def final_state(self):
        return self.samples[-1][1]


def step_pair(psi, h, dt, e_full, e_half, rem, method, first=None):
    """One integrating-factor step of dpsi/dt = -r psi + Gp, dh/dt = Gh.

    `rem(psi, h) -> (Gp, Gh)` is the non-stiff tendency; e_full/e_half are
    exp(-r dt) and exp(-r dt/2).  `first`, when given, is rem(psi, h)
    already evaluated and is used as the first stage.  Broadcasts over
    leading axes of psi/h.
    """
    g1, gh1 = rem(psi, h) if first is None else first
    if method == IF_EULER:
        return e_full * (psi + dt * g1), h + dt * gh1
    u1 = e_half * (psi + 0.5 * dt * g1)
    v1 = h + 0.5 * dt * gh1
    g2, gh2 = rem(u1, v1)
    u2 = e_half * psi + 0.5 * dt * g2
    v2 = h + 0.5 * dt * gh2
    g3, gh3 = rem(u2, v2)
    u3 = e_full * psi + dt * (e_half * g3)
    v3 = h + dt * gh3
    g4, gh4 = rem(u3, v3)
    psi_new = e_full * psi + (dt / 6.0) * (
        e_full * g1 + 2.0 * (e_half * (g2 + g3)) + g4
    )
    h_new = h + (dt / 6.0) * (gh1 + 2.0 * (gh2 + gh3) + gh4)
    return psi_new, h_new


def decay_factors(plan, nu, dt):
    r = nu * plan.lam
    return np.exp(-dt * r), np.exp(-0.5 * dt * r)


def step(plan, state, params, scheme):
    """Advance one state by a single step of the configured scheme."""
    fstate = dyn.forcing_state(plan, params.forcing)
    e_full, e_half = decay_factors(plan, params.nu, scheme.dt)

    def rem(psi, h):
        return dyn._remainder_u(plan, psi, h, params, fstate)

    psi, h = step_pair(
        state.psi[None], state.harmonic[None], scheme.dt, e_full, e_half, rem, scheme.method
    )
    return ops.VelocityState(psi[0], h[0])


def _count_steps(span, dt, what):
    n = int(round(span / dt))
    if abs(n * dt - span) > 1e-9 * max(dt, abs(span)):
        raise ConfigurationError(
            f"{what}={span} is not an integer number of steps of dt={dt}"
        )
    return n


def _step_range(scheme, t_start):
    """(base, n_steps): t_start and the run length in steps of scheme.dt."""
    n_steps = _count_steps(scheme.t_end - t_start, scheme.dt, "t_end - t_start")
    base = _count_steps(t_start, scheme.dt, "t_start") if t_start else 0
    return base, n_steps


def _run_loop(psi, h, scheme, rem_fn, e_pair, make_state, make_tend, observers, steps):
    """Yield (t, state) at every sample, after that sample's observers ran.

    The one stepping loop: `run` and `run_prepared` collect it, a streaming
    caller keeps what it needs.  It holds the current stacked state and the
    sample it last made, never earlier ones, so its memory does not grow
    with the run length.  `steps` is `_step_range`'s (base, n_steps).
    """
    base, n_steps = steps
    e_full, e_half = e_pair

    def sample(k, psi, h):
        """(t, state, remainder) of state k; the remainder when a step or an
        observer uses it.  The observers run here."""
        t = (base + k) * scheme.dt
        st = make_state(psi, h)
        first = None
        # the steps' errstate: a finite state near overflow overflows in the
        # first stage of the next step and in the observers' norms too, and
        # surfaces as a NaN residual and the next step's DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            if k < n_steps or observers:
                first = rem_fn(psi, h)
            if observers:
                tend = make_tend(psi, first)
                for obs in observers:
                    obs(t, st, tend)
        return t, st, first

    t, st, first = sample(0, psi, h)
    yield t, st
    for k in range(1, n_steps + 1):
        # overflow here surfaces as DivergenceError, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            psi, h = step_pair(
                psi, h, scheme.dt, e_full, e_half, rem_fn, scheme.method, first
            )
        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(h))):
            raise DivergenceError((base + k) * scheme.dt)
        first = None
        if k % scheme.stride == 0 or k == n_steps:
            t, st, first = sample(k, psi, h)
            yield t, st


def samples(plan, state, params, scheme, observers=(), t_start=0.0):
    """Generator of the samples `run` records, one at a time.

    Yields (t, state) at multiples of the stride and at the final step,
    each after its observers were called, and raises DivergenceError at
    the first non-finite state.  Parameters and the step count are checked
    here, before the first sample.  A caller that keeps only the latest
    sample runs in memory independent of the run length.
    """
    dyn.validate_params(plan, params)
    steps = _step_range(scheme, t_start)
    fstate = dyn.forcing_state(plan, params.forcing)

    def rem(psi, h):
        return dyn._remainder_u(plan, psi, h, params, fstate)

    def make_tend(psi, first):
        # the stiff term added as dynamics.rhs_u adds it
        dpsi, dh = first
        return ops.VelocityState(dpsi[0] - params.nu * plan.lam * psi[0], dh[0])

    return _run_loop(
        state.psi[None].copy(),
        state.harmonic[None].copy(),
        scheme,
        rem,
        decay_factors(plan, params.nu, scheme.dt),
        lambda p, h: ops.VelocityState(p[0].copy(), h[0].copy()),
        make_tend,
        observers,
        steps,
    )


def run(plan, state, params, scheme, observers=(), t_start=0.0):
    """Integrate the momentum equation from `state` at t_start to scheme.t_end.

    Samples are recorded at multiples of the stride and at the final step.
    Each observer is called as obs(t, state, tend) at every sample, with
    `tend` equal bit for bit to dynamics.rhs_u(plan, state, params).
    Restarting from a recorded state with the same dt reproduces the
    continuation of the original run bitwise.  The trajectory holds every
    sample; `samples` yields the same ones without holding them.
    """
    return Trajectory(list(samples(plan, state, params, scheme, observers, t_start)))


def run_prepared(plan, vstate, params, rho, scheme, observers=(), t_start=0.0):
    """Integrate the prepared v-equation on the sphere (see dynamics.prepared_rhs).

    Observers are called as in `run`, with `tend` equal bit for bit to
    dynamics.prepared_rhs(plan, state, params, rho).
    """
    # delegate validation of geometry / rho / sigma
    dyn.prepared_rhs(plan, vstate, params, rho)
    steps = _step_range(scheme, t_start)
    fstate = dyn.forcing_state(plan, params.forcing)

    def rem(vpsi, h):
        return dyn._remainder_prepared(plan, vpsi, params, rho, fstate), h[:0]

    def make_state(p, h):
        return ops.VelocityState(p.copy(), np.zeros(0))

    def make_tend(p, first):
        return ops.VelocityState(first[0] - params.nu * plan.lam * p, np.zeros(0))

    loop = _run_loop(
        vstate.psi.copy(),
        np.zeros(0),
        scheme,
        rem,
        decay_factors(plan, params.nu, scheme.dt),
        make_state,
        make_tend,
        observers,
        steps,
    )
    return Trajectory(list(loop))


def suggested_dt(plan, params, state=None, cap=0.05):
    """Step size heuristic: resolve the stiffest retained mode and advection.

    dt = 0.5 / (nu lam_max + sqrt(lam_max) max|u|), capped at `cap`.  The
    advective rate uses the grid maximum of |u| at the initial state.
    """
    rate = params.nu * float(plan.lam[-1])
    if state is not None:
        u = ops.velocity_grid(plan, state)
        umax = float(np.max(np.hypot(u[0], u[1])))
        rate += np.sqrt(float(plan.lam[-1])) * umax
    return min(cap, 0.5 / rate)
