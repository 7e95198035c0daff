"""Energy diagnostics, Gronwall envelopes, and identity residuals along runs.

The checks here are the desk-scale counterparts of the a priori estimates
that give well-posedness: two Lyapunov levels

    E1 = |u|^2 + alpha^2 ||u||^2,      E2 = ||u||^2 + alpha^2 |Au|^2,

each dominated by an explicit exponential envelope, plus the algebraic
identities of the rotational nonlinearity (b(u, v, v) = 0 and friends)
evaluated on random states.  Envelope constants come from `bounds`; with
drag the generic min-form branches apply, without drag (sphere only) the
single-branch forms with rate nu lambda_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis, bounds, dynamics as dyn, operators as ops
from .errors import ConfigurationError

# discretization allowance: energies sampled from an RK4/Euler run may
# overshoot the continuous envelope by O(dt^2); the unit coefficient is
# generous at desk-scale steps
DT_ALLOWANCE_COEFF = 1.0

# relative tolerance of a sampled energy above its envelope
ENVELOPE_SLACK = 1e-6

# the meta.json keys of a run's envelope anchor (e1_0, e2_0, t0)
ANCHOR_KEYS = ("anchor_e1", "anchor_e2", "anchor_t")

# worst energy-law residual a run may record: sound runs record about 1e-16,
# a nonlinearity that breaks <B(u, u), u> = 0 (an output band mask did) 1e-8
ENERGY_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sample's norms, energies, envelopes, and energy-law residual."""

    t: float
    u_l2: float
    u_v: float
    au_l2: float
    h_l2: float
    v_l2: float
    e1: float
    e2: float
    envelope1: float
    envelope2: float
    energy_residual: float


def energy_record(plan, state, params, t, anchor, tend):
    """All norms of one state, computed modewise, plus the envelope values.

    `anchor` is the `Envelopes` of the run (see `envelopes`, built once and
    shared by every record); when None the record is its own anchor, so
    the envelopes equal the energies.  The energy residual compares
    [u, du/dt] against <f, u> - nu E2 - sigma |u|^2, relative to the size
    of those terms; it is 0 only when that size is exactly 0 (the zero
    state) and NaN when the size is not finite (an overflowing state), so a
    blown-up state never records a clean residual.  `tend` is du/dt as
    dynamics.rhs_u returns it, which is what an integrate.samples observer
    receives.
    """
    e1 = ops.energy_e1(plan, state, params.alpha)
    e2 = ops.energy_e2(plan, state, params.alpha)
    u_l2 = ops.norm_l2(plan, state)
    h_l2 = np.sqrt(plan.area) * float(np.linalg.norm(state.harmonic))
    v_l2 = ops.norm_l2(plan, ops.helmholtz_filter(plan, state, params.alpha))
    if anchor is None:
        env1, env2 = e1, e2
    else:
        env1, env2 = anchor.at(t)
    fstate = dyn.forcing_state(plan, params.forcing)
    lhs = ops.inner_weighted(plan, state, tend, params.alpha)
    work = ops.inner_l2(plan, fstate, state)
    drain = params.nu * e2 + params.sigma * ops.inner_l2(plan, state, state)
    scale = abs(work) + drain
    # a NaN scale (0 drag times an infinite |u|^2) must not pass as 0; an
    # infinite one makes the difference infinite or NaN, so NaN as well
    residual = abs(lhs - (work - drain)) / scale if scale != 0.0 else 0.0
    return DiagnosticsRecord(
        t=float(t),
        u_l2=float(u_l2),
        u_v=float(ops.norm_v(plan, state)),
        au_l2=float(ops.norm_a(plan, state)),
        h_l2=float(h_l2),
        v_l2=float(v_l2),
        e1=float(e1),
        e2=float(e2),
        envelope1=float(env1),
        envelope2=float(env2),
        energy_residual=float(residual),
    )


@dataclass(frozen=True)
class Envelopes:
    """Gronwall envelopes of one run: the anchor energies e1_0, e2_0 at t0,
    and the decay rates and source levels of the plan and parameters."""

    e1_0: float
    e2_0: float
    t0: float
    rate1: float
    rate2: float
    level1: float
    level2: float

    def at(self, t):
        """(env1, env2) at time t (scalar or array)."""
        elapsed = np.asarray(t, dtype=float) - self.t0
        d1 = np.exp(-self.rate1 * elapsed)
        d2 = np.exp(-self.rate2 * elapsed)
        env1 = d1 * self.e1_0 + (self.level1 / self.rate1) * (1.0 - d1)
        env2 = d2 * self.e2_0 + (self.level2 / self.rate2) * (1.0 - d2)
        return env1, env2


def envelopes(plan, params, e1_0, e2_0, t0=0.0):
    """The `Envelopes` anchored at (e1_0, e2_0, t0).

    env1 = e^(-delta t) E1_0 + (L1/delta)(1 - e^(-delta t)) and env2
    likewise with rate delta' and level 2 L2, all from `bounds.constants`,
    except that without drag (sphere) level2 is the single-branch
    |A^-1/2 f|^2/(nu alpha^2), undoubled.  They depend only on the plan and
    parameters, so a run builds this once and every record reuses it.
    """
    dyn.validate_params(plan, params)
    norms = bounds.forcing_norms(plan, params.forcing)
    c = bounds.constants(plan, params, norms)
    level2 = 2.0 * c.l2 if params.sigma else norms.f1_half_inv**2 / (params.nu * params.alpha**2)
    return Envelopes(e1_0, e2_0, t0, c.delta, c.delta_prime, c.l1, level2)


def meta_anchor(meta):
    """The envelope anchor (e1_0, e2_0, t0) a run recorded in its meta.json
    dict, and None; or None and why it holds none: a key is missing or not a
    number, or a value is not finite (json reads NaN and Infinity)."""
    try:
        anchor = tuple(float(meta[key]) for key in ANCHOR_KEYS)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None, "no valid anchor_e1/anchor_e2/anchor_t"
    for key, value in zip(ANCHOR_KEYS, anchor):
        if not math.isfinite(value):
            return None, f"{key} is {value}, not a finite number"
    return anchor, None


def envelope_flags(e1, env1, e2, env2, dt):
    """Whether E1 and E2 fail to lie below their envelopes, as a pair; broadcasts.

    The tolerance factor is 1 + ENVELOPE_SLACK + DT_ALLOWANCE_COEFF dt^2;
    the dt^2 term absorbs time-discretization overshoot of the sampled
    energies.  A comparison that is not true is a violation, so a NaN
    energy, envelope or dt is flagged rather than passed.
    """
    factor = 1.0 + ENVELOPE_SLACK + DT_ALLOWANCE_COEFF * dt * dt
    return np.logical_not(e1 <= env1 * factor), np.logical_not(e2 <= env2 * factor)


# ---------------------------------------------------------------------------
# identity residuals


def probe_state(plan, rng, amplitude=1.0):
    """A random state filling every retained mode, for identity and
    linearization probes: psi_s ~ N(0, 1) / sqrt(1 + lam_s) and a N(0, 1)
    harmonic pair, both times `amplitude`, drawn in that order from `rng`,
    an `operators.NormalStream` (or anything with its `standard_normal`)."""
    psi = amplitude * rng.standard_normal(plan.n_modes) / np.sqrt(1.0 + plan.lam)
    h = amplitude * rng.standard_normal(plan.n_harmonic)
    return ops.VelocityState(psi, h)


def identity_suite(plan, params, seed, n_states=20, amplitude=1.0):
    """Relative residuals of the nonlinearity identities on random states.

    Keys: b_uvv (b(u, v, v) = 0), b_swap (antisymmetry in the last pair),
    b_energy (<B(u, u), u> = 0), b_enstrophy (<B(u, u), Au> = 0) on the
    sphere or harmonic_pair (<Q(zeta rot90(h)), h> = 0) on the torus, and
    b_form (<B(u, u), w> = b(u, u, w): the grid nonlinearity against the
    three-term form, which a wrong rotation sign breaks on both geometries
    while the cancellation identities above still hold).  The
    identities hold for any model parameters; `params` only rides along so
    the verification entry points share one call shape.  The states fill
    every retained mode up to the truncation edge.
    """
    del params
    rng = ops.NormalStream(seed)
    names = ["b_uvv", "b_swap", "b_energy"]
    names.append("b_enstrophy" if plan.geometry.kind == basis.SPHERE else "harmonic_pair")
    names.append("b_form")
    table = {name: np.zeros(n_states) for name in names}
    for i in range(n_states):
        u = probe_state(plan, rng, amplitude)
        v = probe_state(plan, rng, amplitude)
        w = probe_state(plan, rng, amplitude)
        scale = ops.norm_v(plan, u) * ops.norm_v(plan, v) * ops.norm_v(plan, w)
        uvv = ops.trilinear_b(plan, u, v, v)
        swap = ops.trilinear_b(plan, u, v, w) + ops.trilinear_b(plan, u, w, v)
        spl = dyn.nonlinear_term(plan, u)
        bstate = ops.VelocityState(spl.p_part, spl.q_part)
        energy = ops.inner_l2(plan, bstate, u)
        table["b_uvv"][i] = _relative(uvv, scale)
        table["b_swap"][i] = _relative(swap, scale)
        table["b_energy"][i] = _relative(energy, scale)
        form = ops.inner_l2(plan, bstate, w) - ops.trilinear_b(plan, u, u, w)
        table["b_form"][i] = _relative(form, scale)
        if plan.geometry.kind == basis.SPHERE:
            enst = ops.inner_l2(plan, bstate, ops.stokes_apply(plan, u))
            table["b_enstrophy"][i] = _relative(enst, scale)
        else:
            zeta, _ = basis.flow_synthesis(plan, u.psi)
            hv = np.zeros((2,) + plan.grid_shape)
            hv[0], hv[1] = u.harmonic
            q = ops.harmonic_project(plan, zeta * ops.rot90(hv))
            pair = plan.area * float(np.dot(q, u.harmonic))
            table["harmonic_pair"][i] = _relative(pair, scale)
    return table


def _relative(value, scale):
    return abs(value) / scale if scale > 0.0 else 0.0


# ---------------------------------------------------------------------------
# trajectory studies


def average_enstrophy_check(plan, records, params):
    """Time-average of ||u||^2 against 2 L2/delta' plus the measured transient.

    The transient term is E2(0)/(delta' t); delta' and L2 come from one
    bounds.constants call.
    """
    if len(records) < 2:
        raise ConfigurationError("need at least two records to form a time average")
    ts = np.array([r.t for r in records])
    span = ts[-1] - ts[0]
    if not span > 0.0:
        raise ConfigurationError("records must span a positive time interval")
    dyn.validate_params(plan, params)
    c = bounds.constants(plan, params)
    avg = np.trapezoid([r.u_v**2 for r in records], ts) / span
    transient = records[0].e2 / (c.delta_prime * span)
    bound = 2.0 * c.l2 / c.delta_prime + transient
    return {
        "average": float(avg),
        "bound": float(bound),
        "transient": float(transient),
        "ok": bool(avg <= bound),
    }
