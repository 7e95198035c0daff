"""Tangent-ensemble Lyapunov exponents and trace bounds in the weighted product.

The ensemble machinery lives in the inner product
[u, v] = <u, v> + alpha^2 <Curl_n u, Curl_n v>, the natural phase-space
metric of the filtered model: modewise weight lam (1 + alpha^2 lam) on
streamfunction coefficients, the plain area weight on harmonic pairs.

benettin_run co-integrates the base state with N tangent vectors as one
stacked run of integrate's stepping loop (row 0 the base state, rows 1..
the tangents; all share the -nu lam stiff part), so a trajectory and the
ensemble are stepped, and their divergence caught, by the same code.  The
loop yields the live core rows (see `basis`) every renormalization
interval, and the ensemble is renormalized there in place by modified
Gram-Schmidt with the weights laid out per column, lam (1 + alpha^2 lam)
times the core's row scale and the area on the pair, which reproduce the
weighted product of the slots; the next step starts from the renormalized
rows.  The initial ensemble is drawn in slot order and converted, and the
monitor and `trace_qn` convert at their edges.  Exponents are the time averages of the
log scale factors after a transient discard; their partial sums estimate
the trace of F' compressed to the leading N directions, the quantity the
dimension bound N* controls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import bounds, dynamics as dyn, integrate, operators as ops
from .errors import ConfigurationError, DegenerateEnsembleError

DEGENERACY_FLOOR = 1e-300


@dataclass(frozen=True)
class LyapunovConfig:
    """Ensemble size, averaging windows, and renormalization cadence."""

    n_ensemble: int
    t_transient: float
    t_average: float
    renorm_interval: float
    seed: int = 0

    def __post_init__(self):
        if self.n_ensemble < 1:
            raise ConfigurationError(f"need at least one tangent, got {self.n_ensemble}")
        if not self.t_average > 0.0:
            raise ConfigurationError(f"t_average must be positive, got {self.t_average}")
        if not self.renorm_interval > 0.0:
            raise ConfigurationError(
                f"renorm_interval must be positive, got {self.renorm_interval}"
            )
        if self.t_transient < 0.0:
            raise ConfigurationError(f"t_transient must be nonnegative, got {self.t_transient}")


@dataclass
class ExponentReport:
    """Sorted exponents, their partial sums, and the full-ensemble trace series."""

    exponents: np.ndarray
    q_partial: np.ndarray
    t_series: np.ndarray
    q_series: np.ndarray
    dim_ky: float
    ky_saturated: bool
    nstar: float
    mu_series: np.ndarray | None = None  # running per-direction averages, row per renorm
    gs_min_scale: float = 1.0  # smallest scale factor of any renormalization


# ---------------------------------------------------------------------------
# weighted Gram-Schmidt


def _weight_vector(plan, alpha):
    """The weighted product per column of the core rows: lam (1 + alpha^2
    lam) times the core's row scale, and the area on the harmonic pair."""
    lam = plan.core.row_lam
    w = plan.core.row_scale * lam * (1.0 + alpha**2 * lam)
    w[len(w) - plan.n_harmonic :] = plan.area
    return w


def _orthonormalize_arrays(plan, rows, alpha):
    """In-place modified Gram-Schmidt on stacked tangent core rows; returns
    scale factors."""
    wv = _weight_vector(plan, alpha)
    n = rows.shape[0]
    r = np.zeros(n)
    for k in range(n):
        r[k] = np.sqrt(np.dot(wv * rows[k], rows[k]))
        if r[k] < DEGENERACY_FLOOR:
            raise DegenerateEnsembleError(
                f"tangent {k} lost independence (scale factor {r[k]:.3e})"
            )
        rows[k] /= r[k]
        if k + 1 < n:
            proj = wv * rows[k] @ rows[k + 1 :].T
            rows[k + 1 :] -= proj[:, None] * rows[k]
    return r


def eigenvalue_ladder(plan, n):
    """First n eigenvalues of the Stokes operator ascending, kernel included.

    On the torus the two harmonic directions contribute leading zeros; any
    weighted-orthonormal n-set w_k satisfies sum_k [A w_k, w_k] >= the sum
    of this ladder (min-max), which is what the trace bound divides against.
    """
    if n > plan.n_modes + plan.n_harmonic:
        raise ConfigurationError(f"ladder of {n} exceeds the {plan.n_modes} retained modes")
    lam = np.sort(plan.lam, kind="stable")
    return np.concatenate([np.zeros(plan.n_harmonic), lam])[:n]


def _initial_ensemble(plan, n, alpha, rng):
    """Seed-perturbed leading eigendirections, harmonic directions first,
    weighted-orthonormal core rows."""
    psis = np.zeros((n, plan.n_modes))
    hs = np.zeros((n, plan.n_harmonic))
    order = np.argsort(plan.lam, kind="stable")
    for k in range(n):
        if k < plan.n_harmonic:
            hs[k, k] = 1.0
        else:
            psis[k, order[k - plan.n_harmonic]] = 1.0
    psis += 1e-3 * rng.standard_normal(psis.shape) / (1.0 + plan.lam)
    hs += 1e-3 * rng.standard_normal(hs.shape)
    rows = plan.core.to_rows(psis, hs)
    _orthonormalize_arrays(plan, rows, alpha)
    return rows


# ---------------------------------------------------------------------------
# instantaneous trace


def trace_qn(plan, state, tangents, params):
    """sum_k [F'(u) w_k, w_k] for a weighted-orthonormal tangent set."""
    rows = plan.core.to_rows(
        np.stack([state.psi] + [t.psi for t in tangents]),
        np.stack([state.harmonic] + [t.harmonic for t in tangents]),
    )
    full = dyn.remainder(plan, params)(rows)[1:] - params.nu * plan.core.row_lam * rows[1:]
    return float(np.sum(_weight_vector(plan, params.alpha) * rows[1:] * full))


# ---------------------------------------------------------------------------
# ensemble evolution


def _validate_ensemble_size(plan, config):
    cap = plan.n_modes + plan.n_harmonic
    if config.n_ensemble > cap:
        raise ConfigurationError(
            f"ensemble of {config.n_ensemble} exceeds the {cap} available directions"
        )


def benettin_run(plan, state, params, scheme, config, monitor=None):
    """Exponents from a co-integrated base trajectory and tangent ensemble.

    The run lasts t_transient + t_average; scheme supplies dt and the
    stepping method (its t_end is ignored).  Renormalization happens every
    renorm_interval throughout, but log scale factors only accumulate after
    the transient.  `monitor(t, state, tangents)` is called at every
    renormalization instant with the freshly orthonormalized ensemble.
    Deterministic for a fixed config seed.
    """
    dyn.validate_params(plan, params)
    ops._check(plan, state)  # before the base row is stacked with the tangents
    _validate_ensemble_size(plan, config)
    m = integrate._count_steps(config.renorm_interval, scheme.dt, "renorm_interval")
    if m < 1:
        raise ConfigurationError("renorm_interval must cover at least one step")
    n_av = integrate._count_steps(config.t_average, config.renorm_interval, "t_average")
    if n_av < 1:
        raise ConfigurationError("t_average must cover at least one renormalization")
    n_tr = integrate._count_steps(config.t_transient, config.renorm_interval, "t_transient")
    n = config.n_ensemble
    rng = ops.NormalStream(config.seed)
    core = plan.core
    loop = integrate._run_loop(
        np.concatenate([
            core.to_rows(state.psi[None], state.harmonic[None]),
            _initial_ensemble(plan, n, params.alpha, rng),
        ]),
        dyn.remainder(plan, params),
        integrate.decay_factors(plan, params.nu, scheme.dt),
        replace(scheme, stride=m),
        (0, (n_tr + n_av) * m),
    )
    next(loop)  # the start, where the ensemble is orthonormal already
    logsum = np.zeros(n)
    t_series = np.zeros(n_av)
    q_series = np.zeros(n_av)
    mu_series = np.zeros((n_av, n))
    gs_min_scale = np.inf
    for interval, (_, rows, _) in enumerate(loop):
        # in place, so the next step starts from the renormalized tangents
        r = _orthonormalize_arrays(plan, rows[1:], params.alpha)
        gs_min_scale = min(gs_min_scale, float(r.min()))
        if interval >= n_tr:
            logsum += np.log(r)
            elapsed = (interval - n_tr + 1) * config.renorm_interval
            row = interval - n_tr
            t_series[row] = config.t_transient + elapsed
            q_series[row] = logsum.sum() / elapsed
            mu_series[row] = logsum / elapsed
        if monitor is not None:
            states = [ops.VelocityState(p, h) for p, h in zip(*core.from_rows(rows))]
            monitor((interval + 1) * config.renorm_interval, states[0], states[1:])
    exponents = np.sort(logsum / config.t_average)[::-1]
    q_partial = np.cumsum(exponents)
    dim, saturated = kaplan_yorke(exponents)
    return ExponentReport(
        exponents=exponents,
        q_partial=q_partial,
        t_series=t_series,
        q_series=q_series,
        dim_ky=dim,
        ky_saturated=saturated,
        nstar=bounds.attractor_bound(plan, params),
        mu_series=mu_series,
        gs_min_scale=gs_min_scale,
    )


# ---------------------------------------------------------------------------
# dimension estimates and verdicts


def kaplan_yorke(exponents):
    """(value, saturated): j + (sum of the first j exponents)/|mu_(j+1)| at the
    last nonnegative sum.

    The value is 0 when even the leading exponent is negative.  When every
    partial sum is nonnegative the spectrum only gives the lower bound N, and
    `saturated` is True.
    """
    mu = np.asarray(exponents, dtype=float)
    if mu.size == 0:
        raise ConfigurationError("need at least one exponent")
    if np.any(np.diff(mu) > 0.0):
        raise ConfigurationError("exponents must be sorted descending")
    sums = np.cumsum(mu)
    if mu[0] < 0.0:
        return 0.0, False
    neg = np.nonzero(sums < 0.0)[0]
    if neg.size == 0:
        return float(mu.size), True
    j = int(neg[0])  # sums[j] < 0 <= sums[j-1]; mu[j] < 0 follows
    return float(j + sums[j - 1] / abs(mu[j])), False


def compare_bound(plan, report, params):
    """The verdict: the measured q_N crossing against the analytic N*.

    The crossing is the first N with q_N < 0; the bound is max(1, ceil(N*)),
    the shell from which the theory forces N-volumes to contract.  The
    verdict is "consistent" when the crossing does not exceed the bound,
    "inconsistent" when it does, or when no partial sum turns negative
    although the ensemble reaches the bound, and "undecided" when no
    partial sum turns negative within an ensemble smaller than the bound:
    the crossing lies beyond the ensemble, and only a larger n_ensemble can
    place it.  `consistent` is true for "consistent" alone; `advice` says
    what would decide an undecided run, and is None otherwise.
    """
    neg = np.nonzero(report.q_partial < 0.0)[0]
    crossing = int(neg[0]) + 1 if neg.size else -1
    nstar = bounds.attractor_bound(plan, params)
    bound = max(1.0, np.ceil(nstar))
    n = report.q_partial.size
    advice = None
    if crossing != -1:
        verdict = "consistent" if crossing <= bound else "inconsistent"
    elif n >= bound:
        verdict = "inconsistent"
    else:
        verdict = "undecided"
        advice = (
            f"no partial sum of the {n} exponents is negative; raise n_ensemble "
            f"above {n} (up to {bound:.0f}) to place the crossing"
        )
    return {
        "measured_crossing": crossing,
        "nstar": float(nstar),
        "consistent": verdict == "consistent",
        "verdict": verdict,
        "advice": advice,
    }
