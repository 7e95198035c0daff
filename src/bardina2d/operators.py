"""Divergence-free velocity fields, Hodge projections, and the trilinear form.

A velocity field splits as u = u1 + u2 with u1 = n x grad(psi) for a
mean-free streamfunction psi and u2 a harmonic field (constants on the
torus, absent on the sphere).  States store the streamfunction expansion
against the plan basis plus the harmonic component pair, so the Stokes
operator, Helmholtz filter, and all inner products are diagonal:

    |u|^2      = sum lam psi^2        + area * |h|^2
    ||u||^2    = sum lam^2 psi^2                      (= |Curl_n u|^2)
    |A u|^2    = sum lam^3 psi^2
    [u, w]     = <u, w> + alpha^2 <Curl_n u, Curl_n w>

The trilinear form is evaluated through the symmetric three-term formula

    b(u, v, w) = 1/2 * int( -(u x v).n zeta_w + zeta_u (n x v).w
                            + zeta_v (n x u).w ) dM

whose integrand vanishes pointwise when w = v or when antisymmetrized in
(v, w), so those identities hold to rounding regardless of quadrature.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import basis
from .basis import rot90
from .errors import ConfigurationError, ShapeError

__all__ = [
    "VelocityState",
    "zero_state",
    "state_from_mode",
    "check_seed",
    "NormalStream",
    "random_state",
    "rot90",
    "stokes_apply",
    "helmholtz_filter",
    "harmonic_project",
    "inner_l2",
    "inner_v",
    "inner_weighted",
    "norm_l2",
    "norm_v",
    "norm_a",
    "energy_e1",
    "energy_e2",
    "trilinear_b",
]


@dataclass
class VelocityState:
    """Streamfunction coefficients plus harmonic component of one velocity field."""

    psi: np.ndarray
    harmonic: np.ndarray

    def copy(self):
        return VelocityState(self.psi.copy(), self.harmonic.copy())


def _check(plan, state):
    if state.psi.shape != (plan.n_modes,) or state.harmonic.shape != (plan.n_harmonic,):
        raise ShapeError(
            f"state shapes {state.psi.shape}/{state.harmonic.shape} do not match plan "
            f"({plan.n_modes} modes, {plan.n_harmonic} harmonic)"
        )


def zero_state(plan):
    return VelocityState(np.zeros(plan.n_modes), np.zeros(plan.n_harmonic))


def state_from_mode(plan, index, amplitude=1.0):
    """State whose streamfunction is one basis mode with the given coefficient."""
    st = zero_state(plan)
    st.psi[basis.mode_slot(plan, index)] = amplitude
    return st


def check_seed(seed):
    """`seed` if it is a non-negative integer, else ConfigurationError:
    `random.Random` seeds from abs(seed), so -s would silently give the
    stream of s."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigurationError(f"expected a non-negative integer, got {seed!r}")
    return seed


class NormalStream:
    """Seeded standard normals from the standard library's generator.

    Uniforms come only from `random.Random(seed).random()`, whose sequence
    Python keeps across releases for an integer seed (`check_seed`).  One
    numpy pass turns each pair (u, v) of them into the two normals
    sqrt(-2 log(1 - u)) (cos 2 pi v, sin 2 pi v) (Box and Muller 1958),
    kept in that order.  Each call draws whole pairs, so an odd count
    leaves its last sine unused.  The package's one source of random data:
    numpy's own generators cost ~5.5 MB of resident memory to import.
    """

    def __init__(self, seed):
        self._uniform = random.Random(check_seed(seed)).random

    def uniforms(self, count):
        """The next `count` uniforms on [0, 1), as Python draws them."""
        draw = self._uniform
        return np.array([draw() for _ in range(count)], dtype=float)

    def standard_normal(self, size):
        """An array of shape `size` (an int or a tuple) of standard normals."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        count = math.prod(shape)
        u, v = self.uniforms(2 * ((count + 1) // 2)).reshape(-1, 2).T
        radius = np.sqrt(-2.0 * np.log(1.0 - u))
        angle = 2.0 * np.pi * v
        pairs = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)
        return pairs.reshape(-1)[:count].reshape(shape)


def random_state(plan, seed, slope=2.0, e1=1.0, alpha=1.0):
    """Seeded random state normalized to energy E1, zero harmonic part.

    Streamfunction coefficients are `NormalStream(seed)`'s first n_modes
    normals, shaped by lam^(-slope/2), then scaled so |u|^2 + alpha^2
    ||u||^2 == e1.  This is also the random initial condition of a run
    spec.
    """
    psi = NormalStream(seed).standard_normal(plan.n_modes) * plan.lam ** (-slope / 2.0)
    st = VelocityState(psi, np.zeros(plan.n_harmonic))
    raw = energy_e1(plan, st, alpha)
    if raw > 0.0:
        psi *= np.sqrt(e1 / raw)
    return st


def _flow_grids(plan, states):
    """Vorticity and velocity grids of states, from one flow synthesis over
    their stacked streamfunctions."""
    for state in states:
        _check(plan, state)
    zeta, grad = basis.flow_synthesis(plan, np.stack([state.psi for state in states]))
    u = rot90(grad)
    if plan.n_harmonic:
        u += np.stack([state.harmonic for state in states])[:, :, None, None]
    return zeta, u


def stokes_apply(plan, state):
    """A u = Curl Curl_n u: multiplies streamfunction coefficients by lam."""
    _check(plan, state)
    return VelocityState(plan.lam * state.psi, np.zeros(plan.n_harmonic))


def helmholtz_filter(plan, state, alpha):
    """v = (I + alpha^2 A) u; the harmonic part passes through unchanged."""
    _check(plan, state)
    return VelocityState((1.0 + alpha**2 * plan.lam) * state.psi, state.harmonic.copy())


def harmonic_project(plan, vec):
    """Harmonic component of a grid vector field (componentwise area mean)."""
    return basis.flow_analysis(plan, vec)[1]


# ---------------------------------------------------------------------------
# inner products and norms


def inner_l2(plan, a, b):
    """<a, b> over the manifold, harmonic parts paired with the area weight."""
    _check(plan, a)
    _check(plan, b)
    out = float(np.dot(plan.lam * a.psi, b.psi))
    if plan.n_harmonic:
        out += plan.area * float(np.dot(a.harmonic, b.harmonic))
    return out


def inner_v(plan, a, b):
    """<Curl_n a, Curl_n b>; harmonic parts contribute nothing."""
    _check(plan, a)
    _check(plan, b)
    return float(np.dot(plan.lam**2 * a.psi, b.psi))


def inner_weighted(plan, a, b, alpha):
    """[a, b] = <a, b> + alpha^2 <Curl_n a, Curl_n b>."""
    return inner_l2(plan, a, b) + alpha**2 * inner_v(plan, a, b)


def norm_l2(plan, state):
    return np.sqrt(max(inner_l2(plan, state, state), 0.0))


def norm_v(plan, state):
    return np.sqrt(max(inner_v(plan, state, state), 0.0))


def norm_a(plan, state):
    """|A u|."""
    _check(plan, state)
    return float(np.sqrt(np.dot(plan.lam**3 * state.psi, state.psi)))


def energy_e1(plan, state, alpha):
    """E1 = |u|^2 + alpha^2 ||u||^2."""
    return inner_weighted(plan, state, state, alpha)


def energy_e2(plan, state, alpha):
    """E2 = ||u||^2 + alpha^2 |A u|^2."""
    _check(plan, state)
    return float(np.dot((plan.lam**2 + alpha**2 * plan.lam**3) * state.psi, state.psi))


# ---------------------------------------------------------------------------
# trilinear form


def _cross2(a, b):
    return a[..., 0, :, :] * b[..., 1, :, :] - a[..., 1, :, :] * b[..., 0, :, :]


def trilinear_b(plan, u, v, w):
    """Rotational trilinear form b(u, v, w) by the symmetric three-term formula.

    Exact for every retained state because the grid integrates triple
    products of fields within the truncation without error.
    """
    (zu, zv, zw), (ug, vg, wg) = _flow_grids(plan, (u, v, w))
    integrand = 0.5 * (
        -_cross2(ug, vg) * zw + zu * _cross2(vg, wg) + zv * _cross2(ug, wg)
    )
    return basis.integrate(plan, integrand)
