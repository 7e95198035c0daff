"""Tests for model tendencies, the tangent linearization, and the prepared equation."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bardina2d

from bardina2d import basis
from bardina2d import dynamics as dyn
from bardina2d import operators as ops
from bardina2d.errors import ConfigurationError, ShapeError, UnsupportedGeometryError


def sphere_plan(trunc=9):
    return basis.build_plan(basis.sphere(), trunc)


def torus_plan(trunc=9):
    return basis.build_plan(basis.torus(2 * np.pi), trunc)


def random_forcing(plan, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(plan.n_modes) * scale / plan.lam
    f2 = rng.standard_normal(2) * scale if plan.n_harmonic else np.zeros(0)
    return dyn.Forcing(c, f2)


def params_for(plan, seed=0, nu=0.3, alpha=0.8, sigma=None):
    if sigma is None:
        sigma = 0.0 if plan.n_harmonic == 0 else 0.25
    return dyn.ModelParams(nu=nu, alpha=alpha, sigma=sigma, forcing=random_forcing(plan, seed))


def split_state(plan, split):
    return ops.VelocityState(split.p_part, split.q_part)


class TestForcing:
    def test_zero_forcing_shapes(self):
        for plan in (sphere_plan(5), torus_plan(5)):
            f = dyn.zero_forcing(plan)
            assert f.f1_curl.shape == (plan.n_modes,)
            assert f.f2.shape == (plan.n_harmonic,)

    def test_forcing_state_inverts_curl(self):
        # f1 is stored through Curl_n f1; psi_f = -f1_curl / lam recovers it
        plan = torus_plan(5)
        f = random_forcing(plan, 2)
        fs = dyn.forcing_state(plan, f)
        assert np.allclose(-plan.lam * fs.psi, f.f1_curl, rtol=1e-15, atol=0)
        assert np.array_equal(fs.harmonic, f.f2)

    def test_validate_rejects_bad_parameters(self):
        plan = torus_plan(4)
        f = dyn.zero_forcing(plan)
        good = dict(nu=1.0, alpha=1.0, sigma=0.5, forcing=f)
        dyn.validate_params(plan, dyn.ModelParams(**good))
        for bad in (
            dict(good, nu=0.0),
            dict(good, nu=-1.0),
            dict(good, alpha=0.0),
            dict(good, sigma=-0.1),
            dict(good, sigma=0.0),  # torus flow needs drag on the harmonic part
        ):
            with pytest.raises(ConfigurationError):
                dyn.validate_params(plan, dyn.ModelParams(**bad))
        plan_s = sphere_plan(4)
        dyn.validate_params(
            plan_s, dyn.ModelParams(nu=1.0, alpha=1.0, sigma=0.0, forcing=dyn.zero_forcing(plan_s))
        )

    def test_validate_rejects_wrong_shapes(self):
        plan = torus_plan(4)
        f = dyn.Forcing(np.zeros(plan.n_modes - 1), np.zeros(2))
        with pytest.raises(ShapeError):
            dyn.validate_params(plan, dyn.ModelParams(1.0, 1.0, 0.5, f))
        f = dyn.Forcing(np.zeros(plan.n_modes), np.zeros(1))
        with pytest.raises(ShapeError):
            dyn.validate_params(plan, dyn.ModelParams(1.0, 1.0, 0.5, f))


class TestNonlinearTerm:
    def test_single_mode_is_steady(self):
        # one eigenmode: zeta (n x u) is a pure gradient, both projections vanish
        for plan, index in ((sphere_plan(8), (4, 2)), (torus_plan(8), (2, 1))):
            st = ops.state_from_mode(plan, index, 1.7)
            split = dyn.nonlinear_term(plan, st)
            lam = basis.eigenvalue(plan, index)
            scale = lam**1.5 * 1.7**2
            assert np.max(np.abs(split.p_part)) < 1e-13 * scale
            if plan.n_harmonic:
                assert np.max(np.abs(split.q_part)) < 1e-14 * scale

    def test_mean_flow_advects_mode(self):
        # adding a harmonic drift leaves the mean equation untouched but
        # rotates the mode phase, so p acquires the companion mode
        plan = torus_plan(6)
        st = ops.state_from_mode(plan, (2, 1), 1.3)
        st.harmonic[:] = (0.5, -0.2)
        split = dyn.nonlinear_term(plan, st)
        assert np.max(np.abs(split.q_part)) < 1e-14
        assert np.max(np.abs(split.p_part)) > 1e-3

    def test_energy_orthogonality(self):
        for plan in (sphere_plan(), torus_plan()):
            st = ops.random_state(plan, seed=31)
            if plan.n_harmonic:
                st.harmonic[:] = (0.3, 0.7)
            split = dyn.nonlinear_term(plan, st)
            b = split_state(plan, split)
            scale = ops.norm_l2(plan, b) * ops.norm_l2(plan, st) + 1e-6
            assert abs(ops.inner_l2(plan, b, st)) < 1e-13 * scale

    def test_enstrophy_orthogonality_on_sphere(self):
        plan = sphere_plan()
        st = ops.random_state(plan, seed=32)
        split = dyn.nonlinear_term(plan, st)
        b = split_state(plan, split)
        au = ops.stokes_apply(plan, st)
        scale = ops.norm_l2(plan, b) * ops.norm_l2(plan, au) + 1e-6
        assert abs(ops.inner_l2(plan, b, au)) < 1e-13 * scale

    # Closed forms of B(u, u) from the vorticity equation alone, without the
    # code's rotation: with u = n x grad psi and zeta = lap psi, Euler gives
    # d zeta / dt = -u . grad zeta = -J(psi, zeta), J(f, g) = n . (grad f x grad g),
    # and d zeta / dt = lap(-p) = lam p on each mode.  A rotation fault made
    # consistently in the kernel and in the velocity grids flips the sign.

    def test_sphere_closed_form(self):
        # Y_1^0 = c1 cos(theta), Y_2^{1, -1} = -c2 cos(theta) sin(theta) {cos, sin}(phi);
        # J(f, g) = (f_theta g_phi - f_phi g_theta) / sin(theta), so
        # J(Y_1^0, Y_2^1) = -c1 c2 cos sin sin(phi) = c1 Y_2^-1, and for
        # psi = a Y_1^0 + b Y_2^1, zeta = -2a Y_1^0 - 6b Y_2^1:
        # d zeta / dt = -J(psi, zeta) = 4ab J(Y_1^0, Y_2^1) = 4ab c1 Y_2^-1,
        # p = 4ab c1 / 6 on (2, -1) and zero on every other slot
        a, b = 0.7, 1.3
        plan = sphere_plan(4)
        psi = np.zeros(plan.n_modes)
        psi[basis.mode_slot(plan, (1, 0))] = a
        psi[basis.mode_slot(plan, (2, 1))] = b
        p = dyn.nonlinear_term(plan, ops.VelocityState(psi, np.zeros(0))).p_part
        want = np.zeros(plan.n_modes)
        c1 = math.sqrt(3.0 / (4.0 * math.pi))
        want[basis.mode_slot(plan, (2, -1))] = (2.0 / 3.0) * c1 * a * b
        assert want.max() == pytest.approx(0.29641885722110445, rel=1e-15)
        assert np.max(np.abs(p - want)) <= 1e-14

    def test_torus_closed_form(self):
        # L = 2 pi, A = sqrt(2) / L: psi = a A cos(x) + b A cos(2y),
        # u = (-psi_y, psi_x) = (2bA sin 2y, -aA sin x), zeta = -aA cos x - 4bA cos 2y;
        # d zeta / dt = -u . grad zeta = 6ab A^2 sin x sin 2y
        #             = 3ab A (A cos(x - 2y) - A cos(x + 2y)),
        # so p = +-(3/5) A a b on the cos modes (1, -+2), lam = 5; the
        # harmonic part, the mean of zeta (n x u), is zero
        a, b = 0.7, 1.3
        plan = basis.build_plan(basis.torus(2 * np.pi), 4)
        psi = np.zeros(plan.n_modes)
        psi[basis.mode_slot(plan, (1, 0))] = a
        psi[basis.mode_slot(plan, (0, 2))] = b
        split = dyn.nonlinear_term(plan, ops.VelocityState(psi, np.zeros(2)))
        c = 0.6 * math.sqrt(2.0) / (2 * np.pi) * a * b
        want = np.zeros(plan.n_modes)
        want[basis.mode_slot(plan, (1, -2))] = c
        want[basis.mode_slot(plan, (1, 2))] = -c
        assert np.max(np.abs(split.p_part - want)) <= 1e-14
        assert np.max(np.abs(split.q_part)) <= 1e-15

    def test_matches_trilinear_form(self):
        # <B(u, u), w> = b(u, u, w) for every test direction w
        for plan in (sphere_plan(), torus_plan()):
            u = ops.random_state(plan, seed=33)
            split = dyn.nonlinear_term(plan, u)
            b = split_state(plan, split)
            for s in (34, 35):
                w = ops.random_state(plan, seed=s)
                if plan.n_harmonic:
                    w.harmonic[:] = np.random.default_rng(s).standard_normal(2)
                got = ops.inner_l2(plan, b, w)
                want = ops.trilinear_b(plan, u, u, w)
                assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


class TestTendency:
    def test_linear_terms_on_eigenmode(self):
        # B vanishes on a single mode, leaving the closed linear tendency
        plan = torus_plan(6)
        p = params_for(plan, seed=4)
        st = ops.state_from_mode(plan, (1, 2), 0.9)
        st.harmonic[:] = (0.1, -0.3)
        slot = basis.mode_slot(plan, (1, 2))
        lam = plan.lam[slot]
        fs = dyn.forcing_state(plan, p.forcing)
        rhs = dyn.rhs_u(plan, st, p)
        want = -p.nu * lam * 0.9 + (fs.psi[slot] - p.sigma * 0.9) / (1 + p.alpha**2 * lam)
        assert rhs.psi[slot] == pytest.approx(want, rel=1e-13)
        assert np.allclose(rhs.harmonic, fs.harmonic - p.sigma * st.harmonic, atol=1e-14)

    def test_filter_divides_remainder(self):
        # the evolved variable is u, so forcing and B enter through (I + a^2 A)^-1
        plan = sphere_plan(7)
        p = params_for(plan, seed=5, sigma=0.0)
        st = ops.random_state(plan, seed=51)
        rhs = dyn.rhs_u(plan, st, p)
        split = dyn.nonlinear_term(plan, st)
        fs = dyn.forcing_state(plan, p.forcing)
        filt = 1.0 + p.alpha**2 * plan.lam
        want = -p.nu * plan.lam * st.psi + (fs.psi - split.p_part) / filt
        assert np.allclose(rhs.psi, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_energy_balance_of_tendency(self):
        # pairing the v-equation with u: (1/2) dE1/dt = <f, u> - nu E2 - sigma |u|^2,
        # the nonlinearity dropping out exactly
        for plan in (sphere_plan(), torus_plan()):
            p = params_for(plan, seed=6)
            st = ops.random_state(plan, seed=61, alpha=p.alpha)
            if plan.n_harmonic:
                st.harmonic[:] = (0.2, 0.4)
            rhs = dyn.rhs_u(plan, st, p)
            lhs = ops.inner_weighted(plan, st, rhs, p.alpha)
            fstate = dyn.forcing_state(plan, p.forcing)
            f_dot_u = ops.inner_l2(plan, fstate, st)
            want = (
                f_dot_u
                - p.nu * ops.energy_e2(plan, st, p.alpha)
                - p.sigma * ops.inner_l2(plan, st, st)
            )
            scale = abs(f_dot_u) + p.nu * ops.energy_e2(plan, st, p.alpha) + 1e-9
            assert abs(lhs - want) < 1e-12 * scale


class TestTangent:
    def test_matches_finite_difference(self):
        eps = 1e-6
        for plan in (sphere_plan(), torus_plan()):
            p = params_for(plan, seed=7)
            base = ops.random_state(plan, seed=71)
            d = ops.random_state(plan, seed=72)
            if plan.n_harmonic:
                base.harmonic[:] = (0.15, -0.25)
                d.harmonic[:] = (0.3, 0.1)
            plus = ops.VelocityState(base.psi + eps * d.psi, base.harmonic + eps * d.harmonic)
            minus = ops.VelocityState(base.psi - eps * d.psi, base.harmonic - eps * d.harmonic)
            rp, rm = dyn.rhs_u(plan, plus, p), dyn.rhs_u(plan, minus, p)
            fd_psi = (rp.psi - rm.psi) / (2 * eps)
            fd_h = (rp.harmonic - rm.harmonic) / (2 * eps)
            tg = dyn.rhs_tangent(plan, d, base, p)
            scale = np.max(np.abs(fd_psi)) + 1e-9
            assert np.max(np.abs(tg.psi - fd_psi)) < 1e-7 * scale
            if plan.n_harmonic:
                assert np.max(np.abs(tg.harmonic - fd_h)) < 1e-7 * (np.max(np.abs(fd_h)) + 1e-9)

    def test_forcing_independent(self):
        plan = torus_plan(6)
        base = ops.random_state(plan, seed=73)
        d = ops.random_state(plan, seed=74)
        p1 = params_for(plan, seed=8)
        p2 = dyn.ModelParams(p1.nu, p1.alpha, p1.sigma, dyn.zero_forcing(plan))
        t1 = dyn.rhs_tangent(plan, d, base, p1)
        t2 = dyn.rhs_tangent(plan, d, base, p2)
        assert np.array_equal(t1.psi, t2.psi)
        assert np.array_equal(t1.harmonic, t2.harmonic)

    def test_linear_in_perturbation(self):
        plan = sphere_plan(7)
        p = params_for(plan, seed=9)
        base = ops.random_state(plan, seed=75)
        d1 = ops.random_state(plan, seed=76)
        d2 = ops.random_state(plan, seed=77)
        comb = ops.VelocityState(2.0 * d1.psi - 3.0 * d2.psi, np.zeros(0))
        t = dyn.rhs_tangent(plan, comb, base, p)
        t1 = dyn.rhs_tangent(plan, d1, base, p)
        t2 = dyn.rhs_tangent(plan, d2, base, p)
        want = 2.0 * t1.psi - 3.0 * t2.psi
        assert np.allclose(t.psi, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def _separate_remainders(plan, psis, hs, params, fstate):
    """Reference for the stacked kernel: the base grids synthesized once, each
    tangent's grids separately, Ntilde(u, U) = zeta_U (n x u) + zeta_u (n x U)
    formed per tangent, then one flow analysis each."""
    filt = 1.0 + params.alpha**2 * plan.lam

    def grids(psi, h):
        zeta, grad = basis.flow_synthesis(plan, psi)
        u = basis.rot90(grad)
        if plan.n_harmonic:
            u[0] += h[0]
            u[1] += h[1]
        return zeta, u

    zeta0, u0 = grids(psis[0], hs[0])
    p, q = basis.flow_analysis(plan, zeta0 * basis.rot90(u0))
    out_psi = [(fstate.psi - p - params.sigma * psis[0]) / filt]
    out_h = [fstate.harmonic - params.sigma * hs[0] - q]
    for psi, h in zip(psis[1:], hs[1:]):
        zeta, u = grids(psi, h)
        p, q = basis.flow_analysis(plan, zeta * basis.rot90(u0) + zeta0 * basis.rot90(u))
        out_psi.append((-p - params.sigma * psi) / filt)
        out_h.append(-params.sigma * h - q)
    return np.stack(out_psi), np.stack(out_h)


class TestCoupledRemainder:
    def test_rows_match_base_and_tangent_remainders(self):
        for plan in (sphere_plan(), torus_plan()):
            p = params_for(plan, seed=10, sigma=0.2)
            fstate = dyn.forcing_state(plan, p.forcing)
            states = [ops.random_state(plan, seed=80 + k) for k in range(5)]
            psis = np.stack([s.psi for s in states])
            hs = np.random.default_rng(81).standard_normal((5, plan.n_harmonic))
            dpsis, dhs = dyn._remainder_u(plan, psis, hs, p, fstate)
            # row 0 does not depend on the rows stacked after it
            dpsi0, dh0 = dyn._remainder_u(plan, psis[:1], hs[:1], p, fstate)
            assert np.array_equal(dpsis[0], dpsi0[0])
            assert np.array_equal(dhs[0], dh0[0])
            want_psi, want_h = _separate_remainders(plan, psis, hs, p, fstate)
            # and keeps the one-state rounding, f - p - sigma psi
            assert np.array_equal(dpsis[0], want_psi[0])
            assert np.array_equal(dhs[0], want_h[0])
            for got, want in ((dpsis, want_psi), (dhs, want_h)):
                assert got.shape == want.shape
                for k in range(1, 5):
                    if want[k].size:
                        assert np.max(np.abs(got[k] - want[k])) <= 1e-13 * np.max(
                            np.abs(want[k])
                        ), k

    @pytest.mark.parametrize("trunc,rows", [(t, b) for t in (20, 85) for b in (2, 9)])
    def test_sphere_row0_keeps_one_state_rounding(self, trunc, rows):
        # an even truncation (order 0 alone in its table block), an odd one,
        # and more stacked fields, so more columns in each Legendre matmul
        plan, p, fstate, psis, hs = _kernel_case("sphere", trunc, rows)
        dpsis, dhs = dyn._remainder_u(plan, psis, hs, p, fstate)
        dpsi0, dh0 = dyn._remainder_u(plan, psis[:1], hs[:1], p, fstate)
        want_psi, want_h = _separate_remainders(plan, psis[:1], hs[:1], p, fstate)
        assert dpsis[0].tobytes() == dpsi0[0].tobytes() == want_psi[0].tobytes()
        assert dhs[0].tobytes() == dh0[0].tobytes() == want_h[0].tobytes()


def _kernel_case(kind, trunc, rows, seed=3):
    """Plan, parameters, forcing state and stacked rows with a nonzero harmonic part."""
    plan = sphere_plan(trunc) if kind == "sphere" else torus_plan(trunc)
    rng = np.random.default_rng(seed)
    p = params_for(plan, seed=seed, sigma=0.3)
    psis = rng.standard_normal((rows, plan.n_modes)) / (1.0 + plan.lam)
    hs = rng.standard_normal((rows, plan.n_harmonic))
    return plan, p, dyn.forcing_state(plan, p.forcing), psis, hs


# 50 stacked remainders after a warm-up; prints the minor page faults they add
_FAULT_PROBE = """
import resource
import numpy as np
from bardina2d import basis, dynamics as dyn

kind, trunc, rows = {case!r}
geometry = basis.sphere() if kind == "sphere" else basis.torus(2 * np.pi)
plan = basis.build_plan(geometry, trunc)
rng = np.random.default_rng(3)
forcing = dyn.Forcing(
    rng.standard_normal(plan.n_modes) / plan.lam, rng.standard_normal(plan.n_harmonic)
)
params = dyn.ModelParams(nu=0.3, alpha=0.8, sigma=0.3, forcing=forcing)
fstate = dyn.forcing_state(plan, forcing)
psis = rng.standard_normal((rows, plan.n_modes)) / (1.0 + plan.lam)
hs = rng.standard_normal((rows, plan.n_harmonic))
for _ in range(3):
    dyn._remainder_u(plan, psis, hs, params, fstate)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    dyn._remainder_u(plan, psis, hs, params, fstate)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _rot90(vec):
    return np.stack((-vec[..., 1, :, :], vec[..., 0, :, :]), axis=-3)


class _AllocatingRemainder:
    """The stacked remainder with fresh temporaries at every stage, rotating
    the gradient and the product by copies: the reference the workspace
    kernel must match bit for bit."""

    def __init__(self, plan):
        self.plan, self.core = plan, plan.core

    # sphere: table block j pairs order j with order top - j, top being lmax
    # rounded up to odd; the columns are (order in block, field, cos|sin)
    def _orders(self):
        c = self.core
        j = np.arange(c.npair)
        return j, (c.lmax | 1) - j

    def _gather(self, coeffs):
        c, b = self.core, coeffs.shape[0]
        pad = np.zeros((b, c.n_modes + 1))
        pad[:, :-1] = coeffs * c.pad_scale
        rows = pad[np.arange(b)[:, None], c.slots[..., None, :]]
        return rows.reshape(2, c.npair, -1, 4 * b)

    def _scatter(self, blocks, b, scale):
        c = self.core
        out = np.zeros((b, c.n_modes + 1))
        blocks = blocks.reshape(2, c.npair, 2, b, 2, -1)
        out[:, c.slots] = blocks.transpose(3, 0, 1, 5, 2, 4)
        return out[:, :-1] * scale

    def _sphere_synthesis(self, psi):
        c, b, nm, nh = self.core, psi.shape[0], self.core.lmax + 1, self.core.nh
        sums = c.table.transpose(0, 1, 3, 2) @ self._gather(psi)
        s = sums.view(np.complex128).reshape(2, c.npair, 3, nh, 2, b)
        # per order: even plus odd sums, and their difference
        first, second = self._orders()
        north, south = np.zeros((2, nm + 1, 3, nh, b), dtype=np.complex128)
        for half, part in ((north, s[0] + s[1]), (south, s[0] - s[1])):
            half[first] = part[..., 0, :]
            half[second] = part[..., 1, :]
        spec = np.zeros((c.nlon // 2 + 1, 3, c.nlat, b), dtype=np.complex128)
        # northern rows from the pole down, southern ones mirrored
        ns = c.nlat - nh
        spec[:nm, :, ::-1][:, :, :nh] = north[:nm]
        spec[:nm, :, :ns] = south[:nm, :, :ns]
        spec[:nm, 1:] = spec[:nm, 1:] * c.synth_w[..., None]
        grids = np.fft.irfft(spec.transpose(3, 1, 2, 0), n=c.nlon, axis=-1)
        return grids[:, 0], grids[:, 1:]

    def _sphere_analysis(self, g):
        c, b, nm, nh = self.core, len(g), self.core.lmax + 1, self.core.nh
        z = np.fft.rfft(g, axis=-1).transpose(3, 1, 2, 0)[:nm, ::-1]
        cols = z * c.ana_w[..., None]
        north, south = cols[:, :, ::-1][:, :, :nh], cols[:, :, :nh]
        even, odd = north + south, north - south
        # parity 0: [dP odd | P even], parity 1: [dP even | P odd]
        rows = np.stack((
            np.stack((odd[:, 0], even[:, 1]), axis=1),
            np.stack((even[:, 0], odd[:, 1]), axis=1),
        ))
        # both orders of a block; order lmax + 1 (even lmax) has no rows
        rows = np.concatenate((rows, np.zeros_like(rows[:, :1])), axis=1)
        first, second = self._orders()
        rows = np.stack((rows[:, first], rows[:, second]), axis=-2)
        rows = rows.view(np.float64).reshape(2, c.npair, 2 * nh, 4 * b)
        blocks = rows.transpose(0, 1, 3, 2) @ c.table[..., nh:].transpose(0, 1, 3, 2)
        return self._scatter(blocks, b, c.flow_scale), np.zeros((b, 0))

    # torus: bins, scales and multipliers derived here from the lattice
    # vectors, the period and the grid alone, packed into the full half
    # spectrum and transformed by numpy's whole 2-d real FFTs
    def _torus_bins(self):
        """Per slot: cos (or sin) member, conjugated bin, and bin (row, col).

        Slot q labels cos(2 pi q.x / L) for q in the right half-plane and
        sin(2 pi k.x / L), k = -q, otherwise; the pair's k sits at bin
        (k1 mod N, k2), or conjugated at (-k1 mod N, -k2) when k2 < 0.
        """
        n = self.core.shape[0]
        q1, q2 = self.core.qvec[:, 0], self.core.qvec[:, 1]
        cos = (q1 > 0) | ((q1 == 0) & (q2 > 0))
        k1, k2 = np.where(cos, q1, -q1), np.where(cos, q2, -q2)
        conj = k2 < 0
        return cos, conj, np.where(conj, -k1, k1) % n, np.abs(k2)

    def _torus_wavenumbers(self):
        n, w = self.core.shape[0], 2.0 * np.pi / self.core.length
        return (w * np.fft.fftfreq(n, d=1.0 / n))[:, None], (w * np.arange(n // 2 + 1))[None, :]

    def _torus_synthesis(self, psi):
        c = self.core
        n = c.shape[0]
        amp = math.sqrt(2.0) / c.length  # amplitude of a unit-norm cos or sin
        a = 0.5 * n * n * amp  # its bin value
        cos, conj, row, col = self._torus_bins()
        sin = ~cos
        spec = np.zeros((len(psi), n, n // 2 + 1), dtype=np.complex128)
        spec.real[:, row[cos], col[cos]] = psi[:, cos] * a
        spec.imag[:, row[sin], col[sin]] = psi[:, sin] * np.where(conj[sin], a, -a)
        # the k2 = 0 column also holds the conjugate of each pair at -k1
        edge = col == 0
        spec.real[:, -c.qvec[cos & edge, 0] % n, 0] = psi[:, cos & edge] * a
        spec.imag[:, c.qvec[sin & edge, 0] % n, 0] = psi[:, sin & edge] * a
        w1, w2 = self._torus_wavenumbers()
        mul = np.stack(np.broadcast_arrays(-(w1**2 + w2**2), 1j * w1, 1j * w2))
        grids = np.fft.irfft2(spec[:, None] * mul, s=c.shape)
        return grids[..., 0, :, :], grids[..., 1:, :, :]

    def _torus_analysis(self, g):
        c = self.core
        n = c.shape[0]
        z = np.fft.rfft2(g)
        mean = z[..., 0, 0].real / math.prod(c.shape)
        z = _rot90(z)
        w1, w2 = self._torus_wavenumbers()
        zdot = w1 * z[..., 0, :, :] + w2 * z[..., 1, :, :]
        cos, conj, row, col = self._torus_bins()
        at = zdot[:, row, col]
        amp = math.sqrt(2.0) / c.length
        quad = amp * c.length**2 / (n * n)  # amplitude times quadrature weight
        scale = -np.where(cos, quad, np.where(conj, -quad, quad)) / self.plan.lam
        return np.where(cos, at.imag, at.real) * scale, mean

    def remainder_u(self, psis, hs, params, fstate):
        plan = self.plan
        if plan.geometry.kind == basis.SPHERE:
            synthesis, analysis = self._sphere_synthesis, self._sphere_analysis
        else:
            synthesis, analysis = self._torus_synthesis, self._torus_analysis
        zeta, grad = synthesis(psis)
        u = _rot90(grad)
        if plan.n_harmonic:
            u[..., 0, :, :] += hs[..., 0, None, None]
            u[..., 1, :, :] += hs[..., 1, None, None]
        g = zeta[:, None] * _rot90(u[0])
        if len(g) > 1:
            g[1:] += zeta[0] * _rot90(u[1:])
        p, q = analysis(g)
        filt = 1.0 + params.alpha**2 * plan.lam
        drag_h = params.sigma * hs
        p[0] -= fstate.psi
        drag_h[0] -= fstate.harmonic
        return (-p - params.sigma * psis) / filt, -drag_h - q


class TestWorkspaceKernel:
    """The remainder writes its temporaries into per-plan workspaces."""

    @pytest.mark.parametrize(
        "kind,trunc,rows",
        [("sphere", 21, b) for b in (1, 2, 9)]
        + [("sphere", 85, b) for b in (1, 2, 9)]
        + [("sphere", 20, 2)]
        + [("torus", 16, b) for b in (1, 7)],
    )
    def test_matches_allocating_reference_bitwise(self, kind, trunc, rows):
        plan, p, fstate, psis, hs = _kernel_case(kind, trunc, rows)
        want = _AllocatingRemainder(plan).remainder_u(psis, hs, p, fstate)
        for _ in range(2):  # a fresh and a reused workspace
            got = dyn._remainder_u(plan, psis, hs, p, fstate)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "kind,trunc,rows", [("sphere", 21, 9), ("sphere", 85, 1), ("torus", 16, 7)]
    )
    def test_stacked_calls_fault_no_pages(self, kind, trunc, rows):
        # freed transform temporaries trimmed off the heap top are faulted
        # back in by the next call, hundreds of pages each.  Whether glibc
        # trims depends on the process's allocation history, so the calls
        # run in a fresh interpreter, as a CLI run starts.
        src = os.path.dirname(os.path.dirname(os.path.abspath(bardina2d.__file__)))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        probe = subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE.format(case=(kind, trunc, rows))],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        faults = int(probe.stdout)
        assert faults < 50, faults

    def test_results_own_their_memory(self):
        # a second call with the same batch shape reuses the workspace; what
        # the first returned must not change, nor be a view of a buffer
        for kind in ("sphere", "torus"):
            plan, p, fstate, psis, hs = _kernel_case(kind, 9, 4)
            states = [ops.VelocityState(psi, h) for psi, h in zip(psis, hs)]
            calls = (
                lambda k: dyn._remainder_u(plan, psis[2 * k : 2 * k + 2], hs[2 * k : 2 * k + 2], p, fstate),
                lambda k: dyn.rhs_u(plan, states[k], p),
                lambda k: dyn.nonlinear_term(plan, states[k]),
            )
            for call in calls:
                first = call(0)
                arrays = list(first) if isinstance(first, tuple) else list(vars(first).values())
                kept = [a.copy() for a in arrays]
                call(1)
                for a, b in zip(arrays, kept):
                    assert np.array_equal(a, b)
                for rows in (1, 2):
                    for buf in vars(basis.workspace(plan, rows)).values():
                        if isinstance(buf, np.ndarray):
                            assert not any(np.shares_memory(a, buf) for a in arrays)


class TestTransformPasses:
    """One torus right-hand side is one inverse and one forward real 2-d FFT,
    each over all stacked fields and each called as its two axis passes, so
    that the k1 pass runs over the spectral columns that hold modes only:
    ifft then irfft, rfft then fft."""

    NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

    def _count_ffts(self, monkeypatch):
        calls = []
        for name in self.NAMES:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return calls

    def test_torus_remainders_make_two_fft_calls(self, monkeypatch):
        plan = torus_plan(16)
        params = params_for(plan, seed=6)
        fstate = dyn.forcing_state(plan, params.forcing)
        rng = np.random.default_rng(7)
        psis = rng.standard_normal((7, plan.n_modes)) / (1.0 + plan.lam)
        hs = rng.standard_normal((7, 2))
        state = ops.VelocityState(psis[0], hs[0])
        calls = self._count_ffts(monkeypatch)
        dyn._remainder_u(plan, psis[:1], hs[:1], params, fstate)
        assert calls == ["ifft", "irfft", "rfft", "fft"]
        del calls[:]
        dyn._remainder_u(plan, psis, hs, params, fstate)
        assert calls == ["ifft", "irfft", "rfft", "fft"]
        del calls[:]
        dyn.rhs_u(plan, state, params)
        assert calls == ["ifft", "irfft", "rfft", "fft"]

    def test_torus_trilinear_form_makes_one_synthesis(self, monkeypatch):
        # b(u, v, w) takes the grids of all three states from one flow synthesis
        plan = torus_plan(16)
        rng = np.random.default_rng(8)
        states = [
            ops.VelocityState(rng.standard_normal(plan.n_modes) / (1.0 + plan.lam),
                              rng.standard_normal(2))
            for _ in range(3)
        ]
        calls = self._count_ffts(monkeypatch)
        ops.trilinear_b(plan, *states)
        assert calls == ["ifft", "irfft"]


class TestCutoff:
    def test_plateau_and_support(self):
        assert dyn.cutoff_theta(-3.0) == 1.0
        assert dyn.cutoff_theta(0.5) == 1.0
        assert dyn.cutoff_theta(1.0) == 1.0
        assert dyn.cutoff_theta(2.0) == 0.0
        assert dyn.cutoff_theta(7.0) == 0.0
        assert dyn.cutoff_theta(1.5) == pytest.approx(0.5)

    def test_monotone_with_bounded_slope(self):
        x = np.linspace(0.0, 3.0, 20001)
        y = dyn.cutoff_theta(x)
        dy = np.diff(y) / np.diff(x)
        assert np.all(np.diff(y) <= 0.0)
        # the cubic blend has |theta'| <= 3/2
        assert np.max(np.abs(dy)) <= 1.5 + 1e-6
        assert abs(dy[np.argmin(np.abs(x[:-1] - 1.5))] + 1.5) < 1e-3

    def test_smooth_at_junctions(self):
        eps = 1e-5
        for x0 in (1.0, 2.0):
            left = (dyn.cutoff_theta(x0) - dyn.cutoff_theta(x0 - eps)) / eps
            right = (dyn.cutoff_theta(x0 + eps) - dyn.cutoff_theta(x0)) / eps
            assert abs(left) < 1e-4 and abs(right) < 1e-4


class TestPreparedEquation:
    def test_requires_sphere_and_no_drag(self):
        plan_t = torus_plan(5)
        p = params_for(plan_t, seed=10)
        v = ops.random_state(plan_t, seed=80)
        with pytest.raises(UnsupportedGeometryError):
            dyn.prepared_rhs(plan_t, v, p, rho=1.0)
        plan_s = sphere_plan(5)
        v = ops.random_state(plan_s, seed=81)
        ps = dyn.ModelParams(1.0, 1.0, 0.0, dyn.zero_forcing(plan_s))
        with pytest.raises(ConfigurationError):
            dyn.prepared_rhs(plan_s, v, ps, rho=0.0)
        ps_drag = dyn.ModelParams(1.0, 1.0, 0.1, dyn.zero_forcing(plan_s))
        with pytest.raises(ConfigurationError):
            dyn.prepared_rhs(plan_s, v, ps_drag, rho=1.0)

    def test_reduces_to_filtered_momentum_equation_inside_ball(self):
        # theta = 1 for |v| <= rho, so dv/dt = (I + a^2 A) du/dt there
        plan = sphere_plan(8)
        p = dyn.ModelParams(0.7, 1.1, 0.0, random_forcing(plan, 12))
        u = ops.random_state(plan, seed=82, e1=0.01, alpha=1.1)
        v = ops.helmholtz_filter(plan, u, p.alpha)
        rho = 10.0 * ops.norm_l2(plan, v)
        got = dyn.prepared_rhs(plan, v, p, rho)
        du = dyn.rhs_u(plan, u, p)
        want = (1.0 + p.alpha**2 * plan.lam) * du.psi
        assert np.allclose(got.psi, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_pure_decay_outside_support(self):
        # theta = 0 for |v| >= 2 rho: only the Stokes term survives
        plan = sphere_plan(7)
        p = dyn.ModelParams(0.5, 1.0, 0.0, random_forcing(plan, 13))
        v = ops.random_state(plan, seed=83, e1=25.0)
        rho = 0.01 * ops.norm_l2(plan, v)
        got = dyn.prepared_rhs(plan, v, p, rho)
        assert np.array_equal(got.psi, -p.nu * plan.lam * v.psi)
