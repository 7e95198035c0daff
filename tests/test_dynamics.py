"""Tests for model tendencies, the tangent linearization, and the prepared equation."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import bardina2d

from bardina2d import basis, legendre
from bardina2d import dynamics as dyn
from bardina2d import integrate, lyapunov
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


def _wrong_width_calls():
    """Every entry point into the remainder, by name: call(plan, params, state)."""
    scheme = integrate.SchemeConfig(dt=0.01, t_end=0.02)
    ensemble = lyapunov.LyapunovConfig(n_ensemble=2, t_transient=0.0, t_average=0.02,
                                       renorm_interval=0.01)
    good = ops.zero_state
    return {
        "rhs_u": lambda plan, p, bad: dyn.rhs_u(plan, bad, p),
        "rhs_tangent-delta": lambda plan, p, bad: dyn.rhs_tangent(plan, bad, good(plan), p),
        "rhs_tangent-base": lambda plan, p, bad: dyn.rhs_tangent(plan, good(plan), bad, p),
        "nonlinear_term": lambda plan, p, bad: dyn.nonlinear_term(plan, bad),
        "integrate.samples": lambda plan, p, bad: list(integrate.samples(plan, bad, p, scheme)),
        "benettin_run": lambda plan, p, bad: lyapunov.benettin_run(plan, bad, p, scheme, ensemble),
        "prepared_rhs": lambda plan, p, bad: dyn.prepared_rhs(plan, bad, p, 1.0),
    }


class TestWrongWidthRows:
    """A state of the wrong width raises ShapeError from every entry point:
    the plan core's `to_rows` checks the states it converts, and entry
    points that stack states check them first."""

    @pytest.mark.parametrize(
        "kind,short,name",
        [(kind, short, name)
         for kind, short in (("sphere", "psi"), ("torus", "psi"), ("torus", "harmonic"))
         for name in _wrong_width_calls()
         if not (kind == "torus" and name == "prepared_rhs")],  # sphere only
    )
    def test_raises_shape_error(self, kind, short, name):
        plan = sphere_plan(5) if kind == "sphere" else torus_plan(5)
        p = params_for(plan, seed=7)
        st = ops.random_state(plan, seed=71)
        if short == "psi":
            bad = ops.VelocityState(st.psi[:-1], st.harmonic)
        else:
            bad = ops.VelocityState(st.psi, st.harmonic[:1])
        with pytest.raises(ShapeError):
            _wrong_width_calls()[name](plan, p, bad)


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


def _separate_remainders(plan, rows, params, run):
    """Reference for the stacked kernel on core rows: the base grids
    synthesized once, each tangent's grids separately, Ntilde(u, U) =
    zeta_U (n x u) + zeta_u (n x U) formed per tangent, then one flow
    analysis each, through the core's row transforms one row at a time (on
    the sphere the core rows are the slot rows, and those transforms are
    basis.flow_synthesis and the Leray part of basis.flow_analysis).  The
    row synthesis returns -(n x u), the harmonic pair included, so u is its
    rotation."""
    core = plan.core
    ws = core.workspace(1)

    def grids(row):
        grids = core.row_synthesis(row[None], ws)[0]
        return grids[0], basis.rot90(grids[1:])

    def analysis(g):
        return core.row_analysis(g[None], ws)[0]

    divisor = run.divisor[0]  # the run's (1, ncols) divisor, per column
    zeta0, u0 = grids(rows[0])
    p = analysis(zeta0 * basis.rot90(u0))
    out = [(run.forcing - p - params.sigma * rows[0]) / divisor]
    for row in rows[1:]:
        zeta, u = grids(row)
        p = analysis(zeta * basis.rot90(u0) + zeta0 * basis.rot90(u))
        out.append((-p - params.sigma * row) / divisor)
    return np.stack(out)


class TestCoupledRemainder:
    def test_rows_match_base_and_tangent_remainders(self):
        for plan in (sphere_plan(), torus_plan()):
            p = params_for(plan, seed=10, sigma=0.2)
            run = dyn.run_constants(plan, p)
            states = [ops.random_state(plan, seed=80 + k) for k in range(5)]
            psis = np.stack([s.psi for s in states])
            hs = np.random.default_rng(81).standard_normal((5, plan.n_harmonic))
            rows = plan.core.to_rows(psis, hs)
            got = dyn._remainder_u(plan, rows, p, run)
            # row 0 does not depend on the rows stacked after it
            got0 = dyn._remainder_u(plan, rows[:1], p, run)
            assert np.array_equal(got[0], got0[0])
            want = _separate_remainders(plan, rows, p, run)
            # and keeps the one-state rounding, f - p - sigma x
            assert np.array_equal(got[0], want[0])
            assert got.shape == want.shape
            for k in range(1, 5):
                assert np.max(np.abs(got[k] - want[k])) <= 1e-13 * np.max(np.abs(want[k])), k

    @pytest.mark.parametrize("trunc,rows", [(t, b) for t in (20, 85) for b in (2, 9)])
    def test_sphere_row0_keeps_one_state_rounding(self, trunc, rows):
        # an even truncation (order 0 alone in its table block), an odd one,
        # and more stacked fields, so more columns in each Legendre matmul
        plan, p, fstate, psis, hs = _kernel_case("sphere", trunc, rows)
        run = dyn.run_constants(plan, p)
        got = dyn._remainder_u(plan, psis, p, run)
        got0 = dyn._remainder_u(plan, psis[:1], p, run)
        want = _separate_remainders(plan, psis[:1], p, run)
        assert got[0].tobytes() == got0[0].tobytes() == want[0].tobytes()


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
run = dyn.run_constants(plan, params)
psis = rng.standard_normal((rows, plan.n_modes)) / (1.0 + plan.lam)
hs = rng.standard_normal((rows, plan.n_harmonic))
core_rows = plan.core.to_rows(psis, hs)
for _ in range(3):
    dyn._remainder_u(plan, core_rows, params, run)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    dyn._remainder_u(plan, core_rows, params, run)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _rot90(vec):
    return np.stack((-vec[..., 1, :, :], vec[..., 0, :, :]), axis=-3)


class _AllocatingRemainder:
    """The stacked remainder of core rows with fresh temporaries at every
    stage, rotating the gradient and the product by copies: the reference
    the workspace kernel must match bit for bit.  On the sphere the core
    rows are the slot rows, and the longitude stage is the plan's: np.fft,
    or one product against its cos/sin table with the kernel's operand
    layouts; on the torus they are the coefficient matrix M of each field,
    flat, then its harmonic pair."""

    def __init__(self, plan):
        self.plan, self.core = plan, plan.core

    # sphere: table block j pairs order j with order top - j, top being lmax
    # rounded up to odd; the columns are (order in block, field, cos|sin).
    # The table holds P alone, for degrees up to lmax + 1; every theta
    # derivative comes from the degree recurrence
    # sin(theta) dP_n/dtheta = n e_{n+1} P_{n+1} - (n + 1) e_n P_{n-1},
    # applied here row by row
    def _orders(self):
        c = self.core
        j = np.arange(c.npair)
        return j, (c.lmax | 1) - j

    @staticmethod
    def _e(n, m):
        return math.sqrt((n * n - m * m) / (4.0 * n * n - 1.0))

    def _rows_of_degree(self):
        """{(n, m): (parity, flat row)} over the table rows, flat per parity
        over (block, row)."""
        n, m = (a.reshape(2, -1) for a in legendre.paired_degrees(self.core.lmax))
        return {(int(n[p, q]), int(m[p, q])): (p, q) for p in range(2) for q in range(n.shape[1])}

    def _gather(self, coeffs):
        c, b = self.core, coeffs.shape[0]
        pad = np.zeros((b, c.n_modes + 1))
        pad[:, :-1] = coeffs * c.pad_scale
        rows = pad[np.arange(b)[:, None], c.slots[..., None, :]]
        return rows.reshape(2, c.npair, -1, 4 * b)

    def _sphere_synthesis(self, psi):
        c, b, nm, nh = self.core, psi.shape[0], self.core.lmax + 1, self.core.nh
        g = self._gather(psi)
        flat = g.reshape(2, -1, 4 * b)
        # -lam psi and D psi row by row: (D psi)_n = (n - 1) e_n psi_{n-1}
        # - (n + 2) e_{n+1} psi_{n+1}, the rows of one order
        rows = self._rows_of_degree()
        lam, d = np.zeros_like(flat), np.zeros_like(flat)
        for (n, m), (p, q) in rows.items():
            if n > c.lmax + 1:
                continue
            lam[p, q] = -float(n) * (n + 1.0) * flat[p, q]
            terms = []
            hi, lo = -(n + 2.0) * self._e(n + 1.0, m), (n - 1.0) * self._e(n, m)
            for k, w in ((n + 1, hi), (n - 1, lo)):
                if (k, m) in rows and k >= m:
                    terms.append(w * flat[rows[k, m]])
            d[p, q] = terms[0] + terms[1] if len(terms) == 2 else terms[0]
        comps = np.stack((lam, d, flat), axis=1).reshape(2, 3, c.npair, -1, 4 * b)
        sums = c.table.transpose(0, 1, 3, 2)[:, :, None] @ comps.transpose(0, 2, 1, 3, 4)
        s = sums.view(np.complex128).reshape(2, c.npair, 3, nh, 2, b)
        # D psi over sin(theta); d/dphi is i m / sin(theta), m the order of
        # the block's column; both weights are even, so they multiply the
        # even and odd sums of the northern latitudes, pole to equator
        first, second = self._orders()
        inv_sin = 1.0 / c.sin_t[::-1][:nh]
        s[:, :, 1] = s[:, :, 1] * inv_sin[:, None, None]
        m = np.stack((first, second), axis=-1)[:, None, :, None]
        s[:, :, 2] = s[:, :, 2] * ((1j * m) * inv_sin[:, None, None])
        # per order: even plus odd sums, and their difference
        north, south = np.zeros((2, nm + 1, 3, nh, b), dtype=np.complex128)
        for half, part in ((north, s[0] + s[1]), (south, s[0] - s[1])):
            half[first] = part[..., 0, :]
            half[second] = part[..., 1, :]
        spec = np.zeros((c.nlon // 2 + 1, 3, c.nlat, b), dtype=np.complex128)
        # northern rows from the pole down, southern ones mirrored
        ns = c.nlat - nh
        spec[:nm, :, ::-1][:, :, :nh] = north[:nm]
        spec[:nm, :, :ns] = south[:nm, :, :ns]
        if c.lon is None:
            grids = np.fft.irfft(spec.transpose(3, 1, 2, 0), n=c.nlon, axis=-1)
        else:
            # a matmul plan: the retained columns, contiguous, against its table
            lines = np.ascontiguousarray(spec[:nm].transpose(3, 1, 2, 0)).view(np.float64)
            grids = (lines.reshape(-1, 2 * nm) @ c.lon).reshape(b, 3, c.nlat, c.nlon)
        return grids[:, 0], grids[:, 1:]

    def _sphere_analysis(self, g):
        c, b, nm, nh = self.core, len(g), self.core.lmax + 1, self.core.nh
        if c.lon is None:
            z = np.fft.rfft(g, axis=-1)
        else:
            z = (g.reshape(-1, c.nlon) @ c.lon_t).view(np.complex128).reshape(b, 2, c.nlat, nm)
        z = z.transpose(3, 1, 2, 0)[:nm, ::-1]
        north, south = z[:, :, ::-1][:, :, :nh], z[:, :, :nh]
        # every component has the parity of P
        rows = np.stack((north + south, north - south))
        # quadrature weight, even in latitude: an equator row (odd nlat)
        # counts half in each hemisphere; -g_phi / sin(theta) meets P (D^T
        # below takes it to dP/dtheta), g_theta meets -i P / sin(theta), and
        # its sums m
        wq = c.wlat * c.dphi
        if c.nlat % 2:
            wq[nh - 1] *= 0.5
        wn = -wq[::-1][:nh] * (1.0 / c.sin_t[::-1][:nh])
        rows = (rows * np.stack((wn + 0j, 1j * wn))[:, :, None]).transpose(0, 1, 3, 2, 4)
        # both orders of a block; order lmax + 1 (even lmax) has no rows
        rows = np.concatenate((rows, np.zeros_like(rows[:, :1])), axis=1)
        first, second = self._orders()
        rows = np.ascontiguousarray(np.stack((rows[:, first], rows[:, second]), axis=-2))
        rows = rows.view(np.float64).reshape(2, c.npair, nh, 8 * b)
        sums = rows.transpose(0, 1, 3, 2) @ c.table.transpose(0, 1, 3, 2)
        sums = sums.reshape(2, c.npair, 2, 2, b, 2, -1)
        # slot (n, m): its theta sum, plus D^T of the phi sums,
        # n e_{n+1} at degree n + 1 and -(n + 1) e_n at degree n - 1
        rows_of = self._rows_of_degree()
        nrp = c.table.shape[2]
        out = np.zeros((b, c.n_modes))
        k = np.full(nm, 1.0 / math.sqrt(math.pi))
        k[0] = 1.0 / math.sqrt(2.0 * math.pi)
        for n in range(1, c.lmax + 1):
            for m in range(-n, n + 1):
                slot, a, cs = n * n + n + m - 1, abs(m), int(m < 0)
                scale = -(-k[a] if m < 0 else k[a]) / (n * (n + 1.0))
                def at(deg, kk):
                    p, q = rows_of[deg, a]
                    j, r = divmod(q, nrp)
                    return sums[p, j, kk, int(a != j), :, cs, r]
                v = (scale * a) * at(n, 1) + (scale * (n * self._e(n + 1.0, a))) * at(n + 1, 0)
                if n - 1 >= a:
                    v = v + (scale * (-(n + 1.0) * self._e(float(n), a))) * at(n - 1, 0)
                out[:, slot] = v
        return out, np.zeros((b, 0))

    # torus: the per-axis tables and the coefficient matrix M of each field
    # (a field is E M E^T) derived here from the lattice vectors, the period
    # and the grid alone, and transformed by separable products that each
    # allocate; the products have the operand layouts of the kernel's, since
    # BLAS may round other layouts differently
    def _torus_axis_tables(self):
        """E and dE (N, 2K + 1): cos(w a x_j), a = 0..K, then sin(w a x_j),
        a = 1..K, and their x-derivatives, at x_j = L j / N."""
        c = self.core
        n, k, w = c.shape[0], c.kmax, 2.0 * np.pi / c.length
        e, de = np.zeros((2, n, 2 * k + 1))
        for j in range(n):
            for a in range(k + 1):
                t = 2.0 * math.pi * (a * j % n) / n  # w a x_j, reduced mod 2 pi
                e[j, a], de[j, a] = math.cos(t), -(w * a) * math.sin(t)
                if a:
                    e[j, k + a], de[j, k + a] = math.sin(t), (w * a) * math.cos(t)
        return e, de

    def _torus_links(self):
        """Per slot: the entries [row, col] of M its basis function lands in, with signs.

        Slot q is cos(w q.x) for q in the right half-plane and sin(w k.x),
        k = -q, otherwise; with k1 = a >= 0, k2 = s b, b = |k2|,
        cos(a x + k2 y) = cos cos - s sin sin and sin(a x + k2 y) =
        sin cos + s cos sin.  Column a of a table is cos(w a x), column
        K + a is sin(w a x); a sin factor of frequency 0 vanishes.
        """
        k = self.core.kmax
        for slot, (q1, q2) in enumerate(self.core.qvec.tolist()):
            is_cos = q1 > 0 or (q1 == 0 and q2 > 0)
            a, k2 = (q1, q2) if is_cos else (-q1, -q2)
            b, s = abs(k2), (1 if k2 >= 0 else -1)
            if is_cos:
                terms = ((("cos", a), ("cos", b), 1), (("sin", a), ("sin", b), -s))
            else:
                terms = ((("sin", a), ("cos", b), 1), (("cos", a), ("sin", b), s))
            yield slot, [
                (tuple(f if kind == "cos" else k + f for kind, f in (x, y)), sign)
                for x, y, sign in terms
                if ("sin", 0) not in (x, y)
            ]

    def _torus_lam(self):
        """lam of every entry of M, (2K + 1, 2K + 1)."""
        c = self.core
        w = 2.0 * np.pi / c.length
        freq = np.concatenate((np.arange(c.kmax + 1), np.arange(1, c.kmax + 1)))
        return (w**2) * (freq[:, None] ** 2 + freq[None, :] ** 2)

    def rows(self, psis, hs):
        """Core rows of stacked slot states."""
        if self.plan.geometry.kind == basis.SPHERE:
            return psis.copy()
        c = self.core
        amp, nb = math.sqrt(2.0) / c.length, 2 * c.kmax + 1
        m = np.zeros((len(psis), nb, nb))
        for slot, links in self._torus_links():
            for (row, col), sign in links:
                m[:, row, col] += (amp * sign) * psis[:, slot]
        return np.concatenate((m.reshape(len(psis), -1), hs), axis=1)

    def lam_cols(self):
        """lam of every column of the core rows, 0 on the harmonic pair."""
        if self.plan.geometry.kind == basis.SPHERE:
            return self.plan.lam
        return np.concatenate((self._torus_lam().ravel(), np.zeros(2)))

    def _torus_synthesis(self, rows):
        """The vorticity and -(n x u) = grad psi - n x h grids: each second
        product takes one more table column, (0, 1, -1) for (vorticity,
        d/dx, d/dy), against one more row of first products, (0, h1, h0)."""
        c = self.core
        n, nb, b = c.shape[0], 2 * c.kmax + 1, len(rows)
        m = rows[:, : nb * nb].reshape(b, nb, nb)
        e, de = self._torus_axis_tables()
        e_de_t = np.ascontiguousarray(np.concatenate((e, de)).T)  # [E^T | dE^T]
        right = m @ e_de_t  # [M E^T | M dE^T]

        def second(table, col, first, last):
            table = np.concatenate((table, np.full((n, 1), col)), axis=1)
            last = np.broadcast_to(np.asarray(last, dtype=float)[..., None, None], (b, 1, n))
            return table @ np.concatenate((first, last), axis=1)

        zeta = second(e, 0.0, (m * -self._torus_lam()) @ e_de_t[:, :n], 0.0)
        grad_x = second(de, 1.0, right[..., :n], rows[:, -1])
        grad_y = second(e, -1.0, right[..., n:], rows[:, -2])
        return zeta, np.stack((grad_x, grad_y), axis=1)

    def _torus_analysis(self, g):
        """<g, n x grad> of every entry of M over its lam, weighted as a
        projection onto the entry's function (qw times the squared norm of
        its slots' links), then the means of g."""
        c = self.core
        n, amp, nb = c.shape[0], math.sqrt(2.0) / c.length, 2 * c.kmax + 1
        e, de = self._torus_axis_tables()
        # <g, n x grad> of each entry: integral of g_y d/dx - g_x d/dy, as
        # one product of [-E^T | dE^T] and the first products [g_x dE; g_y E];
        # the table is C-contiguous like the core's, since BLAS may round a
        # transposed left operand's last columns differently
        first = np.concatenate((g[:, 0] @ de, g[:, 1] @ e), axis=1)
        a = np.ascontiguousarray(np.concatenate((-e.T, de.T), axis=1)) @ first
        quad = (c.length / n) ** 2
        norm2 = np.zeros((nb, nb))
        for _, links in self._torus_links():
            for (row, col), sign in links:
                norm2[row, col] += (amp * sign) ** 2
        lam = self._torus_lam()
        weight = np.zeros((nb, nb))
        weight[norm2 > 0.0] = quad * norm2[norm2 > 0.0] / lam[norm2 > 0.0]
        mean = g.sum(axis=(-2, -1)) * (1.0 / (n * n))
        return np.concatenate(((a * weight).reshape(len(g), -1), mean), axis=1)

    def product(self, rows, sign=1.0):
        """P and Q of zeta (n x u) on row 0 and of Ntilde(u, U) on rows 1..,
        of `sign` times them analyzed when given (exactly the negated rows,
        but for the sign of the zero of the torus constant entry)."""
        plan = self.plan
        if plan.geometry.kind == basis.SPHERE:
            zeta, grad = self._sphere_synthesis(rows)
        else:
            zeta, grad = self._torus_synthesis(rows)
        u = _rot90(grad)  # the torus gradients carry the harmonic pair
        g = zeta[:, None] * _rot90(u[0])
        if len(g) > 1:
            g[1:] += zeta[0] * _rot90(u[1:])
        g *= sign
        if plan.geometry.kind == basis.SPHERE:
            return self._sphere_analysis(g)[0]
        return self._torus_analysis(g)

    def remainder_u(self, rows, params, fstate):
        filt = 1.0 + params.alpha**2 * self.lam_cols()
        p = self.product(rows, -1.0)
        p[0] += self.rows(fstate.psi[None], fstate.harmonic[None])[0]
        return (p - params.sigma * rows) / filt


class TestProductSign:
    """The kernel forms its product on grad psi - n x h = -(n x u) on both
    geometries; nonlinear_term negates what it returns."""

    @pytest.mark.parametrize(
        "kind,trunc,rows",
        [("sphere", 21, 1), ("sphere", 21, 9), ("torus", 16, 1), ("torus", 16, 7)],
    )
    def test_product_parts_are_the_negated_analysis(self, kind, trunc, rows):
        plan, _, _, psis, hs = _kernel_case(kind, trunc, rows)
        ref = _AllocatingRemainder(plan)
        core_rows = ref.rows(psis, hs)
        want = ref.product(core_rows)
        assert np.array_equal(dyn._product_parts(plan, core_rows), -want)
        split = dyn.nonlinear_term(plan, ops.VelocityState(psis[0], hs[0]))
        want_p, want_q = plan.core.from_rows(want[:1])
        assert np.array_equal(split.p_part, want_p[0])
        assert np.array_equal(split.q_part, want_q[0])


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
        ref = _AllocatingRemainder(plan)
        core_rows = ref.rows(psis, hs)
        # the core's rows and constants are the reference's too
        assert core_rows.tobytes() == plan.core.to_rows(psis, hs).tobytes()
        want = ref.remainder_u(core_rows, p, fstate)
        for _ in range(2):  # a fresh and a reused workspace
            got = dyn._remainder_u(plan, core_rows, p, dyn.run_constants(plan, p))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

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
            core_rows, run = plan.core.to_rows(psis, hs), dyn.run_constants(plan, p)
            calls = (
                lambda k: (dyn._remainder_u(plan, core_rows[2 * k : 2 * k + 2], p, run),),
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
                    for buf in vars(plan.core.workspace(rows)).values():
                        if isinstance(buf, np.ndarray):
                            assert not any(np.shares_memory(a, buf) for a in arrays)


def _broadcast_product_remainder(plan, rows, params, run):
    """`_remainder_u` with the grid product written out as it was first
    formed, by broadcasts over the components and the rows: zeta times row
    0's gradient grids, then zeta0 times each tangent's added in place."""
    core = plan.core
    ws = core.workspace(len(rows))
    grids = core.row_synthesis(rows, ws)
    g = grids[:, :1] * grids[:1, 1:]
    g[1:] += grids[:1, :1] * grids[1:, 1:]
    p = core.row_analysis(g, ws)
    p[0] += run.forcing
    p -= np.multiply(params.sigma, rows)
    p /= run.divisor
    return p


class TestGridProduct:
    """The kernel's grid product runs per component on flat row slices of
    the workspace grids, which numpy steps without buffers."""

    CASES = [("sphere", 21, 1), ("sphere", 21, 9), ("torus", 16, 1), ("torus", 16, 7)]

    @pytest.mark.parametrize("kind,trunc,rows", CASES)
    def test_matches_the_broadcast_product_bitwise(self, kind, trunc, rows):
        plan, p, _, psis, hs = _kernel_case(kind, trunc, rows)
        core_rows, run = plan.core.to_rows(psis, hs), dyn.run_constants(plan, p)
        want = _broadcast_product_remainder(plan, core_rows, p, run)
        got = dyn._remainder_u(plan, core_rows, p, run)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind,trunc,rows", [("sphere", 21, 9), ("torus", 16, 7)])
    def test_product_allocates_no_temporary(self, kind, trunc, rows):
        # the broadcast product made numpy allocate 69 KB (sphere) and 81 KB
        # (torus) at every call; the transforms allocate only the rows the
        # analysis returns
        plan, _, _, psis, hs = _kernel_case(kind, trunc, rows)
        core_rows = plan.core.to_rows(psis, hs)
        dyn._product_parts(plan, core_rows)  # the workspace, and BLAS's set-up
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = dyn._product_parts(plan, core_rows)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 4000, (peak, out.nbytes)

    def test_run_factors_are_row_views(self):
        # a one-row stack meets the divisor at its own shape, numpy's
        # same-shape path; a view, so it is not repeated over more rows
        plan, p, _, _, _ = _kernel_case("torus", 4, 1)
        divisor = dyn.run_constants(plan, p).divisor
        assert divisor.shape == (1, plan.core.ncols) and divisor.base is not None


class TestTransformPasses:
    """The torus transforms are separable matrix products: a torus
    right-hand side, stacked or not, and the trilinear form make no FFT
    call, nor does a sphere right-hand side up to the longitude crossover."""

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

    def test_torus_remainders_make_no_fft_call(self, monkeypatch):
        plan = torus_plan(16)
        params = params_for(plan, seed=6)
        run = dyn.run_constants(plan, params)
        rng = np.random.default_rng(7)
        psis = rng.standard_normal((7, plan.n_modes)) / (1.0 + plan.lam)
        hs = rng.standard_normal((7, 2))
        state = ops.VelocityState(psis[0], hs[0])
        rows = plan.core.to_rows(psis, hs)
        calls = self._count_ffts(monkeypatch)
        dyn._remainder_u(plan, rows[:1], params, run)
        dyn._remainder_u(plan, rows, params, run)
        dyn.rhs_u(plan, state, params)
        assert calls == []
        # nor does a sphere plan whose longitude stage is a matrix product
        sphere = sphere_plan(5)
        assert sphere.core.lon is not None
        dyn.rhs_u(sphere, ops.random_state(sphere, seed=9), params_for(sphere, seed=6))
        assert calls == []
        # the counter sees the FFTs of a sphere plan past the crossover
        sphere = sphere_plan(42)
        assert sphere.core.lon is None
        dyn.rhs_u(sphere, ops.random_state(sphere, seed=9), params_for(sphere, seed=6))
        assert calls == ["irfft", "rfft"]

    def test_torus_trilinear_form_makes_no_fft_call(self, monkeypatch):
        plan = torus_plan(16)
        rng = np.random.default_rng(8)
        states = [
            ops.VelocityState(rng.standard_normal(plan.n_modes) / (1.0 + plan.lam),
                              rng.standard_normal(2))
            for _ in range(3)
        ]
        calls = self._count_ffts(monkeypatch)
        ops.trilinear_b(plan, *states)
        assert calls == []


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
