"""Closed-form constants, radii, and dimension bounds against frozen oracles."""

import json

import numpy as np
import pytest
from scipy.optimize import brentq

from bardina2d import basis, bounds, dynamics, operators as ops
from bardina2d.errors import ConfigurationError, UnsupportedGeometryError


def sphere_plan(trunc=6):
    return basis.build_plan(basis.sphere(), trunc)


def torus_plan(length=2.0 * np.pi, trunc=4):
    return basis.build_plan(basis.torus(length), trunc)


def single_mode_forcing(plan, index, amp):
    c = np.zeros(plan.n_modes)
    c[basis.mode_slot(plan, index)] = amp
    return dynamics.Forcing(c, np.zeros(plan.n_harmonic))


def params_with(plan, nu, alpha, sigma, forcing):
    return dynamics.ModelParams(nu, alpha, sigma, forcing)


class TestForcingNorms:
    def test_single_sphere_mode_closed_form(self):
        # lam = 2 at degree 1: |f1| = a/sqrt(2), |A^-1/2 f1| = a/2, |A^-1 f1| = a/2^1.5
        plan = sphere_plan()
        a = 1.75
        n = bounds.forcing_norms(plan, single_mode_forcing(plan, (1, 0), a))
        assert abs(n.f1 - a / np.sqrt(2.0)) < 1e-14
        assert abs(n.f1_half_inv - a / 2.0) < 1e-14
        assert abs(n.f1_inv - a / 2.0**1.5) < 1e-14
        assert n.f2 == 0.0
        assert n.total == n.f1

    def test_harmonic_norm_uses_area(self):
        plan = torus_plan(length=2.0)
        f = dynamics.Forcing(np.zeros(plan.n_modes), np.array([0.3, -0.4]))
        n = bounds.forcing_norms(plan, f)
        # |f2|^2 = area * (0.09 + 0.16) = 4 * 0.25
        assert abs(n.f2 - 1.0) < 1e-15
        assert n.total == 1.0

    def test_matches_quadrature_norms(self):
        rng = np.random.default_rng(7)
        for plan in (sphere_plan(), torus_plan()):
            c = rng.standard_normal(plan.n_modes) * plan.lam**0.5
            f = dynamics.Forcing(c, rng.standard_normal(plan.n_harmonic))
            n = bounds.forcing_norms(plan, f)
            fstate = dynamics.forcing_state(plan, f)
            rot = ops.VelocityState(fstate.psi, np.zeros(plan.n_harmonic))
            assert abs(n.f1 - ops.norm_l2(plan, rot)) < 1e-12 * n.f1
            inv = ops.VelocityState(fstate.psi / plan.lam, np.zeros(plan.n_harmonic))
            assert abs(n.f1_inv - ops.norm_l2(plan, inv)) < 1e-12 * n.f1_inv
            half = ops.VelocityState(fstate.psi / np.sqrt(plan.lam), np.zeros(plan.n_harmonic))
            assert abs(n.f1_half_inv - ops.norm_l2(plan, half)) < 1e-12 * n.f1_half_inv
            assert abs(n.total - ops.norm_l2(plan, fstate)) < 1e-12 * n.total


class TestConstants:
    def test_rate_minima_with_drag(self):
        # nu lam1 = 2 against sigma = 5: delta = 2, delta' = min(3, 10) = 3
        plan = torus_plan(length=np.pi * np.sqrt(2.0))
        f = single_mode_forcing(plan, (1, 0), 1.0)
        c = bounds.constants(plan, params_with(plan, 1.0, 1.0, 5.0, f))
        assert abs(plan.lambda_1 - 2.0) < 1e-14
        assert abs(c.delta - 2.0) < 1e-14
        assert abs(c.delta_prime - 3.0) < 1e-14
        weak = bounds.constants(plan, params_with(plan, 1.0, 1.0, 0.1, f))
        assert weak.delta == 0.1
        assert abs(weak.delta_prime - 0.2) < 1e-15

    def test_source_levels_hand_example(self):
        # L = 2 pi, k = (1, 0): lam = 1, c = 2 so all three f1 norms equal 2
        plan = torus_plan()
        f = dynamics.Forcing(
            single_mode_forcing(plan, (1, 0), 2.0).f1_curl, np.array([1.0, 0.0])
        )
        p = params_with(plan, 0.5, 2.0, 0.25, f)
        c = bounds.constants(plan, p)
        # L1 = min(4/(0.5*4), 4/0.5) + 4 pi^2/0.25; L2 = min(4/2, 8)
        assert abs(c.l1 - (2.0 + 16.0 * np.pi**2)) < 1e-10
        assert c.l2 == 2.0
        assert c.delta == 0.25
        assert c.delta_prime == 0.5

    def test_undamped_sphere_single_branch(self):
        # alpha^2 lam1 < 1 makes the competing branch smaller; the undamped
        # energy estimate still forces |A^-1 f|^2 / (nu alpha^2)
        plan = sphere_plan()
        f = single_mode_forcing(plan, (1, 1), 1.0)
        n = bounds.forcing_norms(plan, f)
        c = bounds.constants(plan, params_with(plan, 1.0, 0.5, 0.0, f))
        assert c.delta == c.delta_prime == 2.0
        assert c.l1 == n.f1_inv**2 / 0.25
        assert c.l1 > min(n.f1_inv**2 / 0.25, n.f1_half_inv**2)
        assert c.l2 == min(n.f1_half_inv**2 / 0.25, n.f1**2)

    def test_undamped_torus_rejected(self):
        plan = torus_plan()
        f = single_mode_forcing(plan, (1, 0), 1.0)
        with pytest.raises(ConfigurationError):
            bounds.constants(plan, params_with(plan, 1.0, 1.0, 0.0, f))

    def test_trace_constants_by_geometry(self):
        sp = sphere_plan()
        cs = bounds.constants(sp, params_with(sp, 1.0, 1.0, 0.0, single_mode_forcing(sp, (1, 0), 1.0)))
        assert cs.k1 == 3.0 / (2.0 * np.pi)
        assert cs.k2 == 0.25
        assert not cs.k2_direct
        tp = torus_plan()
        ct = bounds.constants(tp, params_with(tp, 1.0, 1.0, 1.0, single_mode_forcing(tp, (1, 0), 1.0)))
        assert ct.k1 == 3.0 / (2.0 * np.pi)
        assert abs(ct.k2 - 1.0 / (12.0 * np.pi)) < 1e-17
        assert ct.k2_direct


class TestAbsorbingRadii:
    def test_unit_sphere_energy_radius(self):
        # nu = alpha = 1 and |A^-1 f| = 1: L1 = 1, shell = 3, delta = 2,
        # so rho0 = 2 sqrt(1/6)
        plan = sphere_plan()
        f = single_mode_forcing(plan, (1, 0), 2.0**1.5)
        p = params_with(plan, 1.0, 1.0, 0.0, f)
        r = bounds.radii_from_constants(bounds.constants(plan, p), p.alpha)
        assert abs(r.rho0 - 2.0 / np.sqrt(6.0)) < 1e-13
        assert abs(r.rho_v_sum - (r.rho0 + r.rho2)) < 1e-15
        assert r.rho_v_half == 0.5 * r.rho_v_sum

    def test_enstrophy_radius_uses_faster_rate(self):
        # delta = 2 but delta' = 3; rho2 must decay with the faster rate
        plan = torus_plan(length=np.pi * np.sqrt(2.0))
        f = single_mode_forcing(plan, (1, 0), 1.0)
        p = params_with(plan, 1.0, 1.2, 5.0, f)
        c = bounds.constants(plan, p)
        r = bounds.radii_from_constants(c, p.alpha)
        assert c.delta != c.delta_prime
        assert abs(r.rho2 - 2.0 * np.sqrt(c.l2 / (1.2**2 * 3.0))) < 1e-15
        assert abs(r.rho1_tilde - 2.0 * np.sqrt(c.l2 / ((1.0 + 1.2**2 * 2.0) * 3.0))) < 1e-15
        assert abs(r.rho1 - 2.0 * np.sqrt(c.l1 / (1.2**2 * 2.0))) < 1e-14

    def test_zero_forcing_zero_radii(self):
        plan = sphere_plan()
        f = dynamics.Forcing(np.zeros(plan.n_modes), np.zeros(0))
        p = params_with(plan, 1.0, 1.0, 0.0, f)
        r = bounds.radii_from_constants(bounds.constants(plan, p), p.alpha)
        assert r.rho0 == r.rho1 == r.rho1_tilde == r.rho2 == 0.0
        assert r.rho_v_sum == 0.0

    def test_radii_linear_in_forcing(self):
        plan = sphere_plan()
        rng = np.random.default_rng(3)
        c = rng.standard_normal(plan.n_modes)
        p1 = params_with(plan, 0.8, 1.1, 0.0, dynamics.Forcing(c, np.zeros(0)))
        p2 = params_with(plan, 0.8, 1.1, 0.0, dynamics.Forcing(3.0 * c, np.zeros(0)))
        r1 = bounds.radii_from_constants(bounds.constants(plan, p1), p1.alpha)
        r2 = bounds.radii_from_constants(bounds.constants(plan, p2), p2.alpha)
        for a, b in zip(
            (r1.rho0, r1.rho1, r1.rho1_tilde, r1.rho2, r1.rho_v_sum),
            (r2.rho0, r2.rho1, r2.rho1_tilde, r2.rho2, r2.rho_v_sum),
        ):
            assert abs(b - 3.0 * a) < 1e-12 * max(b, 1.0)


class TestDimensionBounds:
    def test_sphere_closed_form_frozen(self):
        # nu = alpha = 1, |f| = 10: N* = 3 G / (4 sqrt(2 pi))
        got = bounds.nstar_sphere(1.0, 1.0, 10.0)
        assert abs(got - 30.0 / (4.0 * np.sqrt(2.0 * np.pi))) < 1e-13
        assert abs(got - 2.992067103010745) < 1e-12

    def test_torus_collapses_to_three_grashof(self):
        # L = 2 pi and alpha = 1: prefactor 3 sqrt(2)/2 times shell sqrt(2)
        for nu, f in [(1.0, 1.0), (0.7, 2.3), (2.0, 11.0)]:
            got = bounds.nstar_torus(nu, 1.0, 2.0 * np.pi, f)
            assert abs(got - 3.0 * f / nu**2) < 1e-13 * got

    def test_generic_matches_sphere_closed_form(self):
        # k1 = 3/(2 pi), k2 = 1/4, lam1 = 2, X = |f|^2/(8 nu^2 alpha^2)
        rng = np.random.default_rng(11)
        for _ in range(25):
            nu, alpha, f = np.exp(rng.uniform(-1.5, 1.5, size=3))
            x = f**2 / (8.0 * nu**2 * alpha**2)
            got = bounds.nstar_generic(nu, alpha, 2.0, bounds.K1_SLT, 0.25, x)
            want = bounds.nstar_sphere(nu, alpha, f)
            assert abs(got - want) < 1e-12 * want

    def test_generic_agrees_with_numeric_root(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            nu, alpha, x = np.exp(rng.uniform(-1.5, 2.0, size=3))
            lam1 = float(np.exp(rng.uniform(-1.0, 1.0)))
            k2 = float(np.exp(rng.uniform(-3.0, 0.0)))

            def q(nn):
                drop = -0.5 * nu * k2 * lam1 * nn**2
                return drop + bounds.K1_SLT / (4.0 * nu) * (1.0 + 1.0 / (lam1 * alpha**2)) * x

            root = brentq(q, 1e-9, 1e9, xtol=1e-300, rtol=8.9e-16)
            want = bounds.nstar_generic(nu, alpha, lam1, bounds.K1_SLT, k2, x)
            assert abs(root - want) < 1e-10 * want

    def test_torus_agrees_with_direct_majorant_root(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            nu, alpha, f = np.exp(rng.uniform(-1.0, 1.0, size=3))
            length = float(np.exp(rng.uniform(0.5, 2.5)))

            def q(nn):
                drop = -nu * np.pi * nn**2 / (6.0 * length**2)
                shell = 1.0 + length**2 / (4.0 * np.pi**2 * alpha**2)
                rise = 3.0 * length**4 / (256.0 * np.pi**5 * alpha**2) * shell * f**2 / nu**3
                return drop + rise

            root = brentq(q, 1e-9, 1e12, xtol=1e-300, rtol=8.9e-16)
            want = bounds.nstar_torus(nu, alpha, length, f)
            assert abs(root - want) < 1e-10 * want

    def test_bound_linear_in_grashof(self):
        a = bounds.nstar_sphere(0.5, 1.4, 3.0)
        b = bounds.nstar_sphere(0.5, 1.4, 6.0)
        assert abs(b - 2.0 * a) < 1e-12 * b
        c = bounds.nstar_torus(0.5, 1.4, 3.0, 3.0)
        d = bounds.nstar_torus(0.5, 1.4, 3.0, 6.0)
        assert abs(d - 2.0 * c) < 1e-12 * d

    def test_enstrophy_level_ordering(self):
        # loose/tight = lam/2 for a single mode at eigenvalue lam
        plan = sphere_plan()
        n1 = bounds.forcing_norms(plan, single_mode_forcing(plan, (1, 0), 1.0))
        t1, l1 = bounds.sphere_enstrophy_levels(1.0, 1.0, n1)
        assert abs(t1 - l1) < 1e-16
        n2 = bounds.forcing_norms(plan, single_mode_forcing(plan, (2, 1), 1.0))
        t2, l2 = bounds.sphere_enstrophy_levels(1.0, 1.0, n2)
        assert l2 > t2
        assert abs(l2 / t2 - 3.0) < 1e-13

    def test_dispatch_and_validation(self):
        sp = sphere_plan()
        f = single_mode_forcing(sp, (1, 0), 1.0)
        p = params_with(sp, 1.0, 1.0, 0.0, f)
        n = bounds.forcing_norms(sp, f)
        assert bounds.attractor_bound(sp, p) == bounds.nstar_sphere(1.0, 1.0, n.total)
        tp = torus_plan(length=3.0)
        ft = single_mode_forcing(tp, (1, 1), 2.0)
        pt = params_with(tp, 0.5, 1.0, 0.3, ft)
        nt = bounds.forcing_norms(tp, ft)
        got = bounds.attractor_bound(tp, pt)
        assert got == bounds.nstar_torus(0.5, 1.0, 3.0, nt.total)

    def test_grashof_variants(self):
        assert bounds.grashof(0.5, 3.0) == 12.0


class TestInertialReport:
    def plan_and_params(self, nu=1.0, alpha=1.0):
        plan = sphere_plan()
        f = single_mode_forcing(plan, (1, 0), 1.0)
        return plan, params_with(plan, nu, alpha, 0.0, f)

    def test_gap_sequence(self):
        plan, p = self.plan_and_params()
        rep = bounds.inertial_report(plan, p, rho=1.0, n_max=6)
        assert np.array_equal(rep.gaps, [4.0, 6.0, 8.0, 10.0, 12.0, 14.0])

    def test_zero_radius_crosses_immediately(self):
        plan, p = self.plan_and_params()
        rep = bounds.inertial_report(plan, p, rho=0.0)
        assert rep.ell == 0.0
        assert rep.crossing == 1

    def test_crossing_shell_hand_example(self):
        # lam1 = 2, alpha = 1, c = 1: ell = 2 rho, threshold 4 rho / nu = 9.5
        plan, p = self.plan_and_params()
        rep = bounds.inertial_report(plan, p, rho=2.375)
        assert rep.ell == 4.75
        assert rep.crossing == 4

    def test_no_crossing_within_range(self):
        plan, p = self.plan_and_params()
        rep = bounds.inertial_report(plan, p, rho=100.0, n_max=8)
        assert rep.crossing == -1

    def test_inputs_echoed_and_validated(self):
        plan, p = self.plan_and_params()
        rep = bounds.inertial_report(plan, p, rho=0.5, c=2.5)
        assert rep.c == 2.5
        assert rep.rho == 0.5
        assert abs(rep.ell - 2.5 * 2.0 / 2.0) < 1e-15
        assert "not computable" in rep.squeezing_note
        with pytest.raises(ConfigurationError):
            bounds.inertial_report(plan, p, rho=0.5, c=0.0)
        with pytest.raises(ConfigurationError):
            bounds.inertial_report(plan, p, rho=-1.0)
        tp = torus_plan()
        ftp = single_mode_forcing(tp, (1, 0), 1.0)
        with pytest.raises(UnsupportedGeometryError):
            bounds.inertial_report(tp, params_with(tp, 1.0, 1.0, 0.5, ftp), rho=0.5)


class TestBoundsReport:
    def test_sphere_report_complete_and_serializable(self):
        plan = sphere_plan()
        f = single_mode_forcing(plan, (1, 0), 2.0)
        p = params_with(plan, 1.0, 1.0, 0.0, f)
        rep = bounds.bounds_report(plan, p, n_max=4)
        json.dumps(rep)
        n = bounds.forcing_norms(plan, f)
        assert rep["nstar"] == bounds.nstar_sphere(1.0, 1.0, n.total)
        assert rep["l2_over_deltap_tight"] <= rep["l2_over_deltap_loose"] + 1e-16
        assert rep["inertial"]["crossing"] >= 1
        assert len(rep["inertial"]["gaps"]) == 4
        assert "positive root" in rep["exponent_note"]
        assert rep["inputs"]["geometry"] == "sphere"

    def test_torus_report_skips_sphere_extras(self):
        plan = torus_plan(length=3.0)
        f = dynamics.Forcing(
            single_mode_forcing(plan, (1, 0), 1.0).f1_curl, np.array([0.2, 0.0])
        )
        p = params_with(plan, 0.4, 0.9, 0.6, f)
        rep = bounds.bounds_report(plan, p)
        json.dumps(rep)
        assert "inertial" not in rep
        assert "l2_over_deltap_tight" not in rep
        n = bounds.forcing_norms(plan, f)
        assert rep["nstar"] == bounds.nstar_torus(0.4, 0.9, 3.0, n.total)
        assert rep["grashof"] == n.total / 0.4**2
        c = bounds.constants(plan, p)
        assert rep["average_enstrophy_bound"] == 2.0 * c.l2 / c.delta_prime
        assert rep["k2_from_direct_inequality"]
