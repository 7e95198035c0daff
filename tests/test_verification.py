"""Diagnostics records, Gronwall envelopes, and identity residual suite."""

import dataclasses

import numpy as np
import pytest

from bardina2d import basis, bounds, dynamics, integrate, operators as ops, verification
from bardina2d.errors import ConfigurationError


def sphere_plan(trunc=6):
    return basis.build_plan(basis.sphere(), trunc)


def torus_plan(trunc=5, length=2.0 * np.pi):
    return basis.build_plan(basis.torus(length), trunc)


def mode_state(plan, index, amp):
    psi = np.zeros(plan.n_modes)
    psi[basis.mode_slot(plan, index)] = amp
    return ops.VelocityState(psi, np.zeros(plan.n_harmonic))


def forcing_at(plan, index, amp):
    c = np.zeros(plan.n_modes)
    c[basis.mode_slot(plan, index)] = amp
    return dynamics.Forcing(c, np.zeros(plan.n_harmonic))


def record(plan, st, p, t, anchor=None):
    """`energy_record` of a state with its tendency evaluated by rhs_u."""
    return verification.energy_record(plan, st, p, t, anchor, dynamics.rhs_u(plan, st, p))


def streamed_records(plan, st, p, scheme):
    """Records of a run built as `simulate` builds them: from each sample's
    observed tendency, against envelopes anchored at the start state."""
    anchor = verification.envelopes(
        plan, p, ops.energy_e1(plan, st, p.alpha), ops.energy_e2(plan, st, p.alpha)
    )
    recs = []

    def observe(t, s, tend):
        recs.append(verification.energy_record(plan, s, p, t, anchor, tend))

    for _ in integrate.samples(plan, st, p, scheme, (observe,)):
        pass
    return recs


class TestEnergyRecord:
    def test_single_mode_energies(self):
        # |u| = 1 at lam = 2, alpha = 1: E1 = 3, E2 = 6, |v| = 3|u|
        plan = sphere_plan()
        st = mode_state(plan, (1, 0), 1.0 / np.sqrt(2.0))
        p = dynamics.ModelParams(1.0, 1.0, 0.0, dynamics.zero_forcing(plan))
        r = record(plan, st, p, 0.0)
        assert abs(r.u_l2 - 1.0) < 1e-14
        assert abs(r.e1 - 3.0) < 1e-14
        assert abs(r.e2 - 6.0) < 1e-13
        assert abs(r.u_v - np.sqrt(2.0)) < 1e-14
        assert abs(r.au_l2 - 2.0) < 1e-14
        assert abs(r.v_l2 - 3.0) < 1e-14
        assert r.h_l2 == 0.0
        assert r.envelope1 == r.e1
        assert r.envelope2 == r.e2

    def test_zero_state_all_zero(self):
        plan = torus_plan()
        st = ops.VelocityState(np.zeros(plan.n_modes), np.zeros(2))
        p = dynamics.ModelParams(1.0, 1.0, 0.5, dynamics.zero_forcing(plan))
        r = record(plan, st, p, 2.0)
        assert r.u_l2 == r.u_v == r.au_l2 == r.h_l2 == r.v_l2 == 0.0
        assert r.e1 == r.e2 == 0.0
        assert r.energy_residual == 0.0
        assert r.t == 2.0

    def test_constant_field_norm_is_area_weighted(self):
        # h = (1, 0) on the 2 pi torus: |u| = |u_2| = 2 pi, no rotational part
        plan = torus_plan()
        st = ops.VelocityState(np.zeros(plan.n_modes), np.array([1.0, 0.0]))
        p = dynamics.ModelParams(1.0, 1.0, 0.5, dynamics.zero_forcing(plan))
        r = record(plan, st, p, 0.0)
        assert abs(r.u_l2 - 2.0 * np.pi) < 1e-13
        assert abs(r.h_l2 - 2.0 * np.pi) < 1e-13
        assert r.u_v == 0.0
        assert abs(r.e1 - 4.0 * np.pi**2) < 1e-12
        assert r.e2 == 0.0

    def test_energy_residual_small_on_random_states(self):
        rng = np.random.default_rng(5)
        for plan, sigma in ((sphere_plan(), 0.0), (torus_plan(), 0.3)):
            c = rng.standard_normal(plan.n_modes)
            f = dynamics.Forcing(c, 0.1 * rng.standard_normal(plan.n_harmonic))
            p = dynamics.ModelParams(0.7, 1.2, sigma, f)
            psi = rng.standard_normal(plan.n_modes) / (1.0 + plan.lam)
            st = ops.VelocityState(psi, rng.standard_normal(plan.n_harmonic))
            r = record(plan, st, p, 1.0)
            assert r.energy_residual <= 1e-10
            assert np.isfinite([r.e1, r.e2, r.u_l2, r.u_v, r.au_l2, r.v_l2]).all()
            assert r.e1 >= 0.0 and r.e2 >= 0.0

    def test_overflowing_state_records_nan_residual(self):
        # |u|^2 overflows: sigma = 0 times inf makes the scale NaN on the
        # sphere, drag makes it inf on the torus; neither may record 0
        for plan, sigma in ((sphere_plan(), 0.0), (torus_plan(), 0.5)):
            p = dynamics.ModelParams(1e-4, 0.01, sigma, forcing_at(plan, (1, 1), 1.0))
            psi = np.full(plan.n_modes, 1e200)
            st = ops.VelocityState(psi, np.full(plan.n_harmonic, 1e200))
            with np.errstate(all="ignore"):
                r = record(plan, st, p, 3.5)
            assert np.isinf(r.e1) and np.isinf(r.e2)
            assert np.isnan(r.energy_residual)

    def test_forced_zero_state_records_zero_residual(self):
        # <f, 0> = 0 and no drain: the scale is exactly 0, the residual 0
        for plan, sigma in ((sphere_plan(), 0.0), (torus_plan(), 0.5)):
            p = dynamics.ModelParams(1.0, 1.0, sigma, forcing_at(plan, (1, 1), 1.0))
            st = ops.zero_state(plan)
            assert record(plan, st, p, 0.0).energy_residual == 0.0

    def test_anchored_envelopes_use_elapsed_time(self):
        plan = sphere_plan()
        p = dynamics.ModelParams(1.0, 1.0, 0.0, dynamics.zero_forcing(plan))
        st = mode_state(plan, (1, 0), 1.0)
        anchor = verification.envelopes(plan, p, 5.0, 8.0, 1.0)
        r = record(plan, st, p, 3.0, anchor)
        # unforced sphere: both envelopes decay at nu lambda_1 = 2 over t - t0 = 2
        assert r.envelope1 == 5.0 * np.exp(-4.0)
        assert r.envelope2 == 8.0 * np.exp(-4.0)


    def test_given_tendency_matches_evaluated_one(self):
        # the tendency a sample observer receives gives the record rhs_u gives
        rng = np.random.default_rng(6)
        for plan, sigma in ((sphere_plan(), 0.0), (torus_plan(), 0.3)):
            c = rng.standard_normal(plan.n_modes)
            f = dynamics.Forcing(c, 0.1 * rng.standard_normal(plan.n_harmonic))
            p = dynamics.ModelParams(0.7, 1.2, sigma, f)
            st = verification.probe_state(plan, rng)
            anchor = verification.envelopes(plan, p, 2.0, 3.0, 0.5)
            given, evaluated = [], []

            def observe(t, s, tend):
                given.append(verification.energy_record(plan, s, p, t, anchor, tend))
                evaluated.append(record(plan, s, p, t, anchor))

            scheme = integrate.SchemeConfig(dt=0.01, t_end=0.03)
            for _ in integrate.samples(plan, st, p, scheme, (observe,)):
                pass
            assert len(given) == 4
            assert [dataclasses.asdict(r) for r in given] == [
                dataclasses.asdict(r) for r in evaluated
            ]


class TestGronwallEnvelopes:
    def test_zero_elapsed_returns_anchor(self):
        plan = sphere_plan()
        p = dynamics.ModelParams(1.0, 1.0, 0.0, forcing_at(plan, (1, 0), 1.0))
        env1, env2 = verification.envelopes(plan, p, 4.0, 9.0).at(0.0)
        assert env1 == 4.0
        assert env2 == 9.0

    def test_sphere_asymptote(self):
        # limit of env1 is |A^-1 f|^2 / (nu^2 alpha^2 lam1)
        plan = sphere_plan()
        f = forcing_at(plan, (2, 1), 1.5)
        p = dynamics.ModelParams(0.8, 1.1, 0.0, f)
        n = bounds.forcing_norms(plan, f)
        env1, env2 = verification.envelopes(plan, p, 10.0, 10.0).at(1e6)
        want1 = n.f1_inv**2 / (0.8**2 * 1.1**2 * 2.0)
        want2 = n.f1_half_inv**2 / (0.8**2 * 1.1**2 * 2.0)
        assert abs(env1 - want1) < 1e-12 * want1
        assert abs(env2 - want2) < 1e-12 * want2

    def test_generic_asymptote_doubles_enstrophy_level(self):
        plan = torus_plan()
        f = forcing_at(plan, (1, 0), 1.0)
        p = dynamics.ModelParams(0.5, 1.0, 0.4, f)
        c = bounds.constants(plan, p)
        env1, env2 = verification.envelopes(plan, p, 1.0, 1.0).at(1e7)
        assert abs(env1 - c.l1 / c.delta) < 1e-12 * env1
        assert abs(env2 - 2.0 * c.l2 / c.delta_prime) < 1e-12 * env2

    def test_unforced_pure_decay(self):
        plan = torus_plan()
        p = dynamics.ModelParams(1.0, 1.0, 0.5, dynamics.zero_forcing(plan))
        c = bounds.constants(plan, p)
        t = np.array([0.0, 0.5, 2.0])
        env1, env2 = verification.envelopes(plan, p, 3.0, 7.0).at(t)
        assert np.allclose(env1, 3.0 * np.exp(-c.delta * t), rtol=1e-15)
        assert np.allclose(env2, 7.0 * np.exp(-c.delta_prime * t), rtol=1e-15)
        assert env1.shape == t.shape

    def test_undamped_torus_rejected(self):
        plan = torus_plan()
        p = dynamics.ModelParams(1.0, 1.0, 0.0, dynamics.zero_forcing(plan))
        with pytest.raises(ConfigurationError):
            verification.envelopes(plan, p, 1.0, 1.0)


class TestCheckTrajectory:
    """`envelope_flags` on the records of a run streamed as `simulate` streams it."""

    def decay_records(self):
        plan = sphere_plan()
        p = dynamics.ModelParams(1.0, 1.0, 0.0, dynamics.zero_forcing(plan))
        st = mode_state(plan, (1, 0), 1.0)
        scheme = integrate.SchemeConfig(dt=0.05, t_end=2.0, stride=4)
        return plan, p, streamed_records(plan, st, p, scheme)

    @staticmethod
    def flags(recs, dt):
        """The (E1, E2) flags of each record, one row per record."""
        cols = np.array([[r.e1, r.envelope1, r.e2, r.envelope2] for r in recs]).reshape(-1, 4)
        return np.stack(verification.envelope_flags(*cols.T, dt), axis=-1)

    def test_unforced_decay_within_envelopes(self):
        _, _, recs = self.decay_records()
        assert len(recs) > 5
        assert not self.flags(recs, 0.05).any()

    def test_inflated_energies_flagged_everywhere(self):
        _, _, recs = self.decay_records()
        bad = [
            dataclasses.replace(r, e1=2.0 * r.envelope1, e2=2.0 * r.envelope2)
            for r in recs
        ]
        flags = self.flags(bad, 0.0)
        assert flags.shape == (len(recs), 2) and flags.all()

    def test_empty_records_empty_report(self):
        assert self.flags([], 0.05).shape == (0, 2)

    def test_step_allowance_scales_with_dt_squared(self):
        _, _, recs = self.decay_records()
        r = recs[0]
        marginal = dataclasses.replace(r, e1=r.e1 * (1.0 + 0.005))
        assert self.flags([marginal], 0.0).any()
        assert not self.flags([marginal], 0.1).any()

    def test_a_nan_is_a_violation(self):
        # a comparison that is not true fails: NaN energies, envelopes or dt
        assert verification.envelope_flags(np.nan, 1.0, 1.0, 1.0, 0.0) == (True, False)
        assert verification.envelope_flags(1.0, 1.0, 1.0, np.nan, 0.0) == (False, True)
        assert verification.envelope_flags(0.5, 1.0, 0.5, 1.0, np.nan) == (True, True)
        # finite values are flagged exactly as a strict excess
        e = np.array([0.5, 1.0, 1.0 + 2e-6, np.inf])
        over1, over2 = verification.envelope_flags(e, 1.0, e, 1.0, 0.0)
        assert over1.tolist() == over2.tolist() == [False, False, True, True]


class TestProbeState:
    def test_draws_psi_before_the_harmonic_pair(self):
        for plan in (sphere_plan(), torus_plan()):
            st = verification.probe_state(plan, ops.NormalStream(12), amplitude=0.5)
            rng = ops.NormalStream(12)
            psi = 0.5 * rng.standard_normal(plan.n_modes) / np.sqrt(1.0 + plan.lam)
            h = 0.5 * rng.standard_normal(plan.n_harmonic)
            assert np.array_equal(st.psi, psi)
            assert np.array_equal(st.harmonic, h)


class TestIdentitySuite:
    def test_residuals_tiny_on_dealiased_states(self):
        for plan in (sphere_plan(), torus_plan()):
            p = dynamics.ModelParams(1.0, 1.0, 0.5, dynamics.zero_forcing(plan))
            table = verification.identity_suite(plan, p, seed=42)
            assert len(table) == 5
            for name, residuals in table.items():
                assert residuals.shape == (20,)
                assert residuals.max() <= 1e-9, name

    def test_geometry_specific_keys(self):
        sp, tp = sphere_plan(), torus_plan()
        psp = dynamics.ModelParams(1.0, 1.0, 0.0, dynamics.zero_forcing(sp))
        ptp = dynamics.ModelParams(1.0, 1.0, 0.5, dynamics.zero_forcing(tp))
        assert "b_enstrophy" in verification.identity_suite(sp, psp, 1, n_states=2)
        assert "harmonic_pair" in verification.identity_suite(tp, ptp, 1, n_states=2)

    def test_zero_amplitude_zero_residuals(self):
        plan = sphere_plan()
        p = dynamics.ModelParams(1.0, 1.0, 0.0, dynamics.zero_forcing(plan))
        table = verification.identity_suite(plan, p, seed=3, n_states=4, amplitude=0.0)
        for residuals in table.values():
            assert np.all(residuals == 0.0)

    def test_full_band_torus_states_satisfy_identities(self):
        # the suite's states fill every mode up to the truncation edge, so a
        # band mask on the nonlinear output would break <B(u, u), u> = 0
        plan = torus_plan(trunc=6)
        p = dynamics.ModelParams(1.0, 1.0, 0.5, dynamics.zero_forcing(plan))
        table = verification.identity_suite(plan, p, seed=7)
        assert sorted(table) == ["b_energy", "b_form", "b_swap", "b_uvv", "harmonic_pair"]
        for name, residuals in table.items():
            assert residuals.max() <= 1e-12, name


class TestAverageEnstrophy:
    def test_forced_run_within_bound(self):
        plan = sphere_plan()
        f = forcing_at(plan, (2, 1), 0.3)
        p = dynamics.ModelParams(1.0, 1.0, 0.0, f)
        st = mode_state(plan, (1, 1), 0.2)
        scheme = integrate.SchemeConfig(dt=0.02, t_end=5.0, stride=10)
        recs = streamed_records(plan, st, p, scheme)
        rep = verification.average_enstrophy_check(plan, recs, p)
        assert rep["ok"]
        assert rep["average"] <= rep["bound"]
        c = bounds.constants(plan, p)
        want = 2.0 * c.l2 / c.delta_prime + rep["transient"]
        assert abs(rep["bound"] - want) < 1e-15 * want

    def test_requires_time_span(self):
        plan = sphere_plan()
        p = dynamics.ModelParams(1.0, 1.0, 0.0, dynamics.zero_forcing(plan))
        st = mode_state(plan, (1, 0), 1.0)
        r = record(plan, st, p, 0.0)
        with pytest.raises(ConfigurationError):
            verification.average_enstrophy_check(plan, [r], p)
        with pytest.raises(ConfigurationError):
            verification.average_enstrophy_check(plan, [r, r], p)
