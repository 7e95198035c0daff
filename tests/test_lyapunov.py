"""Weighted tangent-ensemble exponents, trace estimates, and dimension verdicts."""

import numpy as np
import pytest

from bardina2d import basis, bounds, dynamics, integrate, lyapunov, operators as ops
from bardina2d.errors import ConfigurationError, DegenerateEnsembleError


def sphere_plan(trunc=6):
    return basis.build_plan(basis.sphere(), trunc)


def torus_plan(trunc=4, length=2.0 * np.pi):
    return basis.build_plan(basis.torus(length), trunc)


def zero_state(plan):
    return ops.VelocityState(np.zeros(plan.n_modes), np.zeros(plan.n_harmonic))


def unforced(plan, nu=1.0, alpha=1.0, sigma=0.0):
    return dynamics.ModelParams(nu, alpha, sigma, dynamics.zero_forcing(plan))


def eigen_tangent(plan, index, alpha):
    psi = np.zeros(plan.n_modes)
    slot = basis.mode_slot(plan, index)
    lam = plan.lam[slot]
    psi[slot] = 1.0 / np.sqrt(lam * (1.0 + alpha**2 * lam))
    return ops.VelocityState(psi, np.zeros(plan.n_harmonic))


def orthonormalize(plan, tangents, alpha):
    """Weighted Gram-Schmidt of a list of states through their core rows:
    (states, scale factors)."""
    rows = plan.core.to_rows(
        np.stack([t.psi for t in tangents]), np.stack([t.harmonic for t in tangents])
    )
    r = lyapunov._orthonormalize_arrays(plan, rows, alpha)
    return [ops.VelocityState(p, h) for p, h in zip(*plan.core.from_rows(rows))], r


def gram_matrix(plan, tangents, alpha):
    n = len(tangents)
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            g[i, j] = ops.inner_weighted(plan, tangents[i], tangents[j], alpha)
    return g


class TestOrthonormalize:
    def test_eigenmode_set_is_fixed_point(self):
        plan = sphere_plan()
        tangents = [eigen_tangent(plan, (1, m), 1.0) for m in (-1, 0, 1)]
        out, r = orthonormalize(plan, tangents, 1.0)
        assert np.allclose(r, 1.0, rtol=1e-13)
        for before, after in zip(tangents, out):
            assert np.allclose(after.psi, before.psi, rtol=1e-13, atol=0.0)

    def test_duplicate_directions_degenerate(self):
        plan = sphere_plan()
        t = eigen_tangent(plan, (2, 1), 1.0)
        dup = ops.VelocityState(t.psi.copy(), t.harmonic.copy())
        with pytest.raises(DegenerateEnsembleError):
            orthonormalize(plan, [t, dup], 1.0)

    def test_random_set_gram_identity(self):
        rng = np.random.default_rng(21)
        for plan in (sphere_plan(), torus_plan()):
            tangents = [
                ops.VelocityState(
                    rng.standard_normal(plan.n_modes),
                    rng.standard_normal(plan.n_harmonic),
                )
                for _ in range(5)
            ]
            out, r = orthonormalize(plan, tangents, 0.8)
            assert np.all(r > 0.0)
            g = gram_matrix(plan, out, 0.8)
            assert np.abs(g - np.eye(5)).max() <= 1e-12

    def test_input_states_not_mutated(self):
        plan = torus_plan()
        rng = np.random.default_rng(4)
        t = ops.VelocityState(
            rng.standard_normal(plan.n_modes), np.array([1.0, 0.0])
        )
        keep = t.psi.copy()
        orthonormalize(plan, [t], 1.0)
        assert np.array_equal(t.psi, keep)


class TestEigenvalueLadder:
    def test_sphere_ladder_counts_degeneracy(self):
        plan = sphere_plan()
        ladder = lyapunov.eigenvalue_ladder(plan, 5)
        assert np.allclose(ladder, [2.0, 2.0, 2.0, 6.0, 6.0])

    def test_torus_ladder_leads_with_kernel(self):
        plan = torus_plan()
        ladder = lyapunov.eigenvalue_ladder(plan, 4)
        assert ladder[0] == ladder[1] == 0.0
        assert np.allclose(ladder[2:], [1.0, 1.0])

    def test_ladder_capacity_checked(self):
        plan = torus_plan(trunc=2)
        with pytest.raises(ConfigurationError):
            lyapunov.eigenvalue_ladder(plan, plan.n_modes + 3)


class TestTraceQn:
    def test_diagonal_at_zero_state(self):
        plan = sphere_plan()
        params = unforced(plan)
        tangents = [eigen_tangent(plan, (1, m), 1.0) for m in (-1, 0, 1)]
        tangents.append(eigen_tangent(plan, (2, 0), 1.0))
        got = lyapunov.trace_qn(plan, zero_state(plan), tangents, params)
        assert abs(got - (-1.0 * (2.0 + 2.0 + 2.0 + 6.0))) < 1e-12

    def test_harmonic_block_is_pure_drag(self):
        plan = torus_plan()
        rng = np.random.default_rng(9)
        state = ops.VelocityState(
            rng.standard_normal(plan.n_modes) / (1.0 + plan.lam),
            rng.standard_normal(2),
        )
        params = dynamics.ModelParams(0.5, 1.0, 0.4, dynamics.zero_forcing(plan))
        scale = 1.0 / np.sqrt(plan.area)
        tangents = [
            ops.VelocityState(np.zeros(plan.n_modes), np.array([scale, 0.0])),
            ops.VelocityState(np.zeros(plan.n_modes), np.array([0.0, scale])),
        ]
        got = lyapunov.trace_qn(plan, state, tangents, params)
        assert abs(got - (-0.4 * 2.0)) < 1e-10

    def test_trace_inequality_on_random_ensembles(self):
        # trace <= -(nu/2) sum lam_i + (k1/(8 nu)) (1 + 1/(lam1 alpha^2)) ||u||^2
        rng = np.random.default_rng(33)
        for plan in (sphere_plan(), torus_plan(trunc=5)):
            params = dynamics.ModelParams(0.6, 1.1, 0.3, dynamics.zero_forcing(plan))
            for n in (2, 5):
                state = ops.VelocityState(
                    rng.standard_normal(plan.n_modes) / (1.0 + plan.lam),
                    0.5 * rng.standard_normal(plan.n_harmonic),
                )
                tangents = [
                    ops.VelocityState(
                        rng.standard_normal(plan.n_modes),
                        rng.standard_normal(plan.n_harmonic),
                    )
                    for _ in range(n)
                ]
                tangents, _ = orthonormalize(plan, tangents, params.alpha)
                got = lyapunov.trace_qn(plan, state, tangents, params)
                ladder = lyapunov.eigenvalue_ladder(plan, n).sum()
                shell = 1.0 + 1.0 / (plan.lambda_1 * params.alpha**2)
                enstrophy = ops.norm_v(plan, state) ** 2
                bound = -0.5 * params.nu * ladder
                bound += bounds.K1_SLT / (8.0 * params.nu) * shell * enstrophy
                assert got <= bound + 1e-9 * (1.0 + abs(bound))


class TestKaplanYorke:
    def test_all_negative_gives_zero(self):
        assert lyapunov.kaplan_yorke(np.array([-1.0, -2.0, -3.0])) == (0.0, False)

    def test_fractional_interpolation(self):
        assert lyapunov.kaplan_yorke(np.array([1.0, -2.0])) == (1.5, False)
        assert lyapunov.kaplan_yorke(np.array([2.0, 1.0, -4.0])) == (2.75, False)

    def test_saturated_spectrum_flagged(self):
        assert lyapunov.kaplan_yorke(np.array([2.0, 1.0])) == (2.0, True)

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            lyapunov.kaplan_yorke(np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            lyapunov.kaplan_yorke(np.array([]))


class TestLyapunovConfig:
    def test_field_validation(self):
        with pytest.raises(ConfigurationError):
            lyapunov.LyapunovConfig(0, 0.0, 1.0, 0.5)
        with pytest.raises(ConfigurationError):
            lyapunov.LyapunovConfig(2, 0.0, 0.0, 0.5)
        with pytest.raises(ConfigurationError):
            lyapunov.LyapunovConfig(2, 0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            lyapunov.LyapunovConfig(2, -1.0, 1.0, 0.5)

    def test_ensemble_capacity_and_cadence(self):
        plan = torus_plan(trunc=2)
        params = dynamics.ModelParams(1.0, 1.0, 0.5, dynamics.zero_forcing(plan))
        scheme = integrate.SchemeConfig(dt=0.1, t_end=1.0)
        big = lyapunov.LyapunovConfig(plan.n_modes + 3, 0.0, 1.0, 0.5)
        with pytest.raises(ConfigurationError):
            lyapunov.benettin_run(plan, zero_state(plan), params, scheme, big)
        ragged = lyapunov.LyapunovConfig(2, 0.0, 1.0, 0.25)
        with pytest.raises(ConfigurationError):
            lyapunov.benettin_run(plan, zero_state(plan), params, scheme, ragged)


class TestBenettinRun:
    def test_sphere_zero_equilibrium_rates(self):
        # linearization at zero is diagonal: three degree-1 exponents -nu lam1
        plan = sphere_plan()
        params = unforced(plan)
        scheme = integrate.SchemeConfig(dt=0.05, t_end=1.0)
        config = lyapunov.LyapunovConfig(3, 1.0, 5.0, 0.5, seed=1)
        rep = lyapunov.benettin_run(plan, zero_state(plan), params, scheme, config)
        assert np.all(np.abs(rep.exponents - (-2.0)) < 0.02)
        assert abs(rep.q_partial[-1] - (-6.0)) < 0.06
        assert rep.dim_ky == 0.0
        assert np.allclose(rep.q_partial, np.cumsum(rep.exponents))
        assert rep.t_series.shape == rep.q_series.shape == (10,)
        assert np.isfinite(rep.q_series).all()

    def test_torus_harmonic_drag_rates(self):
        # harmonic tangents decay at sigma, the first rotational one at
        # nu lam1 + sigma/(1 + alpha^2 lam1)
        plan = torus_plan()
        params = dynamics.ModelParams(1.0, 1.0, 0.3, dynamics.zero_forcing(plan))
        scheme = integrate.SchemeConfig(dt=0.05, t_end=1.0)
        config = lyapunov.LyapunovConfig(3, 0.5, 4.0, 0.5, seed=2)
        rep = lyapunov.benettin_run(plan, zero_state(plan), params, scheme, config)
        assert np.all(np.abs(rep.exponents[:2] - (-0.3)) < 0.003)
        want3 = -(1.0 + 0.3 / 2.0)
        assert abs(rep.exponents[2] - want3) < 0.01 * abs(want3)

    def test_deterministic_given_seed(self):
        plan = sphere_plan()
        params = unforced(plan, nu=0.8)
        scheme = integrate.SchemeConfig(dt=0.1, t_end=1.0)
        config = lyapunov.LyapunovConfig(2, 0.0, 2.0, 0.5, seed=7)
        a = lyapunov.benettin_run(plan, zero_state(plan), params, scheme, config)
        b = lyapunov.benettin_run(plan, zero_state(plan), params, scheme, config)
        assert np.array_equal(a.exponents, b.exponents)
        assert np.array_equal(a.q_series, b.q_series)

    def forced_sphere(self):
        plan = sphere_plan()
        c = np.zeros(plan.n_modes)
        c[basis.mode_slot(plan, (2, 1))] = 2.0
        c[basis.mode_slot(plan, (3, -2))] = 1.0
        params = dynamics.ModelParams(1.0, 1.0, 0.0, dynamics.Forcing(c, np.zeros(0)))
        rng = np.random.default_rng(17)
        psi = 0.1 * rng.standard_normal(plan.n_modes) / (1.0 + plan.lam)
        return plan, params, ops.VelocityState(psi, np.zeros(0))

    def test_forced_run_verdict_consistent(self):
        plan, params, u0 = self.forced_sphere()
        scheme = integrate.SchemeConfig(dt=0.02, t_end=1.0)
        config = lyapunov.LyapunovConfig(4, 2.0, 8.0, 0.5, seed=5)
        rep = lyapunov.benettin_run(plan, u0, params, scheme, config)
        verdict = lyapunov.compare_bound(plan, rep, params)
        assert rep.nstar == bounds.attractor_bound(plan, params)
        assert verdict["measured_crossing"] >= 1
        assert verdict["consistent"]
        assert np.all(np.diff(rep.exponents) <= 1e-12)

    def test_exponents_stable_under_renorm_halving(self):
        plan, params, u0 = self.forced_sphere()
        scheme = integrate.SchemeConfig(dt=0.025, t_end=1.0)
        coarse = lyapunov.LyapunovConfig(3, 1.0, 5.0, 0.5, seed=5)
        fine = lyapunov.LyapunovConfig(3, 1.0, 5.0, 0.25, seed=5)
        a = lyapunov.benettin_run(plan, u0, params, scheme, coarse)
        b = lyapunov.benettin_run(plan, u0, params, scheme, fine)
        assert np.all(np.abs(a.exponents - b.exponents) <= 0.02 * np.abs(a.exponents))


class TestCompareBound:
    def test_all_negative_crosses_at_one(self):
        plan = sphere_plan()
        params = unforced(plan)
        rep = lyapunov.ExponentReport(
            exponents=np.array([-1.0, -2.0]),
            q_partial=np.array([-1.0, -3.0]),
            t_series=np.zeros(1),
            q_series=np.zeros(1),
            dim_ky=0.0,
            ky_saturated=False,
            nstar=0.0,
        )
        verdict = lyapunov.compare_bound(plan, rep, params)
        assert verdict["measured_crossing"] == 1
        assert verdict["consistent"]

    def test_late_crossing_against_small_bound(self):
        plan = sphere_plan()
        params = unforced(plan)  # zero forcing: N* = 0
        rep = lyapunov.ExponentReport(
            exponents=np.array([1.0, 0.5, -3.0]),
            q_partial=np.array([1.0, 1.5, -1.5]),
            t_series=np.zeros(1),
            q_series=np.zeros(1),
            dim_ky=2.5,
            ky_saturated=False,
            nstar=0.0,
        )
        verdict = lyapunov.compare_bound(plan, rep, params)
        assert verdict["measured_crossing"] == 3
        assert not verdict["consistent"]

    def _verdict(self, monkeypatch, q_partial, nstar):
        # a synthetic report judged against a fixed N*
        monkeypatch.setattr(lyapunov.bounds, "attractor_bound", lambda plan, params: nstar)
        plan = sphere_plan()
        q = np.asarray(q_partial, dtype=float)
        rep = lyapunov.ExponentReport(
            exponents=np.concatenate((q[:1], np.diff(q))), q_partial=q,
            t_series=np.zeros(1), q_series=np.zeros(1), dim_ky=0.0, ky_saturated=False, nstar=nstar,
        )
        return lyapunov.compare_bound(plan, rep, unforced(plan))

    def test_three_verdicts(self, monkeypatch):
        # N* = 5.5: the bound is shell 6
        v = self._verdict(monkeypatch, [0.5, 0.6, 0.4, -0.1], 5.5)
        assert (v["verdict"], v["consistent"], v["measured_crossing"]) == ("consistent", True, 4)
        assert v["advice"] is None
        # no crossing within 4 < 6 directions: the ensemble is too small to tell
        v = self._verdict(monkeypatch, [0.5, 0.6, 0.4, 0.1], 5.5)
        assert (v["verdict"], v["consistent"], v["measured_crossing"]) == ("undecided", False, -1)
        assert "raise n_ensemble" in v["advice"]
        # a crossing past the bound contradicts the theory
        v = self._verdict(monkeypatch, [0.5, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05, -0.2], 5.5)
        assert (v["verdict"], v["consistent"], v["measured_crossing"]) == ("inconsistent", False, 8)
        assert v["advice"] is None

    def test_no_crossing_in_an_ensemble_past_the_bound_is_inconsistent(self, monkeypatch):
        # 7 directions reach shell 6, so the crossing lies past the bound
        v = self._verdict(monkeypatch, [0.5, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05], 5.5)
        assert (v["verdict"], v["consistent"], v["measured_crossing"]) == ("inconsistent", False, -1)
        assert v["advice"] is None
