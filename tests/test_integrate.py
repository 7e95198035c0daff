"""Tests for the integrating-factor steppers."""

import numpy as np
import pytest

from bardina2d import basis
from bardina2d import dynamics as dyn
from bardina2d import integrate as ti
from bardina2d import lyapunov
from bardina2d import operators as ops
from bardina2d.errors import ConfigurationError, DivergenceError


def forced_torus():
    plan = basis.build_plan(basis.torus(2 * np.pi), 6)
    c = np.zeros(plan.n_modes)
    c[basis.mode_slot(plan, (1, 0))] = 0.4
    c[basis.mode_slot(plan, (0, 1))] = -0.3
    params = dyn.ModelParams(nu=0.05, alpha=0.8, sigma=0.2, forcing=dyn.Forcing(c, np.array([0.1, -0.2])))
    return plan, params


def flat(state):
    return np.concatenate([state.psi, state.harmonic])


def final_state(run):
    """The last state a sample generator yields."""
    for _, state in run:
        pass
    return state


class TestSchemeConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ti.SchemeConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ConfigurationError):
            ti.SchemeConfig(dt=-0.1, t_end=1.0)
        with pytest.raises(ConfigurationError):
            ti.SchemeConfig(dt=0.1, t_end=-1.0)
        with pytest.raises(ConfigurationError):
            ti.SchemeConfig(dt=0.1, t_end=1.0, method="rk45")
        with pytest.raises(ConfigurationError):
            ti.SchemeConfig(dt=0.1, t_end=1.0, stride=0)

    def test_rejects_incommensurate_horizon(self):
        plan, params = forced_torus()
        st = ops.zero_state(plan)
        with pytest.raises(ConfigurationError):
            ti.samples(plan, st, params, ti.SchemeConfig(dt=0.3, t_end=1.0))


class TestExactDecay:
    def test_single_mode_decays_exactly(self):
        # B vanishes on one mode, so both schemes reduce to the exact factor
        plan = basis.build_plan(basis.sphere(), 8)
        params = dyn.ModelParams(nu=0.7, alpha=1.3, sigma=0.0, forcing=dyn.zero_forcing(plan))
        st = ops.state_from_mode(plan, (3, 1), 2.0)
        slot = basis.mode_slot(plan, (3, 1))
        exact = 2.0 * np.exp(-0.7 * 12.0 * 1.0)
        for method in (ti.IF_EULER, ti.IF_RK4):
            sch = ti.SchemeConfig(dt=0.01, t_end=1.0, method=method, stride=10**9)
            final = final_state(ti.samples(plan, st, params, sch))
            assert final.psi[slot] == pytest.approx(exact, rel=1e-12)
            others = np.delete(final.psi, slot)
            assert np.max(np.abs(others)) < 1e-13


class TestConvergenceOrder:
    def slopes(self, method, dts):
        plan, params = forced_torus()
        st0 = ops.random_state(plan, seed=11, e1=0.5, alpha=0.8)
        finals = []
        for dt in dts:
            sch = ti.SchemeConfig(dt=dt, t_end=0.5, method=method, stride=10**9)
            finals.append(flat(final_state(ti.samples(plan, st0, params, sch))))
        # consecutive-halving differences scale like dt^order
        errs = [np.linalg.norm(a - b) for a, b in zip(finals, finals[1:])]
        return np.polyfit(np.log2(dts[: len(errs)]), np.log2(errs), 1)[0]

    def test_rk4_is_fourth_order(self):
        dts = [0.5 / 8, 0.5 / 16, 0.5 / 32, 0.5 / 64]
        assert abs(self.slopes(ti.IF_RK4, dts) - 4.0) < 0.2

    def test_euler_is_first_order(self):
        dts = [0.5 / 64, 0.5 / 128, 0.5 / 256, 0.5 / 512]
        assert abs(self.slopes(ti.IF_EULER, dts) - 1.0) < 0.2


class TestBookkeeping:
    def test_sample_times_and_stride(self):
        plan, params = forced_torus()
        st = ops.random_state(plan, seed=2)
        sch = ti.SchemeConfig(dt=0.1, t_end=1.0, stride=3)
        times = [t for t, _ in ti.samples(plan, st, params, sch)]
        # k = 0, 3, 6, 9 plus the final step
        assert times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])

    def test_observers_called_at_samples(self):
        plan, params = forced_torus()
        st = ops.random_state(plan, seed=3)
        seen = []
        sch = ti.SchemeConfig(dt=0.1, t_end=0.4, stride=2)
        for _ in ti.samples(plan, st, params, sch, observers=(lambda t, s, tend: seen.append(t),)):
            pass
        assert seen == pytest.approx([0.0, 0.2, 0.4])

    def test_resume_is_bitwise(self):
        plan, params = forced_torus()
        st0 = ops.random_state(plan, seed=11, e1=0.5, alpha=0.8)
        sch = ti.SchemeConfig(dt=0.5 / 64, t_end=0.5, stride=16)
        full = list(ti.samples(plan, st0, params, sch))
        t_mid, st_mid = full[2]
        tail = final_state(ti.samples(plan, st_mid, params, sch, t_start=t_mid))
        assert np.array_equal(tail.psi, full[-1][1].psi)
        assert np.array_equal(tail.harmonic, full[-1][1].harmonic)

    @pytest.mark.parametrize("stride", [1, 7, 16])
    @pytest.mark.parametrize("kind", ["torus", "sphere"])
    def test_resume_from_every_sample_is_bitwise(self, kind, stride):
        # the run continues from each sampled state's core row, as a run
        # resumed from that state starts
        plan, params = forced_torus() if kind == "torus" else forced_sphere()
        st0 = ops.random_state(plan, seed=11, e1=0.5, alpha=0.8)
        sch = ti.SchemeConfig(dt=0.5 / 64, t_end=0.5, stride=stride)
        full = list(ti.samples(plan, st0, params, sch))
        for i, (t_mid, st_mid) in enumerate(full[:-1]):
            tail = list(ti.samples(plan, st_mid, params, sch, t_start=t_mid))
            assert len(tail) == len(full) - i
            for (t_a, a), (t_b, b) in zip(tail, full[i:]):
                assert t_a == pytest.approx(t_b)
                assert a.psi.tobytes() == b.psi.tobytes()
                assert a.harmonic.tobytes() == b.harmonic.tobytes()

    def test_samples_are_snapshots_not_views(self):
        plan, params = forced_torus()
        st = ops.random_state(plan, seed=4)
        held = list(ti.samples(plan, st, params, ti.SchemeConfig(dt=0.1, t_end=0.3, stride=1)))
        a = held[0][1].psi.copy()
        held[1][1].psi[:] = 0.0
        assert np.array_equal(held[0][1].psi, a)


class TestSamplesGenerator:
    """`samples` yields a run's samples one at a time."""

    def test_observers_run_before_each_yield(self):
        plan, params = forced_torus()
        calls = []
        gen = ti.samples(
            plan,
            ops.random_state(plan, seed=13),
            params,
            ti.SchemeConfig(dt=0.1, t_end=0.3),
            (lambda t, s, tend: calls.append(t),),
        )
        assert calls == []  # nothing runs before the first next
        for k, (t, _) in enumerate(gen, start=1):
            assert len(calls) == k and calls[-1] == t

    def test_step_count_checked_at_call(self):
        plan, params = forced_torus()
        st = ops.random_state(plan, seed=13)
        with pytest.raises(ConfigurationError):
            ti.samples(plan, st, params, ti.SchemeConfig(dt=0.1, t_end=0.25))
        with pytest.raises(ConfigurationError):
            ti.samples(plan, st, params, ti.SchemeConfig(dt=0.1, t_end=0.5), t_start=0.05)

    def test_divergence_follows_the_last_yield(self):
        plan, big, params, sch = blowup(basis.torus(2 * np.pi))
        got = []
        with pytest.raises(DivergenceError) as err:
            for t, st in ti.samples(plan, big, params, sch):
                got.append((t, st))
        t_last, st_last = got[-1]
        assert t_last == err.value.t - sch.dt
        assert np.all(np.isfinite(st_last.psi))


def forced_sphere():
    plan = basis.build_plan(basis.sphere(), 8)
    c = np.zeros(plan.n_modes)
    c[basis.mode_slot(plan, (2, 1))] = 0.5
    params = dyn.ModelParams(nu=0.05, alpha=0.8, sigma=0.1, forcing=dyn.Forcing(c, np.zeros(0)))
    return plan, params


class TestSharedTendency:
    """A sampled state's tendency feeds its observers and the next step's first stage."""

    def count_calls(self, monkeypatch, method, stride, observers):
        plan, params = forced_torus()
        calls = []
        inner = dyn._remainder_u

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(dyn, "_remainder_u", counted)
        sch = ti.SchemeConfig(dt=0.1, t_end=1.0, method=method, stride=stride)
        for _ in ti.samples(plan, ops.random_state(plan, seed=8), params, sch, observers):
            pass
        return len(calls)

    def test_one_extra_call_for_the_final_sample(self, monkeypatch):
        obs = (lambda t, s, tend: None,)
        n = 10
        assert self.count_calls(monkeypatch, ti.IF_RK4, 1, obs) == 4 * n + 1
        assert self.count_calls(monkeypatch, ti.IF_RK4, 3, obs) == 4 * n + 1
        assert self.count_calls(monkeypatch, ti.IF_EULER, 1, obs) == n + 1

    def test_no_extra_call_without_observers(self, monkeypatch):
        assert self.count_calls(monkeypatch, ti.IF_RK4, 1, ()) == 4 * 10

    def test_observed_tendency_is_rhs_u(self):
        for plan, params in (forced_sphere(), forced_torus()):
            seen = []
            sch = ti.SchemeConfig(dt=0.05, t_end=0.25, stride=2)
            for _ in ti.samples(plan, ops.random_state(plan, seed=9), params, sch,
                                (lambda t, s, tend: seen.append((s, tend)),)):
                pass
            assert len(seen) == 4
            for st, tend in seen:
                want = dyn.rhs_u(plan, st, params)
                assert np.array_equal(tend.psi, want.psi)
                assert np.array_equal(tend.harmonic, want.harmonic)

    def test_prepared_observed_tendency_is_prepared_rhs(self):
        plan, params = forced_sphere()
        params = dyn.ModelParams(params.nu, params.alpha, 0.0, params.forcing)
        v0 = ops.random_state(plan, seed=10, e1=4.0)
        rho = ops.norm_l2(plan, v0)
        seen = []
        sch = ti.SchemeConfig(dt=0.05, t_end=0.2, stride=1)
        for _ in ti.run_prepared(plan, v0, params, rho, sch,
                                 (lambda t, s, tend: seen.append((s, tend)),)):
            pass
        assert len(seen) == 5
        for st, tend in seen:
            want = dyn.prepared_rhs(plan, st, params, rho)
            assert np.array_equal(tend.psi, want.psi)


def _written_out_step(rows, dt, e_full, e_half, rem, method, first):
    """One IF-Euler or IF-RK4 step with each stage written out, first stage
    `first`, as the reference for step_pair."""
    g1 = first
    if method == ti.IF_EULER:
        return e_full * (rows + dt * g1)
    u1 = e_half * (rows + 0.5 * dt * g1)
    g2 = rem(u1)
    u2 = e_half * rows + 0.5 * dt * g2
    g3 = rem(u2)
    u3 = e_full * rows + dt * (e_half * g3)
    g4 = rem(u3)
    return e_full * rows + (dt / 6.0) * (e_full * g1 + 2.0 * (e_half * (g2 + g3)) + g4)


class TestStepPair:
    @pytest.mark.parametrize("method", [ti.IF_RK4, ti.IF_EULER])
    @pytest.mark.parametrize("kind,trunc,rows", [("torus", 16, 1), ("sphere", 21, 9)])
    def test_matches_written_out_formulas_bitwise(self, kind, trunc, rows, method):
        geometry = basis.torus(2 * np.pi) if kind == "torus" else basis.sphere()
        plan = basis.build_plan(geometry, trunc)
        rng = np.random.default_rng(trunc + rows)
        c = rng.standard_normal(plan.n_modes) / plan.lam
        forcing = dyn.Forcing(c, rng.standard_normal(plan.n_harmonic))
        params = dyn.ModelParams(nu=0.05, alpha=0.8, sigma=0.2, forcing=forcing)
        inner = dyn.remainder(plan, params)
        stages = []

        def rem(x):
            # the stage states too: a change inside one rarely shows in the
            # step, whose last stage enters times dt / 6
            stages.append(x.tobytes())
            return inner(x)

        psis = rng.standard_normal((rows, plan.n_modes)) / (1.0 + plan.lam)
        hs = rng.standard_normal((rows, plan.n_harmonic))
        x = plan.core.to_rows(psis, hs)
        dt = 0.01
        decay = ti.decay_factors(plan, params.nu, dt)
        # exactly 1 on the harmonic columns, which so step by the plain rule
        assert np.all(decay[0][plan.core.ncols - plan.n_harmonic :] == 1.0)
        want = _written_out_step(x, dt, *decay, rem, method, inner(x))
        want_stages = stages[:]
        for first in (None, inner(x)):
            stages.clear()
            got = ti.step_pair(x, dt, *decay, rem, method, first)
            assert stages[1 if first is None else 0 :] == want_stages
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestRunLoop:
    """The stepping loop's contract: live rows, changed in place between samples."""

    def test_in_place_changes_match_explicit_loop(self):
        # a base row with two tangents, renormalized at every sample as
        # Benettin's method does; first() is taken after the change at some
        # samples and not at all at the others
        plan, params = forced_torus()
        run = dyn.run_constants(plan, params)

        def rem(x):
            return dyn._remainder_u(plan, x, params, run)

        rng = np.random.default_rng(21)
        psis0 = rng.standard_normal((3, plan.n_modes)) / (1.0 + plan.lam)
        hs0 = rng.standard_normal((3, plan.n_harmonic))
        rows0 = plan.core.to_rows(psis0, hs0)

        def renormalize(rows):
            rows[1:] /= np.sqrt(np.sum(rows[1:] ** 2, axis=1))[:, None]

        sch = ti.SchemeConfig(dt=0.05, t_end=1.0, stride=3)
        decay = ti.decay_factors(plan, params.nu, sch.dt)
        got = []
        loop = ti._run_loop(rows0.copy(), rem, decay, sch, (0, 20))
        for i, (t, rows, first) in enumerate(loop):
            renormalize(rows)
            if i % 2:
                first()
            got.append((t, rows.tobytes()))

        want = []
        rows = rows0.copy()
        for k in range(21):
            if k:
                rows = ti.step_pair(rows, sch.dt, *decay, rem, sch.method)
            if k % 3 == 0 or k == 20:
                renormalize(rows)
                want.append((k * sch.dt, rows.tobytes()))
        assert len(got) == 8  # k = 0, 3, ..., 18 and the final step
        assert got == want


def blowup(geometry):
    """A state that IF-Euler with dt = 10 drives to overflow within 1000."""
    plan = basis.build_plan(geometry, 8)
    big = ops.random_state(plan, seed=3, e1=1e8, alpha=1e-4)
    params = dyn.ModelParams(nu=1e-6, alpha=1e-4, sigma=1e-6, forcing=dyn.zero_forcing(plan))
    return plan, big, params, ti.SchemeConfig(dt=10.0, t_end=1000.0, method=ti.IF_EULER)


class TestDivergenceGuard:
    def test_blowup_raises_with_time(self):
        plan, big, params, sch = blowup(basis.torus(2 * np.pi))
        with pytest.raises(DivergenceError) as err:
            final_state(ti.samples(plan, big, params, sch))
        assert err.value.t > 0.0
        assert err.value.t <= 1000.0

    @pytest.mark.parametrize("geometry", [basis.torus(2 * np.pi), basis.sphere()])
    def test_ensemble_diverges_with_its_base_state(self, geometry):
        plan, big, params, sch = blowup(geometry)
        with pytest.raises(DivergenceError) as run_err:
            final_state(ti.samples(plan, big, params, sch))
        config = lyapunov.LyapunovConfig(2, 0.0, sch.t_end, sch.dt)
        with pytest.raises(DivergenceError) as ens_err:
            lyapunov.benettin_run(plan, big, params, sch, config)
        assert ens_err.value.t == run_err.value.t < sch.t_end


class TestPreparedRun:
    def test_ball_shrinks_from_outside(self):
        # outside the 2 rho ball the tendency is pure Stokes decay
        plan = basis.build_plan(basis.sphere(), 8)
        c = np.zeros(plan.n_modes)
        c[basis.mode_slot(plan, (1, 0))] = 1.0
        params = dyn.ModelParams(nu=1.0, alpha=1.0, sigma=0.0, forcing=dyn.Forcing(c, np.zeros(0)))
        v0 = ops.random_state(plan, seed=5, e1=100.0)
        rho = 0.05 * ops.norm_l2(plan, v0)
        sch = ti.SchemeConfig(dt=0.005, t_end=0.2, stride=4)
        norms = [ops.norm_l2(plan, s) for _, s in ti.run_prepared(plan, v0, params, rho, sch)]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_arguments_checked_at_call(self):
        # run_prepared returns a generator: each error must come from the
        # call itself, before anything iterates it
        from bardina2d.errors import ShapeError, UnsupportedGeometryError

        sch = ti.SchemeConfig(dt=0.1, t_end=0.2)
        plan, params = forced_torus()
        with pytest.raises(UnsupportedGeometryError):
            ti.run_prepared(plan, ops.random_state(plan, seed=6), params, 1.0, sch)
        plan, params = forced_sphere()
        params = dyn.ModelParams(params.nu, params.alpha, 0.0, params.forcing)
        v = ops.random_state(plan, seed=6)
        with pytest.raises(ConfigurationError):
            ti.run_prepared(plan, v, params, 1.0, ti.SchemeConfig(dt=0.1, t_end=0.25))
        with pytest.raises(ShapeError):
            ti.run_prepared(plan, ops.VelocityState(v.psi[:-1], v.harmonic), params, 1.0, sch)

    def test_geometry_guard(self):
        plan, params = forced_torus()
        v = ops.random_state(plan, seed=6)
        from bardina2d.errors import UnsupportedGeometryError

        with pytest.raises(UnsupportedGeometryError):
            ti.run_prepared(plan, v, params, 1.0, ti.SchemeConfig(dt=0.1, t_end=0.2))

