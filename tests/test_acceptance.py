"""End-to-end acceptance gate: exact formulas, inequalities, and budgets.

Each class pins one contract of the package: spectral exactness, operator
identities, integrator fidelity, energy envelopes, tangent consistency,
exponent measurements against closed forms, trace and dimension bounds, the
prepared contraction, and bit-level determinism of the command line driver.
Tolerances are fixed here and are not to be loosened casually; wall-clock
budgets are asserted with time.monotonic on the slow paths.
"""

import json
import math
import time

import numpy as np
from scipy.optimize import brentq

from bardina2d import (
    basis,
    bounds,
    cli,
    dynamics,
    integrate,
    lyapunov,
    operators as ops,
    verification,
)

TWO_PI = 2.0 * np.pi


def sphere_plan(trunc):
    return basis.build_plan(basis.sphere(), trunc)


def torus_plan(trunc, length=TWO_PI):
    return basis.build_plan(basis.torus(length), trunc)


def forced_params(plan, entries, nu=1.0, alpha=1.0, sigma=0.0, f2=()):
    c = np.zeros(plan.n_modes)
    for index, amp in entries:
        c[basis.mode_slot(plan, index)] += amp
    fh = np.zeros(plan.n_harmonic)
    if f2:
        fh[:] = f2
    return dynamics.ModelParams(nu, alpha, sigma, dynamics.Forcing(c, fh))


def random_state(plan, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    psi = scale * rng.standard_normal(plan.n_modes) / (1.0 + plan.lam)
    return ops.VelocityState(psi, 0.1 * scale * rng.standard_normal(plan.n_harmonic))


class TestSpectralLayer:
    def test_sphere_eigenvalues_roundtrip_parseval(self):
        start = time.monotonic()
        plan_s = sphere_plan(21)
        for n in range(1, 22):
            for m in range(-n, n + 1):
                assert basis.eigenvalue(plan_s, (n, m)) == float(n * (n + 1))
        plan_t = torus_plan(21)
        for plan, seed in ((plan_s, 1), (plan_t, 2)):
            rng = np.random.default_rng(seed)
            coeffs = rng.standard_normal(plan.n_modes) / np.sqrt(1.0 + plan.lam)
            f = basis.synthesize(plan, coeffs)
            back = basis.analyze(plan, f)
            rel = np.linalg.norm(back - coeffs) / np.linalg.norm(coeffs)
            assert rel <= 1e-12
            ss = float(np.dot(coeffs, coeffs))
            assert abs(basis.integrate(plan, f * f) - ss) <= 1e-12 * ss
        assert time.monotonic() - start < 5.0


class TestOperatorIdentities:
    def test_residuals_at_full_truncation(self):
        plan = sphere_plan(21)
        params = forced_params(plan, [])
        table = verification.identity_suite(plan, params, seed=0, n_states=20)
        for name in ("b_uvv", "b_swap", "b_energy", "b_enstrophy"):
            assert float(np.max(table[name])) <= 1e-9, name

        plan = torus_plan(21)
        params = forced_params(plan, [], sigma=0.5)
        table = verification.identity_suite(plan, params, seed=0, n_states=20)
        for name in ("b_uvv", "b_swap", "b_energy", "harmonic_pair"):
            assert float(np.max(table[name])) <= 1e-9, name


class TestEigenmodeDecay:
    def test_exact_exponential(self):
        start = time.monotonic()
        plan = sphere_plan(6)
        params = forced_params(plan, [], nu=1.0)
        state = ops.state_from_mode(plan, (3, 1), amplitude=0.7)
        lam = basis.eigenvalue(plan, (3, 1))
        u0 = ops.norm_l2(plan, state)
        scheme = integrate.SchemeConfig(dt=1e-3, t_end=1.0, stride=100)
        for t, st in integrate.samples(plan, state, params, scheme):
            expected = u0 * math.exp(-params.nu * lam * t)
            assert abs(ops.norm_l2(plan, st) - expected) <= 1e-8 * expected
        assert time.monotonic() - start < 10.0


class TestEnergyLaw:
    def test_unforced_balance_residual(self):
        # [u, du/dt] = -nu E2 - sigma |u|^2 must hold to rounding
        cases = [(sphere_plan(8), 0.0, 10), (torus_plan(6), 0.4, 10)]
        for plan, sigma, count in cases:
            params = forced_params(plan, [], nu=0.7, alpha=1.3, sigma=sigma)
            for seed in range(count):
                state = random_state(plan, seed)
                rhs = dynamics.rhs_u(plan, state, params)
                lhs = ops.inner_weighted(plan, state, rhs, params.alpha)
                drain = params.nu * ops.energy_e2(plan, state, params.alpha)
                drain += sigma * ops.inner_l2(plan, state, state)
                assert abs(lhs + drain) <= 1e-12 * drain


class TestEnergyEnvelopes:
    def test_ten_seeded_forced_runs(self):
        scheme = integrate.SchemeConfig(dt=0.02, t_end=20.0, stride=50)
        configs = [(sphere_plan(6), 0.0, (2, 1), (3, -2)), (torus_plan(4), 0.3, (1, 0), (2, 1))]
        for plan, sigma, mode_a, mode_b in configs:
            for seed in range(5):
                rng = np.random.default_rng(100 + seed)
                amps = rng.uniform(0.5, 1.5, size=2)
                params = forced_params(
                    plan,
                    [(mode_a, amps[0]), (mode_b, amps[1])],
                    nu=0.5,
                    sigma=sigma,
                )
                state = random_state(plan, seed)
                anchor = verification.envelopes(
                    plan,
                    params,
                    ops.energy_e1(plan, state, params.alpha),
                    ops.energy_e2(plan, state, params.alpha),
                )
                bad = []

                def observe(t, st, tend):
                    r = verification.energy_record(plan, st, params, t, anchor, tend)
                    over1, over2 = verification.envelope_flags(
                        r.e1, r.envelope1, r.e2, r.envelope2, scheme.dt
                    )
                    if over1 or over2:
                        bad.append(r)

                for _ in integrate.samples(plan, state, params, scheme, (observe,)):
                    pass
                assert bad == [], (plan.geometry.kind, seed, bad[:2])


class TestTangentConsistency:
    def test_central_difference_matches_linearization(self):
        eps = 1e-6
        cases = [(sphere_plan(8), 0.0), (torus_plan(6), 0.4)]
        for plan, sigma in cases:
            params = forced_params(plan, [((2, 1), 1.0)], nu=0.8, sigma=sigma)
            for seed in range(10):
                u = random_state(plan, 2 * seed)
                w = random_state(plan, 2 * seed + 1)
                plus = ops.VelocityState(u.psi + eps * w.psi, u.harmonic + eps * w.harmonic)
                minus = ops.VelocityState(u.psi - eps * w.psi, u.harmonic - eps * w.harmonic)
                fp = dynamics.rhs_u(plan, plus, params)
                fm = dynamics.rhs_u(plan, minus, params)
                lin = dynamics.rhs_tangent(plan, w, u, params)
                num = np.linalg.norm((fp.psi - fm.psi) / (2 * eps) - lin.psi)
                num += np.linalg.norm((fp.harmonic - fm.harmonic) / (2 * eps) - lin.harmonic)
                den = np.linalg.norm(lin.psi) + np.linalg.norm(lin.harmonic)
                assert num <= 1e-6 * den


class TestEquilibriumExponents:
    def test_diagonal_spectra_both_geometries(self):
        start = time.monotonic()

        plan = sphere_plan(10)
        params = forced_params(plan, [], nu=1.0)
        config = lyapunov.LyapunovConfig(
            n_ensemble=8,
            t_transient=0.0,
            t_average=50.0 / (params.nu * plan.lambda_1),
            renorm_interval=0.25,
            seed=0,
        )
        scheme = integrate.SchemeConfig(dt=0.05, t_end=1.0)
        state = ops.VelocityState(np.zeros(plan.n_modes), np.zeros(0))
        report = lyapunov.benettin_run(plan, state, params, scheme, config)
        lam = lyapunov.eigenvalue_ladder(plan, 8)
        expected = -params.nu * lam
        assert np.all(np.abs(report.exponents - expected) <= 0.01 * np.abs(expected))

        plan = torus_plan(3)
        params = forced_params(plan, [], nu=1.0, sigma=0.3)
        config = lyapunov.LyapunovConfig(
            n_ensemble=8,
            t_transient=0.0,
            t_average=50.0 / (params.nu * plan.lambda_1),
            renorm_interval=0.5,
            seed=0,
        )
        state = ops.VelocityState(np.zeros(plan.n_modes), np.zeros(2))
        report = lyapunov.benettin_run(plan, state, params, scheme, config)
        lam = lyapunov.eigenvalue_ladder(plan, 8)
        expected = np.where(
            lam > 0.0,
            -params.nu * lam - params.sigma / (1.0 + params.alpha**2 * lam),
            -params.sigma,
        )
        assert np.all(np.abs(report.exponents - expected) <= 0.01 * np.abs(expected))
        assert time.monotonic() - start < 120.0


class TestTraceInequality:
    def test_majorant_at_every_renormalization(self):
        plan = sphere_plan(8)
        params = forced_params(plan, [((2, 1), 2.0), ((3, -2), 1.0)], nu=1.0)
        config = lyapunov.LyapunovConfig(
            n_ensemble=6, t_transient=0.0, t_average=5.0, renorm_interval=0.25, seed=1
        )
        scheme = integrate.SchemeConfig(dt=0.025, t_end=1.0)
        ladder = lyapunov.eigenvalue_ladder(plan, config.n_ensemble).sum()
        shell = 1.0 + 1.0 / (plan.lambda_1 * params.alpha**2)
        failures = []

        def monitor(t, state, tangents):
            got = lyapunov.trace_qn(plan, state, tangents, params)
            bound = -0.5 * params.nu * ladder
            bound += bounds.K1_SLT / (8.0 * params.nu) * shell * ops.norm_v(plan, state) ** 2
            if got > bound + 1e-9 * (1.0 + abs(bound)):
                failures.append((t, got, bound))

        state = random_state(plan, 7)
        lyapunov.benettin_run(plan, state, params, scheme, config, monitor=monitor)
        assert failures == []


class TestClosedFormBounds:
    def test_sphere_bound_is_majorant_root_on_grid(self):
        # 100 parameter points; closed form vs the numeric zero of q_N
        rng = np.random.default_rng(101)
        for _ in range(100):
            nu, alpha, f = np.exp(rng.uniform(-1.5, 1.5, size=3))
            x = f**2 / (8.0 * nu**2 * alpha**2)

            def q(nn):
                drop = -0.5 * nu * 0.25 * 2.0 * nn**2
                return drop + bounds.K1_SLT / (4.0 * nu) * (1.0 + 1.0 / (2.0 * alpha**2)) * x

            root = brentq(q, 1e-12, 1e12, xtol=1e-300, rtol=8.9e-16)
            want = bounds.nstar_sphere(nu, alpha, f)
            assert abs(root - want) <= 1e-12 * want

    def test_torus_collapse_to_three_grashof(self):
        plan = torus_plan(4)
        for nu, amp in ((1.0, 1.0), (0.5, 2.0), (2.0, 3.0)):
            params = forced_params(plan, [((1, 0), amp)], nu=nu, sigma=0.2)
            norms = bounds.forcing_norms(plan, params.forcing)
            got = bounds.attractor_bound(plan, params)
            want = 3.0 * bounds.grashof(nu, norms.total)
            assert abs(got - want) <= 1e-12 * want

    def test_gap_table(self):
        plan = sphere_plan(8)
        params = forced_params(plan, [((2, 1), 1.0)])
        rep = bounds.inertial_report(plan, params, rho=1.0, n_max=12)
        assert rep.gaps.tolist() == [2.0 * (n + 1) for n in range(1, 13)]


class TestDimensionConsistency:
    def test_forced_sphere_crossing_below_analytic_shell(self, tmp_path):
        start = time.monotonic()
        trunc = 21
        nu, alpha = 1.0, 1.0
        amp = 10.0 * math.sqrt(6.0)  # |f| = amp / sqrt(lam(2)) -> G = 10
        doc = {
            "geometry": "sphere",
            "truncation": trunc,
            "nu": nu,
            "alpha": alpha,
            "forcing": {"modes": [[2, 1, amp]]},
            "scheme": {"dt": 0.01, "t_end": 1.0},
        }
        config = tmp_path / "bounds.json.in"
        config.write_text(json.dumps(doc))
        out = tmp_path / "bounds"
        assert cli.main(["bounds", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert abs(report["grashof"] - 10.0) <= 1e-12
        nstar = report["nstar"]
        shell = max(1, math.ceil(nstar))

        plan = sphere_plan(trunc)
        params = forced_params(plan, [((2, 1), amp)], nu=nu, alpha=alpha)
        config = lyapunov.LyapunovConfig(
            n_ensemble=shell + 1, t_transient=5.0, t_average=15.0, renorm_interval=0.25, seed=3
        )
        scheme = integrate.SchemeConfig(dt=0.01, t_end=1.0)
        state = ops.VelocityState(np.zeros(plan.n_modes), np.zeros(0))
        report = lyapunov.benettin_run(plan, state, params, scheme, config)
        assert np.all(report.q_partial[shell - 1 :] < 0.0)
        verdict = lyapunov.compare_bound(plan, report, params)
        assert verdict["consistent"]
        assert time.monotonic() - start < 600.0


class TestPreparedContraction:
    def setup_run(self, scale, rho):
        plan = sphere_plan(6)
        amp = math.sqrt(6.0)  # |f| = 1
        params = forced_params(plan, [((2, 1), amp)], nu=1.0, alpha=1.0, sigma=0.0)
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(plan.n_modes) / (1.0 + plan.lam)
        v = ops.VelocityState(psi, np.zeros(0))
        v = ops.VelocityState(psi * (scale / ops.norm_l2(plan, v)), np.zeros(0))
        scheme = integrate.SchemeConfig(dt=0.01, t_end=3.0, stride=10)
        samples = integrate.run_prepared(plan, v, params, rho, scheme)
        return plan, [(t, ops.norm_l2(plan, st)) for t, st in samples]

    def test_ball_is_invariant(self):
        rho = 1.0
        plan, norms = self.setup_run(scale=1.5 * rho, rho=rho)
        assert norms[0][1] > rho  # starts between rho and 2 rho
        for t, nv in norms:
            assert nv <= 2.0 * rho * (1.0 + 1e-8), t

    def test_outside_norm_never_grows(self):
        rho = 0.25
        plan, norms = self.setup_run(scale=5.0 * rho, rho=rho)
        assert norms[0][1] > 2.0 * rho
        previous = max(norms[0][1], 2.0 * rho)
        for t, nv in norms[1:]:
            current = max(nv, 2.0 * rho)
            assert current <= previous * (1.0 + 1e-8), t
            previous = current


class TestDeterminism:
    def run_twice(self, tmp_path, argv_fn, names):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(argv_fn(a) + ["--threads", "1"]) == 0
        assert cli.main(argv_fn(b) + ["--threads", "6"]) == 0
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_simulate_outputs_bit_identical(self, tmp_path):
        doc = {
            "geometry": "torus",
            "length": TWO_PI,
            "truncation": 4,
            "nu": 0.5,
            "alpha": 1.0,
            "sigma": 0.4,
            "seed": 11,
            "forcing": {"modes": [[1, 2, 1.5]], "harmonic": [0.2, 0.0]},
            "initial": {"kind": "random", "slope": 2.0, "energy": 0.5},
            "scheme": {"dt": 0.01, "t_end": 1.0, "stride": 25},
        }
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        self.run_twice(
            tmp_path,
            lambda out: ["simulate", "--config", str(config), "--out", str(out)],
            ("diagnostics.csv", "final.bdna", "meta.json"),
        )

    def test_lyapunov_outputs_bit_identical(self, tmp_path):
        doc = {
            "geometry": "sphere",
            "truncation": 5,
            "nu": 1.0,
            "alpha": 1.0,
            "seed": 2,
            "forcing": {"modes": [[2, 1, 1.0]]},
            "initial": {"kind": "random"},
            "scheme": {"dt": 0.05, "t_end": 1.0},
            "lyapunov": {"n_ensemble": 3, "t_transient": 0.5, "t_average": 2.0, "renorm_interval": 0.25},
        }
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        self.run_twice(
            tmp_path,
            lambda out: ["lyapunov", "--config", str(config), "--out", str(out)],
            ("exponents.csv", "lyapunov.json"),
        )

    def test_bounds_outputs_bit_identical(self, tmp_path):
        doc = {
            "geometry": "torus",
            "length": TWO_PI,
            "truncation": 4,
            "nu": 1.0,
            "alpha": 0.8,
            "sigma": 0.5,
            "forcing": {"modes": [[1, 1, 2.0]]},
            "scheme": {"dt": 0.01, "t_end": 1.0},
            "sweep": {"key": "alpha", "values": [0.5, 1.0, 2.0]},
        }
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        self.run_twice(
            tmp_path,
            lambda out: ["bounds", "--config", str(config), "--out", str(out)],
            ("bounds.json", "bounds_sweep.csv"),
        )

    def test_verify_and_selftest_stdout_stable(self, tmp_path, capsys):
        doc = {
            "geometry": "sphere",
            "truncation": 6,
            "nu": 0.5,
            "alpha": 1.0,
            "seed": 4,
            "forcing": {"modes": [[2, 1, 1.0]]},
            "scheme": {"dt": 0.01, "t_end": 1.0},
        }
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        outputs = []
        for threads in ("1", "6"):
            assert cli.main(["verify", "--config", str(config), "--threads", threads]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
