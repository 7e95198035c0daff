"""Tests for states, projections, norms, and the trilinear form."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bardina2d import basis
from bardina2d import operators as ops
from bardina2d.errors import ConfigurationError


def both_plans():
    return [
        basis.build_plan(basis.sphere(), 9),
        basis.build_plan(basis.torus(2 * np.pi), 9),
    ]


def velocity_grid(plan, state):
    """u = n x grad(psi) + u2 on the plan grid."""
    u = ops.rot90(basis.flow_synthesis(plan, state.psi)[1])
    return u + state.harmonic[:, None, None] if plan.n_harmonic else u


def leray_project(plan, vec):
    """Streamfunction coefficients of the divergence-free part of grid fields."""
    return basis.flow_analysis(plan, vec)[0]


def seeded_state(plan, seed, with_harmonic=True):
    st = ops.random_state(plan, seed=seed)
    if with_harmonic and plan.n_harmonic:
        st.harmonic[:] = np.random.default_rng(seed + 1000).standard_normal(2)
    return st


class TestStates:
    def test_zero_state_shapes(self):
        for plan in both_plans():
            st = ops.zero_state(plan)
            assert st.psi.shape == (plan.n_modes,)
            assert st.harmonic.shape == (plan.n_harmonic,)
            assert not st.psi.any()

    def test_state_from_mode_placement(self):
        plan = basis.build_plan(basis.sphere(), 5)
        st = ops.state_from_mode(plan, (2, -1), 1.5)
        assert st.psi[basis.mode_slot(plan, (2, -1))] == 1.5
        assert np.count_nonzero(st.psi) == 1

    def test_random_state_normalization_and_determinism(self):
        for plan in both_plans():
            a = ops.random_state(plan, seed=7, e1=2.5, alpha=0.9)
            b = ops.random_state(plan, seed=7, e1=2.5, alpha=0.9)
            c = ops.random_state(plan, seed=8, e1=2.5, alpha=0.9)
            assert ops.energy_e1(plan, a, 0.9) == pytest.approx(2.5, rel=1e-13)
            assert np.array_equal(a.psi, b.psi)
            assert not np.array_equal(a.psi, c.psi)

    def test_random_state_populates_edge_mode(self):
        plan = basis.build_plan(basis.torus(2 * np.pi), 9)
        st = ops.random_state(plan, seed=3)
        for index in ((9, 0), (0, -9), (9, 9), (-9, 9)):
            assert st.psi[basis.mode_slot(plan, index)] != 0.0
        assert np.count_nonzero(st.psi) == plan.n_modes

    def test_copy_is_deep(self):
        plan = basis.build_plan(basis.torus(2 * np.pi), 4)
        a = seeded_state(plan, 1)
        b = a.copy()
        b.psi[0] += 1.0
        b.harmonic[0] += 1.0
        assert a.psi[0] != b.psi[0]
        assert a.harmonic[0] != b.harmonic[0]


class TestNormalStream:
    # random.Random(2024).random(): Python keeps this sequence across releases
    UNIFORMS = [0.47009071843107064, 0.7282642914232076, 0.3037513583913575, 0.8872982690000151]
    NORMALS = [-0.15343399086764806, -1.1164931340236508, 0.6463579572151618, -0.5534602683586138]

    def test_golden_prefix(self):
        assert ops.NormalStream(2024).uniforms(4).tolist() == self.UNIFORMS
        # Box-Muller of the two pairs; log, cos and sin may differ in the
        # last bit between numpy builds
        got = ops.NormalStream(2024).standard_normal(4)
        assert np.allclose(got, self.NORMALS, rtol=1e-14, atol=0.0)
        (u, v), (w, x) = np.reshape(self.UNIFORMS, (2, 2))
        for k, (a, b) in enumerate(((u, v), (w, x))):
            r = np.sqrt(-2.0 * np.log(1.0 - a))
            assert got[2 * k] == pytest.approx(r * np.cos(2 * np.pi * b), rel=1e-14)
            assert got[2 * k + 1] == pytest.approx(r * np.sin(2 * np.pi * b), rel=1e-14)

    def test_same_seed_same_draws_in_a_fresh_interpreter(self):
        script = (
            "import json, sys\n"
            "from bardina2d import operators as ops\n"
            "g = ops.NormalStream(int(sys.argv[1]))\n"
            "print(json.dumps([g.standard_normal(7).tolist(), g.standard_normal((2, 3)).tolist()]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(ops.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "31"], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        g = ops.NormalStream(31)
        here = [g.standard_normal(7).tolist(), g.standard_normal((2, 3)).tolist()]
        assert json.loads(proc.stdout) == here

    def test_moments_within_five_standard_errors(self):
        n = 100_000
        z = ops.NormalStream(9).standard_normal(n)
        # standard errors of the mean (1/sqrt n) and variance (sqrt(2/n))
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)

    def test_shapes_and_stream_order(self):
        a = ops.NormalStream(4)
        b = ops.NormalStream(4)
        block = a.standard_normal((3, 4))
        assert block.shape == (3, 4)
        assert np.array_equal(block.ravel(), b.standard_normal(12))
        assert a.standard_normal((5, 0)).shape == (5, 0)
        assert np.array_equal(a.standard_normal(3), b.standard_normal(3))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        # random.Random would seed -1 as 1
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            ops.NormalStream(seed)


class TestKinematics:
    def test_rot90_pointwise(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((2, 5, 6))
        w = ops.rot90(v)
        # orthogonal, isometric, and rot90^2 = -id
        assert np.all(np.abs(v[0] * w[0] + v[1] * w[1]) < 1e-15)
        assert np.allclose(np.hypot(w[0], w[1]), np.hypot(v[0], v[1]), rtol=0, atol=0)
        assert np.array_equal(ops.rot90(w), -v)

    def test_velocity_parseval(self):
        # grid integral of |u|^2 equals the coefficient form of <u, u>
        for plan in both_plans():
            st = seeded_state(plan, 5)
            u = velocity_grid(plan, st)
            lhs = basis.integrate(plan, u[0] ** 2 + u[1] ** 2)
            assert lhs == pytest.approx(ops.inner_l2(plan, st, st), rel=1e-12)

    def test_vorticity_parseval(self):
        for plan in both_plans():
            st = seeded_state(plan, 6)
            zeta = basis.synthesize(plan, -plan.lam * st.psi)
            lhs = basis.integrate(plan, zeta**2)
            assert lhs == pytest.approx(ops.inner_v(plan, st, st), rel=1e-12)

    def test_zonal_mode_velocity(self):
        # psi = Y_{1,0}: u = (0, dY/dtheta) with dY/dtheta = -sqrt(3/4pi) sin(theta)
        plan = basis.build_plan(basis.sphere(), 4)
        st = ops.state_from_mode(plan, (1, 0))
        u = velocity_grid(plan, st)
        theta = np.arccos(plan.core.mu)[:, None]
        assert np.allclose(u[0], 0.0, atol=1e-15)
        assert np.allclose(u[1], -np.sqrt(3 / (4 * np.pi)) * np.sin(theta), atol=1e-13)

    def test_stokes_and_filter_on_eigenmode(self):
        plan = basis.build_plan(basis.torus(2 * np.pi), 6)
        st = ops.state_from_mode(plan, (2, 1), 3.0)
        lam = basis.eigenvalue(plan, (2, 1))
        assert ops.stokes_apply(plan, st).psi[basis.mode_slot(plan, (2, 1))] == 3.0 * lam
        v = ops.helmholtz_filter(plan, st, alpha=0.5)
        assert v.psi[basis.mode_slot(plan, (2, 1))] == pytest.approx(3.0 * (1 + 0.25 * lam))

    def test_filter_roundtrip_and_harmonic_passthrough(self):
        plan = basis.build_plan(basis.torus(3.0), 7)
        st = seeded_state(plan, 9)
        v = ops.helmholtz_filter(plan, st, 1.3)
        back = v.psi / (1.0 + 1.3**2 * plan.lam)
        assert np.allclose(back, st.psi, rtol=1e-15, atol=0)
        assert np.array_equal(v.harmonic, st.harmonic)


class TestInnerProducts:
    def test_single_mode_weighted_norm(self):
        # |u| = 1 on the lowest sphere shell and alpha = 1 gives [u, u] = 3
        plan = basis.build_plan(basis.sphere(), 4)
        st = ops.state_from_mode(plan, (1, 0), 1.0 / np.sqrt(2.0))
        assert ops.norm_l2(plan, st) == pytest.approx(1.0, rel=1e-15)
        assert ops.inner_weighted(plan, st, st, alpha=1.0) == pytest.approx(3.0, rel=1e-14)

    def test_norm_ladder_single_mode(self):
        plan = basis.build_plan(basis.sphere(), 6)
        c, lam = 0.7, 12.0
        st = ops.state_from_mode(plan, (3, 2), c)
        assert ops.norm_l2(plan, st) == pytest.approx(c * lam**0.5)
        assert ops.norm_v(plan, st) == pytest.approx(c * lam)
        assert ops.norm_a(plan, st) == pytest.approx(c * lam**1.5)

    def test_harmonic_part_in_l2_only(self):
        plan = basis.build_plan(basis.torus(3.0), 5)
        st = ops.zero_state(plan)
        st.harmonic[:] = (0.4, -0.8)
        assert ops.inner_l2(plan, st, st) == pytest.approx(9.0 * 0.8, rel=1e-15)
        assert ops.inner_v(plan, st, st) == 0.0
        assert ops.norm_a(plan, st) == 0.0

    def test_energies_match_norm_combinations(self):
        for plan in both_plans():
            st = seeded_state(plan, 11)
            al = 0.6
            e1 = ops.norm_l2(plan, st) ** 2 + al**2 * ops.norm_v(plan, st) ** 2
            e2 = ops.norm_v(plan, st) ** 2 + al**2 * ops.norm_a(plan, st) ** 2
            assert ops.energy_e1(plan, st, al) == pytest.approx(e1, rel=1e-13)
            assert ops.energy_e2(plan, st, al) == pytest.approx(e2, rel=1e-13)

    def test_bilinearity_and_symmetry(self):
        plan = basis.build_plan(basis.torus(2 * np.pi), 6)
        a, b = seeded_state(plan, 12), seeded_state(plan, 13)
        ab = ops.VelocityState(a.psi + 2.0 * b.psi, a.harmonic + 2.0 * b.harmonic)
        for form in (ops.inner_l2, ops.inner_v):
            assert form(plan, a, b) == pytest.approx(form(plan, b, a), rel=1e-13)
            assert form(plan, ab, b) == pytest.approx(
                form(plan, a, b) + 2.0 * form(plan, b, b), rel=1e-12
            )


class TestProjections:
    def test_leray_annihilates_gradients(self):
        for plan in both_plans():
            rng = np.random.default_rng(21)
            chi = rng.standard_normal(plan.n_modes)
            grad = basis.flow_synthesis(plan, chi)[1]
            out = leray_project(plan, grad)
            assert np.max(np.abs(out)) < 1e-13 * np.max(np.abs(chi))

    def test_leray_recovers_streamfunction(self):
        for plan in both_plans():
            st = seeded_state(plan, 22)
            u = velocity_grid(plan, st)
            psi = leray_project(plan, u)
            assert np.allclose(psi, st.psi, rtol=0, atol=1e-13 * np.max(np.abs(st.psi)))

    def test_harmonic_projection(self):
        plan = basis.build_plan(basis.torus(2 * np.pi), 6)
        st = seeded_state(plan, 23)
        u = velocity_grid(plan, st)
        # rotational part is mean free, so the mean recovers the harmonic pair
        assert np.allclose(ops.harmonic_project(plan, u), st.harmonic, atol=1e-14)
        plan_s = basis.build_plan(basis.sphere(), 5)
        u_s = velocity_grid(plan_s, seeded_state(plan_s, 24))
        assert ops.harmonic_project(plan_s, u_s).shape == (0,)

    def test_leray_broadcasts(self):
        plan = basis.build_plan(basis.torus(2 * np.pi), 5)
        states = [seeded_state(plan, s) for s in (30, 31, 32)]
        grids = np.stack([velocity_grid(plan, st) for st in states])
        batched = leray_project(plan, grids)
        for k, st in enumerate(states):
            single = leray_project(plan, velocity_grid(plan, st))
            assert np.allclose(batched[k], single, rtol=0, atol=1e-14)


def oracle_advection_torus(plan, u, v, w):
    """b(u, v, w) = integral of (u . grad v) . w, evaluated componentwise.

    Independent of the rotational formula: differentiates each Cartesian
    velocity component as a scalar through the basis (exact on the flat
    torus, where components of band-limited fields stay band-limited).
    """
    ug = velocity_grid(plan, u)
    wg = velocity_grid(plan, w)
    acc = np.zeros(plan.grid_shape)
    for comp in range(2):
        c = basis.analyze(plan, velocity_grid(plan, v)[comp])
        gt, gp = basis.flow_synthesis(plan, c)[1]
        acc += (ug[0] * gt + ug[1] * gp) * wg[comp]
    return basis.integrate(plan, acc)


def lift_state(plan, plan2, st):
    out = ops.zero_state(plan2)
    for n in range(1, plan.truncation + 1):
        for m in range(-n, n + 1):
            out.psi[basis.mode_slot(plan2, (n, m))] = st.psi[basis.mode_slot(plan, (n, m))]
    return out


def oracle_advection_sphere(plan, u, v, w):
    """b(u, v, w) on the sphere through the ambient Cartesian embedding.

    Writes v as three Cartesian scalar components (each band limited to
    degree L + 1), takes their surface gradients spectrally, and contracts
    with u and w pointwise:

        b(u, v, w) = sum_i integral (u . grad v_i) w_i.

    The integrand is a polynomial of degree <= 3L + 4 restricted to the
    sphere, which the quadrature of a plan at truncation L + 2 integrates
    exactly, so this is an independent exact evaluation.
    """
    plan2 = basis.build_plan(basis.sphere(), plan.truncation + 2)
    theta, phi = np.arccos(plan2.core.mu), plan2.core.phi
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    sp, cp = np.sin(phi)[None, :], np.cos(phi)[None, :]

    def cartesian(state):
        ut, up = velocity_grid(plan2, lift_state(plan, plan2, state))
        return (ut * ct * cp - up * sp, ut * ct * sp + up * cp, -ut * st)

    ut, up = velocity_grid(plan2, lift_state(plan, plan2, u))
    acc = np.zeros(plan2.grid_shape)
    for vi, wi in zip(cartesian(v), cartesian(w)):
        gt, gp = basis.flow_synthesis(plan2, basis.analyze(plan2, vi))[1]
        acc += (ut * gt + up * gp) * wi
    return basis.integrate(plan2, acc)


class TestTrilinearForm:
    def test_golden_value_on_torus(self):
        # streamfunctions cos(x), cos(y), cos(x + y) on [0, 2pi)^2: b = -pi^2
        plan = basis.build_plan(basis.torus(2 * np.pi), 6)
        amp = np.pi * np.sqrt(2.0)
        u = ops.state_from_mode(plan, (1, 0), amp)
        v = ops.state_from_mode(plan, (0, 1), amp)
        w = ops.state_from_mode(plan, (1, 1), amp)
        got = ops.trilinear_b(plan, u, v, w)
        assert got == pytest.approx(-np.pi**2, rel=1e-13)
        assert oracle_advection_torus(plan, u, v, w) == pytest.approx(-np.pi**2, rel=1e-13)

    def test_matches_advection_oracle_torus(self):
        plan = basis.build_plan(basis.torus(2 * np.pi), 9)
        sts = [seeded_state(plan, s) for s in (40, 41, 42)]
        got = ops.trilinear_b(plan, *sts)
        want = oracle_advection_torus(plan, *sts)
        assert abs(got - want) < 1e-12 * max(abs(want), 1e-3)

    def test_matches_embedding_oracle_sphere(self):
        plan = basis.build_plan(basis.sphere(), 9)
        sts = [seeded_state(plan, s) for s in (40, 41, 42)]
        got = ops.trilinear_b(plan, *sts)
        want = oracle_advection_sphere(plan, *sts)
        assert abs(got - want) < 1e-12 * max(abs(want), 1e-3)

    def test_vanishes_in_last_two_arguments(self):
        # the integrand cancels pointwise, so the value is exactly zero
        for plan in both_plans():
            u, v = seeded_state(plan, 43), seeded_state(plan, 44)
            assert ops.trilinear_b(plan, u, v, v) == 0.0

    def test_antisymmetry(self):
        for plan in both_plans():
            u, v, w = (seeded_state(plan, s) for s in (45, 46, 47))
            bvw = ops.trilinear_b(plan, u, v, w)
            bwv = ops.trilinear_b(plan, u, w, v)
            scale = abs(bvw) + abs(bwv) + 1e-3
            assert abs(bvw + bwv) < 1e-13 * scale

    def test_energy_orthogonality(self):
        for plan in both_plans():
            u = seeded_state(plan, 48)
            assert ops.trilinear_b(plan, u, u, u) == 0.0

    def test_enstrophy_orthogonality_on_sphere(self):
        # b(u, u, Au) = 0 holds only on the sphere
        plan = basis.build_plan(basis.sphere(), 9)
        u = seeded_state(plan, 49)
        au = ops.stokes_apply(plan, u)
        scale = ops.norm_v(plan, u) ** 2 * ops.norm_a(plan, u)
        assert abs(ops.trilinear_b(plan, u, u, au)) < 1e-13 * scale
