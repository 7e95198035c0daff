"""Tests for the spectral basis plans (sphere and torus transforms)."""

import math

import numpy as np
import pytest

from bardina2d import basis
from bardina2d.errors import IndexRangeError, ShapeError, UnsupportedGeometryError


def plans():
    return [
        basis.build_plan(basis.sphere(), 9),
        basis.build_plan(basis.torus(2 * np.pi), 9),
        basis.build_plan(basis.torus(3.7), 6),
    ]


class TestPlanStructure:
    def test_sphere_mode_count_and_multiplicity(self):
        plan = basis.build_plan(basis.sphere(), 9)
        assert plan.n_modes == 9 * 11
        assert plan.n_harmonic == 0
        # eigenvalue n(n+1) with multiplicity 2n+1
        lam, counts = np.unique(plan.lam, return_counts=True)
        ns = np.arange(1, 10)
        assert np.array_equal(lam, ns * (ns + 1.0))
        assert np.array_equal(counts, 2 * ns + 1)
        assert plan.lambda_1 == 2.0

    def test_torus_mode_count_and_lambda1(self):
        L = 3.7
        plan = basis.build_plan(basis.torus(L), 6)
        assert plan.n_modes == 13 * 13 - 1
        assert plan.n_harmonic == 2
        assert plan.lambda_1 == pytest.approx((2 * np.pi / L) ** 2, rel=1e-15)

    def test_mode_count_matches_enumerated_modes(self):
        # the closed form the snapshot reader checks payloads against
        for plan in plans():
            kind, trunc = plan.geometry.kind, plan.truncation
            assert basis.mode_count(kind, trunc) == (plan.n_modes, plan.n_harmonic)
            assert plan.lam.size == plan.n_modes

    def test_eigenvalues_sorted_with_deterministic_ties(self):
        for plan in plans():
            assert np.all(np.diff(plan.lam) >= 0.0)
        plan = basis.build_plan(basis.torus(1.0), 3)
        # ties broken by (k1, k2) lexicographic order
        q = plan.core.qvec
        key = list(zip(q[:, 0] ** 2 + q[:, 1] ** 2, q[:, 0], q[:, 1]))
        assert key == sorted(key)

    def test_eigenvalue_lookup(self):
        plan = basis.build_plan(basis.sphere(), 5)
        assert basis.eigenvalue(plan, (3, -2)) == 12.0
        assert basis.eigenvalue(plan, (1, 0)) == 2.0
        planT = basis.build_plan(basis.torus(2 * np.pi), 5)
        assert basis.eigenvalue(planT, (1, 1)) == pytest.approx(2.0, rel=1e-15)

    def test_out_of_range_indices(self):
        plan = basis.build_plan(basis.sphere(), 5)
        with pytest.raises(IndexRangeError):
            basis.eigenvalue(plan, (6, 0))
        with pytest.raises(IndexRangeError):
            basis.eigenvalue(plan, (3, 4))
        planT = basis.build_plan(basis.torus(1.0), 4)
        with pytest.raises(IndexRangeError):
            basis.eigenvalue(planT, (5, 0))
        with pytest.raises(IndexRangeError):
            basis.eigenvalue(planT, (0, 0))

    def test_grid_sizes_support_triple_products(self):
        plan = basis.build_plan(basis.sphere(), 21)
        nlat, nlon = plan.grid_shape
        assert nlat >= (3 * 21 + 2 + 1) // 2
        assert nlon >= 3 * 21 + 1
        planT = basis.build_plan(basis.torus(1.0), 21)
        assert planT.grid_shape[0] >= 3 * 21 + 1

    def test_sphere_eigenvalue_sum_growth(self):
        # sum of the first N eigenvalues dominates N^2/2 at any truncation
        plan = basis.build_plan(basis.sphere(), 21)
        partial = np.cumsum(plan.lam)
        N = np.arange(1, plan.n_modes + 1)
        assert np.all(partial >= N * N / 2.0)

    def test_bad_geometry(self):
        with pytest.raises(UnsupportedGeometryError):
            basis.Geometry("plane")
        with pytest.raises(UnsupportedGeometryError):
            basis.torus(0.0)


class TestGaussLegendre:
    SIZES = list(range(1, 41)) + [64, 129, 130, 257]

    def test_nodes_match_scipy_ascending_and_symmetric(self):
        from scipy.special import roots_legendre

        for n in self.SIZES:
            mu, w = basis._gauss_legendre(n)
            assert mu.shape == w.shape == (n,)
            assert np.all(np.diff(mu) > 0.0)
            # the parity-folded transforms read the southern rows as mirrors
            assert np.array_equal(mu, -mu[::-1]) and np.array_equal(w, w[::-1])
            np.testing.assert_allclose(mu, roots_legendre(n)[0], rtol=0.0, atol=4.5e-16)

    def test_weights_match_high_precision_reference(self):
        pytest.importorskip("mpmath")
        # near the poles a weight moves by 2 dx / (1 - mu^2) relative when its
        # node moves by dx: scipy's rule is off by 1.8e-11 at n = 129
        for n in (33, 129, 257):
            mu, w = basis._gauss_legendre(n)
            want = _gauss_legendre_weights_mp(n, mu[: (n + 1) // 2])
            rel = np.abs(w[: want.size] / want - 1.0)
            assert rel.max() <= 1e-12, (n, rel.max())

    def test_rule_is_exact_to_degree_2n_minus_1(self):
        for n in list(range(1, 13)) + [33, 129]:
            mu, w = basis._gauss_legendre(n)
            p0, p1 = np.ones_like(mu), mu
            sums = [w.sum(), w @ mu]
            for k in range(2, 2 * n):
                p0, p1 = p1, ((2 * k - 1) * mu * p1 - (k - 1) * p0) / k
                sums.append(w @ p1)
            want = np.zeros(2 * n)
            want[0] = 2.0
            np.testing.assert_allclose(sums, want, rtol=0.0, atol=1e-14)

    def test_sphere_sin_theta_has_no_cancellation(self):
        mpmath = pytest.importorskip("mpmath")
        core = basis.build_plan(basis.sphere(), 85).core
        with mpmath.workdps(40):
            want = np.array([float(mpmath.sqrt(1 - mpmath.mpf(float(m)) ** 2)) for m in core.mu])
        # sqrt(1 - mu^2) is off by 6.2e-14 relative next to the poles here
        assert np.abs(core.sin_t / want - 1.0).max() <= 4.5e-16


def _gauss_legendre_weights_mp(n, mu):
    """Gauss-Legendre weights at the roots nearest mu, by Newton's method in 40 digits."""
    import mpmath

    out = []
    with mpmath.workdps(40):
        for start in mu:
            x = mpmath.mpf(float(start))
            for step in range(4):
                p0, p1 = mpmath.mpf(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = n * (p0 - x * p1) / (1 - x * x)
                if step < 3:
                    x -= p1 / dp
            assert abs(p1) < mpmath.mpf(10) ** -30
            out.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(out)


class TestTransforms:
    def test_roundtrip(self):
        for plan in plans():
            rng = np.random.default_rng(11)
            c = rng.standard_normal(plan.n_modes)
            c2 = basis.analyze(plan, basis.synthesize(plan, c))
            assert np.max(np.abs(c2 - c)) <= 1e-12 * max(1.0, np.max(np.abs(c)))

    def test_parseval(self):
        for plan in plans():
            rng = np.random.default_rng(12)
            c = rng.standard_normal(plan.n_modes)
            f = basis.synthesize(plan, c)
            assert basis.integrate(plan, f * f) == pytest.approx(np.dot(c, c), rel=1e-12)

    def test_analysis_is_quadrature_adjoint(self):
        for plan in plans():
            rng = np.random.default_rng(13)
            c = rng.standard_normal(plan.n_modes)
            g = rng.standard_normal(plan.grid_shape)
            lhs = basis.integrate(plan, basis.synthesize(plan, c) * g)
            rhs = np.dot(c, basis.analyze(plan, g))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_gradient_adjoint_and_eigen_identity(self):
        for plan in plans():
            rng = np.random.default_rng(14)
            c = rng.standard_normal(plan.n_modes)
            grad = basis.flow_synthesis(plan, c)[1]
            # <grad f, grad basis_s> = lam_s c_s for band-limited f, and
            # lam_s flow_analysis(rot90(v))_s = <v, grad basis_s>
            back = plan.lam * basis.flow_analysis(plan, basis.rot90(grad))[0]
            scale = np.max(plan.lam) * np.max(np.abs(c))
            assert np.max(np.abs(back - plan.lam * c)) <= 1e-12 * scale
            v = rng.standard_normal((2,) + plan.grid_shape)
            lhs = basis.integrate(plan, (grad * v).sum(axis=0))
            rhs = np.dot(c, plan.lam * basis.flow_analysis(plan, basis.rot90(v))[0])
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_batched_transforms_match_single(self):
        for plan in plans():
            rng = np.random.default_rng(15)
            C = rng.standard_normal((3, 2, plan.n_modes))
            F = basis.synthesize(plan, C)
            for i in range(3):
                for j in range(2):
                    # BLAS kernels differ between matrix and vector shapes, so
                    # agreement is to rounding, not bitwise
                    assert np.allclose(F[i, j], basis.synthesize(plan, C[i, j]),
                                       rtol=0.0, atol=1e-13)
            V = rng.standard_normal((4, 2) + plan.grid_shape)
            P, Q = basis.flow_analysis(plan, V)
            for i in range(4):
                p, q = basis.flow_analysis(plan, V[i])
                assert np.allclose(P[i], p, rtol=0.0, atol=1e-12)
                assert np.allclose(Q[i], q, rtol=0.0, atol=1e-12)
            # an empty batch comes back empty, in the shapes of its rows
            grid, empty = plan.grid_shape, np.zeros((0, plan.n_modes))
            assert basis.synthesize(plan, empty).shape == (0,) + grid
            assert basis.analyze(plan, np.zeros((0,) + grid)).shape == (0, plan.n_modes)
            zeta, grad = basis.flow_synthesis(plan, empty)
            assert zeta.shape == (0,) + grid and grad.shape == (0, 2) + grid
            p, q = basis.flow_analysis(plan, np.zeros((0, 2) + grid))
            assert p.shape == (0, plan.n_modes) and q.shape == (0, plan.n_harmonic)

    def test_transforms_deterministic_across_plan_builds(self):
        g = basis.torus(5.0)
        p1 = basis.build_plan(g, 7)
        p2 = basis.build_plan(g, 7)
        rng = np.random.default_rng(16)
        c = rng.standard_normal(p1.n_modes)
        assert np.array_equal(basis.synthesize(p1, c), basis.synthesize(p2, c))

    def test_shape_mismatch_raises(self):
        plan = basis.build_plan(basis.sphere(), 5)
        with pytest.raises(ShapeError):
            basis.synthesize(plan, np.zeros(7))
        with pytest.raises(ShapeError):
            basis.analyze(plan, np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            basis.flow_analysis(plan, np.zeros((3,) + plan.grid_shape))

    def test_sphere_matches_per_order_reference(self):
        # odd nlat (L = 1, 4, 9) puts a latitude on the equator; even nlat
        # (L = 2, 3, 6) does not
        for lmax in (1, 2, 3, 4, 6, 9):
            plan = basis.build_plan(basis.sphere(), lmax)
            rng = np.random.default_rng(19)
            c = rng.standard_normal((2, plan.n_modes))
            f = rng.standard_normal((2,) + plan.grid_shape)
            v = rng.standard_normal((2, 2) + plan.grid_shape)
            ref = _PerOrderSphere(lmax, plan.core)
            zeta, grad = basis.flow_synthesis(plan, c)
            for got, want in (
                (basis.synthesize(plan, c), ref.synthesize(c)),
                (basis.analyze(plan, f), ref.analyze(f)),
                (zeta, ref.synthesize(-plan.lam * c)),
                (grad, ref.synth_grad(c)),
                (basis.flow_analysis(plan, v)[0],
                 -ref.grad_analysis(basis.rot90(v)) / plan.lam),
            ):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_sphere_legendre_tables_stay_small(self):
        # the paired table dominates a sphere plan's memory (5.9 MB at L=85;
        # one block per order would take 11.5 MB); a second copy of it in any
        # layout would show in peak RSS
        core = basis.build_plan(basis.sphere(), 85).core
        owned = [a for a in vars(core).values() if isinstance(a, np.ndarray) and a.base is None]
        assert sum(a.nbytes for a in owned) <= 8e6

    @pytest.mark.parametrize("lmax", [1, 2, 3, 20, 21, 85])
    def test_sphere_table_pairs_orders_with_at_most_one_padding_row(self, lmax):
        plan = basis.build_plan(basis.sphere(), lmax)
        core = plan.core
        n, m = basis._paired_degrees(lmax)
        assert core.table.shape[:3] == n.shape == (2, (lmax + 2) // 2, n.shape[2])
        kept = n <= lmax
        # every (n, m >= 0) in exactly one row, at the parity of n - m
        rows = sorted(zip(n[kept].tolist(), m[kept].tolist()))
        assert rows == [(d, o) for d in range(1, lmax + 1) for o in range(d + 1)]
        assert np.all((n - m)[kept] % 2 == np.nonzero(kept)[0] % 2)
        # padding rows are zero, and no block holds more than one
        assert not np.any(core.table[~kept]) and np.all(np.any(core.table[kept], axis=-1))
        assert (~kept).sum(axis=-1).max() <= 1
        # each slot of each field appears exactly once in a gather
        width = plan.n_modes + 1
        for b in (1, 3):
            idx = basis.workspace(plan, b).gather.ravel()
            counts = np.bincount(idx[idx % width != plan.n_modes], minlength=b * width)
            assert np.all(counts.reshape(b, width)[:, :-1] == 1)


    def test_torus_matches_full_complex_reference(self):
        # odd and even truncations, leading batch axes
        for kmax, length in ((7, 2 * np.pi), (8, 3.7)):
            plan = basis.build_plan(basis.torus(length), kmax)
            rng = np.random.default_rng(20)
            c = rng.standard_normal((2, 3, plan.n_modes))
            f = rng.standard_normal((2, 3) + plan.grid_shape)
            v = rng.standard_normal((2, 3, 2) + plan.grid_shape)
            ref = _FullComplexTorus(plan)
            zeta, grad = basis.flow_synthesis(plan, c)
            for got, want in (
                (basis.synthesize(plan, c), ref.synthesize(c)),
                (basis.analyze(plan, f), ref.analyze(f)),
                (zeta, ref.synthesize(-plan.lam * c)),
                (grad, ref.synth_grad(c)),
                (basis.flow_analysis(plan, v)[0],
                 -ref.grad_analysis(basis.rot90(v)) / plan.lam),
            ):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_torus_column_and_edge_modes_match_reference(self):
        # the k2 = 0 column carries both +k1 and -k1 in the half spectrum
        for kmax in (7, 8):
            plan = basis.build_plan(basis.torus(2.0), kmax)
            ref = _FullComplexTorus(plan)
            k = kmax
            for index in (
                (1, 0), (-1, 0), (3, 0), (-3, 0), (k, 0), (-k, 0), (0, k), (0, -k),
                (k, k), (k, -k), (-k, k), (-k, -k), (2, k), (-2, -k), (k, -3), (-k, 3),
            ):
                c = np.zeros(plan.n_modes)
                c[basis.mode_slot(plan, index)] = 1.0
                f, grad = ref.synthesize(c), ref.synth_grad(c)
                zeta, got_grad = basis.flow_synthesis(plan, c)
                u = basis.rot90(grad)
                for got, want in (
                    (basis.synthesize(plan, c), f),
                    (zeta, ref.synthesize(-plan.lam * c)),
                    (got_grad, grad),
                    (basis.analyze(plan, f), c),
                    (basis.flow_analysis(plan, u)[0],
                     -ref.grad_analysis(basis.rot90(u)) / plan.lam),
                ):
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), index

    def test_flow_transforms_equal_separate_calls(self):
        # a stacked base + tangent batch with a nonzero harmonic part, as in
        # dynamics._remainder_u: the vorticity against `synthesize`, the
        # gradient and the Leray part against the reference transforms
        for plan in plans():
            rng = np.random.default_rng(21)
            psis = rng.standard_normal((4, plan.n_modes)) / (1.0 + plan.lam)
            hs = rng.standard_normal((4, plan.n_harmonic))
            zeta, grad = basis.flow_synthesis(plan, psis)
            want_zeta = basis.synthesize(plan, -plan.lam * psis)
            ref = _reference(plan)
            want_grad = ref.synth_grad(psis)
            u = basis.rot90(grad)
            if plan.n_harmonic:
                u += hs[:, :, None, None]
            g = zeta[:, None] * basis.rot90(u[0])
            g[1:] += zeta[0] * basis.rot90(u[1:])
            # the product is mean-free; offsets give the harmonic part a value
            g += rng.standard_normal((4, 2, 1, 1))
            p, q = basis.flow_analysis(plan, g)
            want_p = -ref.grad_analysis(basis.rot90(g)) / plan.lam
            want_q = g.mean(axis=(-2, -1))[..., : plan.n_harmonic]
            assert q.shape == (4, plan.n_harmonic)
            pairs = [(zeta, want_zeta), (grad, want_grad), (p, want_p)]
            if plan.n_harmonic:
                pairs.append((q, want_q))
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestWorkspaces:
    """Transforms reuse per-plan buffers; what they return is never one of them."""

    def _calls(self, plan, rng):
        grid = plan.grid_shape

        def coeffs():
            return rng.standard_normal((3, plan.n_modes)) / (1.0 + plan.lam)

        return (
            (basis.synthesize, coeffs),
            (basis.analyze, lambda: rng.standard_normal((3,) + grid)),
            (basis.flow_synthesis, coeffs),
            (basis.flow_analysis, lambda: rng.standard_normal((3, 2) + grid)),
        )

    def test_results_survive_a_second_call(self):
        for plan in plans():
            rng = np.random.default_rng(30)
            for fn, make in self._calls(plan, rng):
                first = fn(plan, make())
                first = first if isinstance(first, tuple) else (first,)
                kept = [a.copy() for a in first]
                fn(plan, make())
                for a, b in zip(first, kept):
                    assert np.array_equal(a, b), fn.__name__
                buffers = [
                    buf for buf in vars(basis.workspace(plan, 3)).values()
                    if isinstance(buf, np.ndarray)
                ]
                for a in first:
                    assert not any(np.shares_memory(a, buf) for buf in buffers), fn.__name__

    def test_plans_of_one_truncation_share_no_buffers(self):
        for make in (lambda: basis.build_plan(basis.sphere(), 9),
                     lambda: basis.build_plan(basis.torus(2 * np.pi), 9)):
            a, b = (vars(basis.workspace(make(), 2)) for _ in range(2))
            for x in a.values():
                for y in b.values():
                    if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
                        assert not np.shares_memory(x, y)

    def test_workspaces_per_plan_are_bounded(self):
        for plan in plans()[:2]:
            first = basis.workspace(plan, 1)
            assert basis.workspace(plan, 1) is first
            for rows in range(1, 8):
                basis.synthesize(plan, np.zeros((rows, plan.n_modes)))
            assert len(plan.core._work) == basis.WORKSPACES_PER_PLAN
            # the two most recent batch sizes are kept
            assert sorted(plan.core._work) == [6, 7]

    @pytest.mark.parametrize("kmax", [7, 8])
    def test_torus_unwritten_bins_stay_zero(self, kmax):
        # the torus inverse reads spectrum bins that no pack writes and
        # relies on them being zero; interleaved transforms on one plan must
        # give what each gives on a plan of its own
        geometry = basis.torus(2 * np.pi)
        plan = basis.build_plan(geometry, kmax)
        rng = np.random.default_rng(32 + kmax)
        row_shape = {
            "synthesize": (plan.n_modes,),
            "analyze": plan.grid_shape,
            "flow_synthesis": (plan.n_modes,),
            "flow_analysis": (2,) + plan.grid_shape,
        }
        schedule = [(rows, name) for rows in (0, 1, 7) for name in row_shape]
        schedule += [(rows, name) for name in row_shape for rows in (1, 7)]
        for rows, name in 2 * schedule:
            x = rng.standard_normal((rows,) + row_shape[name])
            fn = getattr(basis, name)
            got = fn(plan, x)
            want = fn(basis.build_plan(geometry, kmax), x)
            got, want = (r if isinstance(r, tuple) else (r,) for r in (got, want))
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), (rows, name)

    def test_flow_synthesis_out_is_checked_and_filled(self):
        for plan in plans():
            psi = np.random.default_rng(31).standard_normal((2, plan.n_modes))
            out = np.empty((2, 3) + plan.grid_shape)
            zeta, grad = basis.flow_synthesis(plan, psi, out=out)
            want_zeta, want_grad = basis.flow_synthesis(plan, psi)
            assert np.shares_memory(zeta, out) and np.shares_memory(grad, out)
            assert np.array_equal(zeta, want_zeta) and np.array_equal(grad, want_grad)
            with pytest.raises(ShapeError):
                basis.flow_synthesis(plan, psi, out=np.empty((2, 2) + plan.grid_shape))
            with pytest.raises(ShapeError):
                basis.flow_synthesis(plan, psi, out=out[:, :, :, ::-1])


def _reference(plan):
    if plan.geometry.kind == basis.SPHERE:
        return _PerOrderSphere(plan.truncation, plan.core)
    return _FullComplexTorus(plan)


class _FullComplexTorus:
    """Full-complex fft2/ifft2 torus transforms: the plain reference."""

    def __init__(self, plan):
        core = plan.core
        self.n, self.length, self.n_modes = plan.grid_shape[0], plan.geometry.length, plan.n_modes
        q = core.qvec
        right = (q[:, 0] > 0) | ((q[:, 0] == 0) & (q[:, 1] > 0))
        self.k = q[right]
        self.cos = np.nonzero(right)[0]
        self.sin = np.array([core.slot_of[(-int(a), -int(b))] for a, b in self.k])
        self.amp = np.sqrt(2.0) / self.length
        self.quad = self.amp * self.length**2 / self.n**2
        self.w = 2.0 * np.pi / self.length * np.fft.fftfreq(self.n, d=1.0 / self.n)
        self.wk = 2.0 * np.pi / self.length * self.k

    def _full(self, c):
        n, (k1, k2) = self.n, self.k.T
        z = 0.5 * n * n * self.amp * (c[..., self.cos] - 1j * c[..., self.sin])
        fhat = np.zeros(c.shape[:-1] + (n, n), dtype=complex)
        fhat[..., k1 % n, k2 % n] = z
        fhat[..., -k1 % n, -k2 % n] = np.conj(z)
        return fhat

    def _at_k(self, f):
        return np.fft.fft2(f)[..., self.k[:, 0] % self.n, self.k[:, 1] % self.n]

    def _modes(self, cos_part, sin_part):
        out = np.empty(cos_part.shape[:-1] + (self.n_modes,))
        out[..., self.cos], out[..., self.sin] = cos_part, sin_part
        return out

    def synthesize(self, c):
        return np.fft.ifft2(self._full(c)).real

    def synth_grad(self, c):
        fhat = self._full(c)
        dx = np.fft.ifft2(1j * self.w[:, None] * fhat).real
        dy = np.fft.ifft2(1j * self.w[None, :] * fhat).real
        return np.stack((dx, dy), axis=-3)

    def analyze(self, f):
        z = self._at_k(f)
        return self._modes(self.quad * z.real, -self.quad * z.imag)

    def grad_analysis(self, v):
        zdot = self.wk[:, 0] * self._at_k(v[..., 0, :, :]) + self.wk[:, 1] * self._at_k(
            v[..., 1, :, :]
        )
        return self._modes(self.quad * zdot.imag, self.quad * zdot.real)


def _legendre_per_order(lmax, m, mu, sin_t):
    """Orthonormal associated Legendre values and theta-derivatives.

    Returns arrays of shape (lmax - m + 1, nlat) for degrees n = m..lmax,
    normalized so the square integrates to 1 over mu in [-1, 1], with the
    Condon-Shortley phase.
    """
    rows = lmax - m + 1
    p = np.zeros((max(rows, 1), mu.size))
    # diagonal seed P_m^m
    pmm = np.full(mu.size, 1.0 / math.sqrt(2.0))
    for k in range(1, m + 1):
        pmm = -math.sqrt((2 * k + 1) / (2.0 * k)) * sin_t * pmm
    if rows <= 0:
        return p, np.zeros_like(p)
    p[0] = pmm
    if rows > 1:
        p[1] = math.sqrt(2 * m + 3.0) * mu * pmm
    for n in range(m + 2, lmax + 1):
        a = math.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        b = math.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
        p[n - m] = a * (mu * p[n - m - 1] - b * p[n - m - 2])

    n = np.arange(m, lmax + 1)
    e = np.sqrt((n * n - m * m) * (2.0 * n + 1.0) / (2.0 * n - 1.0))
    dp = n[:, None] * mu * p
    dp[1:] -= e[1:, None] * p[:-1]
    dp /= sin_t
    return p, dp


class _PerOrderSphere:
    """One matrix product per order m on unpadded tables: the plain reference."""

    def __init__(self, lmax, core):
        self.lmax, self.core = lmax, core
        self.p, self.dp, self.cos, self.sin = [], [], [], []
        for m in range(lmax + 1):
            p, dp = _legendre_per_order(lmax, m, core.mu, core.sin_t)
            n = np.arange(max(m, 1), lmax + 1)
            self.p.append(p[n - m])
            self.dp.append(dp[n - m])
            self.cos.append(n * n + n + m - 1)
            self.sin.append(n * n + n - m - 1)

    def _k(self, m):
        return 1.0 / np.sqrt(2.0 * np.pi) if m == 0 else 1.0 / np.sqrt(np.pi)

    def _rows(self, c, m):
        a = c[..., self.cos[m]]
        return a, (c[..., self.sin[m]] if m else np.zeros_like(a))

    def _scale(self, m):
        return self.core.nlon * self._k(m) * (1.0 if m == 0 else 0.5)

    def _empty(self, lead):
        return np.zeros(lead + (self.core.nlat, self.core.nlon // 2 + 1), dtype=complex)

    def synthesize(self, c):
        spec = self._empty(c.shape[:-1])
        for m in range(self.lmax + 1):
            a, b = self._rows(c, m)
            spec[..., m] = self._scale(m) * (a @ self.p[m] - 1j * (b @ self.p[m]))
        return np.fft.irfft(spec, n=self.core.nlon, axis=-1)

    def synth_grad(self, c):
        spec = self._empty(c.shape[:-1] + (2,))
        for m in range(self.lmax + 1):
            a, b = self._rows(c, m)
            dp, mp = self.dp[m], m * self.p[m] / self.core.sin_t
            spec[..., 0, :, m] = self._scale(m) * (a @ dp - 1j * (b @ dp))
            spec[..., 1, :, m] = 1j * self._scale(m) * (a @ mp - 1j * (b @ mp))
        return np.fft.irfft(spec, n=self.core.nlon, axis=-1)

    def analyze(self, f):
        g = np.fft.rfft(f, axis=-1)
        out = np.empty(f.shape[:-2] + (self.core.n_modes,))
        for m in range(self.lmax + 1):
            gm = g[..., m] * self.core.wlat * self.core.dphi * self._k(m)
            out[..., self.cos[m]] = gm.real @ self.p[m].T
            if m:
                out[..., self.sin[m]] = -gm.imag @ self.p[m].T
        return out

    def grad_analysis(self, v):
        gt = np.fft.rfft(v[..., 0, :, :], axis=-1)
        gp = np.fft.rfft(v[..., 1, :, :], axis=-1)
        out = np.empty(v.shape[:-3] + (self.core.n_modes,))
        for m in range(self.lmax + 1):
            w = self.core.wlat * self.core.dphi * self._k(m)
            gtm, gpm = gt[..., m] * w, gp[..., m] * w
            dp, mp = self.dp[m], m * self.p[m] / self.core.sin_t
            out[..., self.cos[m]] = gtm.real @ dp.T + gpm.imag @ mp.T
            if m:
                out[..., self.sin[m]] = -gtm.imag @ dp.T + gpm.real @ mp.T
        return out


class TestKnownFunctions:
    def test_sphere_real_harmonic_2_1(self):
        # grid samples of the orthonormal real harmonic with n=2, m=1:
        # sqrt(5/12) * (-3 mu sqrt(1-mu^2)) * cos(phi) / sqrt(pi)
        plan = basis.build_plan(basis.sphere(), 8)
        theta, phi = basis.grid_points(plan)
        mu = np.cos(theta)
        pbar = np.sqrt(5.0 / 12.0) * (-3.0 * mu * np.sqrt(1.0 - mu**2))
        f = pbar[:, None] * np.cos(phi)[None, :] / np.sqrt(np.pi)
        c = basis.analyze(plan, f)
        s = basis.mode_slot(plan, (2, 1))
        assert c[s] == pytest.approx(1.0, abs=1e-12)
        c[s] = 0.0
        assert np.max(np.abs(c)) <= 1e-12

    def test_sphere_gradient_of_y10(self):
        # Y10 = sqrt(3/4pi) cos(theta); d/dtheta = -sqrt(3/4pi) sin(theta)
        plan = basis.build_plan(basis.sphere(), 8)
        theta, _ = basis.grid_points(plan)
        c = np.zeros(plan.n_modes)
        c[basis.mode_slot(plan, (1, 0))] = 1.0
        grad = basis.flow_synthesis(plan, c)[1]
        expect = -np.sqrt(3.0 / (4.0 * np.pi)) * np.sin(theta)
        assert np.max(np.abs(grad[0] - expect[:, None])) <= 1e-13
        assert np.max(np.abs(grad[1])) <= 1e-13

    def test_torus_mode_placement(self):
        L = 2 * np.pi
        plan = basis.build_plan(basis.torus(L), 6)
        x, y = basis.grid_points(plan)
        c = np.zeros(plan.n_modes)
        c[basis.mode_slot(plan, (1, 0))] = 1.0
        f = basis.synthesize(plan, c)
        assert np.max(np.abs(f - np.sqrt(2.0) / L * np.cos(x)[:, None])) <= 1e-13
        c[:] = 0.0
        c[basis.mode_slot(plan, (-1, 0))] = 1.0
        f = basis.synthesize(plan, c)
        assert np.max(np.abs(f - np.sqrt(2.0) / L * np.sin(x)[:, None])) <= 1e-13


class TestDealias:
    def test_sphere_dealias_is_identity(self):
        plan = basis.build_plan(basis.sphere(), 7)
        rng = np.random.default_rng(17)
        c = rng.standard_normal(plan.n_modes)
        assert np.array_equal(basis.dealias(plan, c), c)

    def test_torus_band(self):
        # the band is the whole truncation: edge modes pass unchanged
        plan = basis.build_plan(basis.torus(1.0), 8)
        rng = np.random.default_rng(19)
        c = rng.standard_normal(plan.n_modes)
        out = basis.dealias(plan, c)
        assert np.array_equal(out, c) and out is not c
        for index in ((8, 0), (0, -8), (-8, 8), (5, 6)):
            assert out[basis.mode_slot(plan, index)] == c[basis.mode_slot(plan, index)] != 0.0

    def test_quadratic_products_of_dealiased_fields_analyze_exactly(self):
        # product of two dealiased fields must analyze alias-free on the band
        plan = basis.build_plan(basis.torus(2.0), 9)
        rng = np.random.default_rng(18)
        a = basis.dealias(plan, rng.standard_normal(plan.n_modes))
        b = basis.dealias(plan, rng.standard_normal(plan.n_modes))
        fa, fb = basis.synthesize(plan, a), basis.synthesize(plan, b)
        got = basis.analyze(plan, fa * fb)
        # oracle: dense grid quadrature at twice the resolution
        fine = basis.build_plan(basis.torus(2.0), 18)
        af = basis.synthesize(fine, _lift(plan, fine, a))
        bf = basis.synthesize(fine, _lift(plan, fine, b))
        want_fine = basis.analyze(fine, af * bf)
        want = _restrict(fine, plan, want_fine)
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def _lift(plan, fine, c):
    out = np.zeros(fine.n_modes)
    for s in range(plan.n_modes):
        q1, q2 = plan.core.qvec[s]
        out[basis.mode_slot(fine, (int(q1), int(q2)))] = c[s]
    return out


def _restrict(fine, plan, c):
    out = np.zeros(plan.n_modes)
    for s in range(plan.n_modes):
        q1, q2 = plan.core.qvec[s]
        out[s] = c[basis.mode_slot(fine, (int(q1), int(q2)))]
    return out
