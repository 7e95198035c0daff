"""Tests for the spectral basis plans (sphere and torus transforms)."""

import math
import tracemalloc

import numpy as np
import pytest

from bardina2d import basis, legendre, lyapunov
from bardina2d.errors import IndexRangeError, ShapeError, UnsupportedGeometryError


# the largest sphere truncation whose longitude lines a matrix product transforms
_LMAX_LON_MATMUL = max(
    lmax for lmax in range(1, 100) if basis._fast_even(3 * lmax + 1) <= legendre.LON_MATMUL_MAX
)


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

    def test_mode_indices_must_be_integers(self):
        # int() would take (2.7, 1) and ("2", True) to the slot of (2, 1)
        from bardina2d import operators as ops

        for plan in (basis.build_plan(basis.sphere(), 4), basis.build_plan(basis.torus(1.0), 4)):
            bad = ((2.7, 1), ("2", True), (2, True), (np.float64(2.0), 1), (2, np.bool_(True)))
            for index in bad:
                for call in (basis.mode_slot, basis.eigenvalue, ops.state_from_mode):
                    with pytest.raises(IndexRangeError, match="integers"):
                        call(plan, index)
            # numpy integers are integers
            slot = basis.mode_slot(plan, (2, 1))
            assert basis.mode_slot(plan, (np.int64(2), np.int32(1))) == slot

    def test_mode_index_inverts_mode_slot(self):
        for plan in (basis.build_plan(basis.sphere(), 7), basis.build_plan(basis.torus(1.0), 4)):
            for slot in range(plan.n_modes):
                index = basis.mode_index(plan, np.int64(slot))
                assert all(type(part) is int for part in index)
                assert basis.mode_slot(plan, index) == slot

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
            mu, w = legendre.gauss_legendre(n)
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
            mu, w = legendre.gauss_legendre(n)
            want = _gauss_legendre_weights_mp(n, mu[: (n + 1) // 2])
            rel = np.abs(w[: want.size] / want - 1.0)
            assert rel.max() <= 1e-12, (n, rel.max())

    def test_rule_is_exact_to_degree_2n_minus_1(self):
        for n in list(range(1, 13)) + [33, 129]:
            mu, w = legendre.gauss_legendre(n)
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

    def test_integrate_keeps_leading_axes(self):
        # one integral per grid of a stack, each equal to its own call; a
        # constant 1 integrates to the area
        for plan in plans():
            rng = np.random.default_rng(15)
            f = rng.standard_normal((2, 3) + plan.grid_shape)
            got = basis.integrate(plan, f)
            assert got.shape == (2, 3)
            for i in range(2):
                for j in range(3):
                    assert got[i, j] == basis.integrate(plan, f[i, j])
            one = basis.integrate(plan, np.ones(plan.grid_shape))
            assert one == pytest.approx(plan.area, rel=1e-14)

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
        # L = 21 and 42 reach the polar rows where the recurrence for
        # dP/dtheta cancels most, against this reference's own dP
        for lmax in (1, 2, 3, 4, 6, 9, 21, 42):
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

    @pytest.mark.parametrize("lmax", [1, 2, 20, 21, _LMAX_LON_MATMUL])
    def test_sphere_lon_matmul_matches_numpy_fft(self, monkeypatch, lmax):
        # up to the crossover the longitude stage is a product against a
        # cos/sin table; irfft and rfft give the same lines and half
        # spectra, the table's synthesis spectrum holding k where irfft
        # takes (nlon / 2) k, and nlon k for the constant
        plan = basis.build_plan(basis.sphere(), lmax)
        core, nlon = plan.core, plan.grid_shape[1]
        assert core.lon is not None
        rng = np.random.default_rng(lmax)
        c = rng.standard_normal((3, plan.n_modes))
        g = rng.standard_normal((3, 2) + plan.grid_shape)
        ws = core.workspace(3)
        scale = np.full(lmax + 1, 0.5 * nlon)
        scale[0] = nlon

        def close(got, want):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

        # each stage against numpy on the spectrum the transform left behind
        zeta, grad = basis.flow_synthesis(plan, c)
        want = np.fft.irfft(ws.spec * scale, n=nlon)
        close(zeta, want[:, 0])
        close(grad, want[:, 1:])
        basis.flow_analysis(plan, g)
        close(ws.spec_a, np.fft.rfft(g)[..., : lmax + 1])
        # and whole transforms against a plan of the same truncation on np.fft
        monkeypatch.setattr(legendre, "LON_MATMUL_MAX", 0)
        fft = basis.build_plan(basis.sphere(), lmax)
        assert fft.core.lon is None
        close(basis.synthesize(plan, c), basis.synthesize(fft, c))
        for got, want in zip(basis.flow_synthesis(plan, c), basis.flow_synthesis(fft, c)):
            close(got, want)
        close(basis.flow_analysis(plan, g)[0], basis.flow_analysis(fft, g)[0])

    def test_sphere_legendre_tables_stay_small(self):
        # the paired table of P dominates a sphere plan's memory (2.0 MB at
        # L=85; stacking -lam P and dP/dtheta beside it took 5.9 MB, one
        # block per order 11.5 MB); a second copy or block would show in
        # peak RSS
        core = basis.build_plan(basis.sphere(), 85).core
        owned = [a for a in vars(core).values() if isinstance(a, np.ndarray) and a.base is None]
        assert sum(a.nbytes for a in owned) <= 3e6

    @pytest.mark.parametrize("lmax", [1, 2, 3, 20, 21, 85])
    def test_sphere_table_pairs_orders_with_at_most_one_padding_row(self, lmax):
        plan = basis.build_plan(basis.sphere(), lmax)
        core = plan.core
        n, m = legendre.paired_degrees(lmax)
        assert core.table.shape[:3] == n.shape == (2, (lmax + 2) // 2, n.shape[2])
        kept = n <= lmax + 1
        # every (n, m >= 0) of degree up to lmax + 1 and order up to lmax in
        # exactly one row, at the parity of n - m
        rows = sorted(zip(n[kept].tolist(), m[kept].tolist()))
        assert rows == [(d, o) for d in range(lmax + 2) for o in range(min(d, lmax) + 1)]
        assert np.all((n - m)[kept] % 2 == np.nonzero(kept)[0] % 2)
        # row r of parity 1 holds degree n + 1 of the order of row r of parity 0
        both = kept[1]
        assert np.all(n[1][both] == n[0][both] + 1) and np.all(m[1][both] == m[0][both])
        # padding rows are zero, and no block holds more than one
        assert not np.any(core.table[~kept]) and np.all(np.any(core.table[kept], axis=-1))
        assert (~kept).sum(axis=-1).max() <= 1
        # each slot of each field appears exactly once in a gather; the
        # other entries read the zero after the b fields' n_modes slots
        for b in (1, 3):
            idx, zero = plan.core.workspace(b).gather.ravel(), b * plan.n_modes
            assert np.all(idx <= zero)
            assert np.all(np.bincount(idx[idx != zero], minlength=zero) == 1)


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

    @pytest.mark.parametrize("rows", [0, 1, 3, 7])
    @pytest.mark.parametrize("kmax", [1, 2, 7, 8, 16])
    def test_torus_rows_match_full_complex_reference(self, kmax, rows):
        # every transform of a stack of rows against the FFT oracle, down to
        # the smallest truncations (grids of 4 and 8 points) and empty stacks
        plan = basis.build_plan(basis.torus(2.9), kmax)
        rng = np.random.default_rng(22 + kmax + rows)
        c = rng.standard_normal((rows, plan.n_modes))
        f = rng.standard_normal((rows,) + plan.grid_shape)
        v = rng.standard_normal((rows, 2) + plan.grid_shape)
        ref = _FullComplexTorus(plan)
        zeta, grad = basis.flow_synthesis(plan, c)
        p, q = basis.flow_analysis(plan, v)
        for got, want in (
            (basis.synthesize(plan, c), ref.synthesize(c)),
            (basis.analyze(plan, f), ref.analyze(f)),
            (zeta, ref.synthesize(-plan.lam * c)),
            (grad, ref.synth_grad(c)),
            (p, -ref.grad_analysis(basis.rot90(v)) / plan.lam),
            (q, np.fft.fft2(v)[..., 0, 0].real / plan.grid_shape[0] ** 2),
        ):
            assert got.shape == want.shape
            if rows:
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
        # dynamics._remainder_u: the vorticity, the gradient and the Leray
        # part against the reference transforms
        for plan in plans():
            rng = np.random.default_rng(21)
            psis = rng.standard_normal((4, plan.n_modes)) / (1.0 + plan.lam)
            hs = rng.standard_normal((4, plan.n_harmonic))
            zeta, grad = basis.flow_synthesis(plan, psis)
            ref = _reference(plan)
            want_zeta = ref.synthesize(-plan.lam * psis)
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
                    buf for buf in vars(plan.core.workspace(3)).values()
                    if isinstance(buf, np.ndarray)
                ]
                for a in first:
                    assert not any(np.shares_memory(a, buf) for buf in buffers), fn.__name__

    def test_plans_of_one_truncation_share_no_buffers(self):
        for make in (lambda: basis.build_plan(basis.sphere(), 9),
                     lambda: basis.build_plan(basis.torus(2 * np.pi), 9)):
            a, b = (vars(make().core.workspace(2)) for _ in range(2))
            for x in a.values():
                for y in b.values():
                    if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
                        assert not np.shares_memory(x, y)

    def test_workspaces_per_plan_are_bounded(self):
        for plan in plans()[:2]:
            first = plan.core.workspace(1)
            assert plan.core.workspace(1) is first
            for rows in range(1, 8):
                basis.synthesize(plan, np.zeros((rows, plan.n_modes)))
            assert len(plan.core._work) == basis.WORKSPACES_PER_PLAN
            # the two most recent batch sizes are kept
            assert sorted(plan.core._work) == [6, 7]

    @pytest.mark.parametrize("kmax", [7, 8])
    def test_torus_interleaved_calls_match_fresh_plans(self, kmax):
        # every kind of transform, at three batch sizes, reuses the buffers
        # the others wrote; interleaved on one plan, each must give what it
        # gives on a plan of its own, bit for bit
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


_CORE_ROW_CASES = [("sphere", 9, b) for b in (1, 7)] + [
    ("torus", k, b) for k in (1, 4, 16, 33) for b in (1, 7)
]


def _core_row_case(kind, trunc, rows, seed=5):
    """A plan of `kind`, and random stacked slot states (psis, hs)."""
    geometry = basis.sphere() if kind == "sphere" else basis.torus(3.7)
    plan = basis.build_plan(geometry, trunc)
    rng = np.random.default_rng(seed + trunc + rows)
    return (
        plan,
        rng.standard_normal((rows, plan.n_modes)) / (1.0 + plan.lam),
        rng.standard_normal((rows, plan.n_harmonic)),
    )


class TestCoreRows:
    """Core rows: the transform core's own coefficients, then the harmonic
    pair; the identity on slot rows on the sphere, M flat on the torus."""

    @pytest.mark.parametrize("kind,trunc,rows", _CORE_ROW_CASES)
    def test_from_rows_inverts_to_rows(self, kind, trunc, rows):
        plan, psis, hs = _core_row_case(kind, trunc, rows)
        core = plan.core
        x = core.to_rows(psis, hs)
        assert x.shape == (rows, core.ncols)
        got_psis, got_hs = core.from_rows(x)
        assert got_hs.tobytes() == hs.tobytes()
        if kind == "sphere":
            assert x.tobytes() == psis.tobytes()
            assert got_psis.tobytes() == psis.tobytes()
        else:
            # the constant entry of M, which no slot reaches, holds exactly 0
            assert np.all(x[:, 0] == 0.0)
            for got, want in zip(got_psis, psis):
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind,trunc,rows", _CORE_ROW_CASES)
    def test_row_scale_weighs_rows_as_slots(self, kind, trunc, rows):
        # per column: lam of the slots the column holds, and the scale that
        # turns products of rows into those of slots; the Gram-Schmidt
        # weights reproduce the weighted slot inner product
        plan, psis, hs = _core_row_case(kind, trunc, rows)
        core, alpha = plan.core, 0.7
        x = core.to_rows(psis, hs)
        wv = plan.lam * (1.0 + alpha**2 * plan.lam)
        want = (wv * psis) @ psis.T + plan.area * hs @ hs.T
        got = (lyapunov._weight_vector(plan, alpha) * x) @ x.T
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        n = core.ncols - plan.n_harmonic
        want_l2 = psis @ psis.T
        got_l2 = (core.row_scale[:n] * x[:, :n]) @ x[:, :n].T
        assert np.max(np.abs(got_l2 - want_l2)) <= 1e-14 * np.max(np.abs(want_l2))
        if kind == "sphere":
            assert core.row_lam is plan.lam
            assert np.all(core.row_scale == 1.0)
        else:
            # lam and the scale vanish on the constant entry, and the pair
            # has lam 0 and scale 1; every slot's entries carry its lam
            assert core.row_lam[0] == core.row_scale[0] == 0.0
            assert np.all(core.row_lam[-2:] == 0.0) and np.all(core.row_scale[-2:] == 1.0)
            on = core.ana_w != 0.0
            assert np.array_equal(
                core.row_lam[core.slot_entry][on], np.broadcast_to(plan.lam, on.shape)[on]
            )

    @pytest.mark.parametrize("trunc,rows", [(k, b) for k in (1, 4, 16, 33) for b in (1, 7)])
    def test_torus_analysis_weight_is_pack_of_unpack(self, trunc, rows):
        # the slot analyses take the two entries of M of each slot, times
        # ana_w (scalar) or ana_w / lam (flow), and add; to_rows of those
        # slots is M times one weight per entry
        plan, _, _ = _core_row_case("torus", trunc, rows)
        core = plan.core
        m = np.random.default_rng(trunc).standard_normal((rows, core.ncols - 2))
        pair = np.zeros((rows, 2))
        cases = ((core.ana_w, core.row_ana_w), (core.ana_w / plan.lam, core.row_flow_w))
        for weight, row_w in cases:
            v = m[:, core.slot_entry] * weight
            want = core.to_rows(v[:, 0] + v[:, 1], pair)[:, :-2]
            got = m * row_w[:-2]
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # the pair's flow weight turns the sums of g into its means
        assert core.row_flow_w[0] == 0.0 and np.all(core.row_flow_w[-2:] == core.mean_w)
        assert core.row_ana_w[0] == 0.0 and np.all(core.row_ana_w[-2:] == 0.0)

    @pytest.mark.parametrize("kind,trunc", [("sphere", 9), ("torus", 4), ("torus", 16)])
    def test_row_transforms_match_the_slot_transforms(self, kind, trunc):
        plan, psis, hs = _core_row_case(kind, trunc, 3)
        core = plan.core
        x = core.to_rows(psis, hs)
        ws = core.workspace(len(x))
        zeta, grad = basis.flow_synthesis(plan, psis)
        grids = core.row_synthesis(x, ws)
        scale = np.max(np.abs(grids))
        assert np.max(np.abs(grids[:, 0] - zeta)) <= 1e-14 * scale
        # the row gradients carry the pair: grad psi - n x h, n x h = (-h1, h0)
        pair = np.stack((hs[:, 1], -hs[:, 0]), axis=1) if plan.n_harmonic else np.zeros((3, 2))
        assert np.max(np.abs(grids[:, 1:] - pair[..., None, None] - grad)) <= 1e-14 * scale
        p, q = basis.flow_analysis(plan, grad)
        got_p, got_q = core.from_rows(core.row_analysis(grad, ws))
        assert np.max(np.abs(got_p - p)) <= 1e-13 * np.max(np.abs(p))
        assert np.array_equal(got_q, q)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_torus_row_transforms_allocate_no_temporary(self, rows):
        plan, psis, hs = _core_row_case("torus", 16, rows)
        core, ws = plan.core, plan.core.workspace(rows)
        x = core.to_rows(psis, hs)

        def peak(fn):
            fn()  # BLAS sets itself up at its first call
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                fn()
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        assert peak(lambda: core.row_synthesis(x, ws, ws.grids)) < 1000
        # the slot flow synthesis is to_rows, which allocates its pad
        # (B, n_modes + 1), its link products (B, 2, ncols) and its rows
        # (B, ncols), then a row synthesis into the grids it returns
        to_rows_bytes = 8 * rows * (plan.n_modes + 1 + 3 * core.ncols)
        grid_bytes = 8 * rows * 3 * math.prod(plan.grid_shape)
        assert peak(lambda: basis.flow_synthesis(plan, psis)) < grid_bytes + to_rows_bytes + 1000
        # the analysis returns its rows, and makes nothing else
        g = np.random.default_rng(rows).standard_normal(ws.g.shape)
        assert peak(lambda: core.row_analysis(g, ws)) < x.nbytes + 2000

    @pytest.mark.parametrize("rows", [1, 7])
    def test_torus_slot_transforms_are_row_transforms_between_conversions(self, rows):
        # each public slot transform is to_rows (a zero pair), a transform
        # of core rows, then from_rows, bit for bit; the scalar synthesis is
        # the vorticity grid of the row synthesis of -c / lam
        plan, psis, _ = _core_row_case("torus", 16, rows)
        core, ws = plan.core, plan.core.workspace(rows)
        rng = np.random.default_rng(rows)
        f = rng.standard_normal((rows,) + plan.grid_shape)
        g = rng.standard_normal((rows, 2) + plan.grid_shape)
        want = core.row_synthesis(core.to_rows(-psis / plan.lam, np.zeros((rows, 2))), ws)
        assert basis.synthesize(plan, psis).tobytes() == want[:, 0].tobytes()
        x = core.to_rows(psis, np.zeros((rows, 2)))
        y = np.zeros_like(x)
        y[:, :-2] = np.matmul(core.e_tr, np.matmul(f, core.e)).reshape(rows, -1)
        want = core.from_rows(y * core.row_ana_w)[0]
        assert basis.analyze(plan, f).tobytes() == want.tobytes()
        grids = core.row_synthesis(x, ws)
        zeta, grad = basis.flow_synthesis(plan, psis)
        assert zeta.tobytes() == grids[:, 0].tobytes()
        assert grad.tobytes() == grids[:, 1:].tobytes()
        p, q = basis.flow_analysis(plan, g)
        want_p, want_q = core.from_rows(core.row_analysis(g, ws))
        assert p.tobytes() == want_p.tobytes() and q.tobytes() == want_q.tobytes()

    @pytest.mark.parametrize("trunc,rows", [(42, 1), (43, 9)])
    def test_sphere_rfft_writes_contiguous_spectra(self, monkeypatch, trunc, rows):
        # past the longitude crossover, rfft writes each line of a
        # C-contiguous (B, K, nlat, m) spectrum, where an (m, K, nlat, B) one
        # would make numpy buffer its output; the fold reads the transposed
        # view.  irfft reads the synthesis spectrum of the same layout,
        # zero-padded to nlon // 2 + 1 columns, and writes the grids; the
        # spectrum shares the head of g, so the synthesis zeroes the padding
        plan, psis, _ = _core_row_case("sphere", trunc, rows)
        core, ws = plan.core, plan.core.workspace(rows)
        assert core.lon is None
        calls = []

        def spy(fn):
            def call(a, *args, out=None, **kwargs):
                calls.append((fn, a, out, a[..., trunc + 1 :].copy()))
                return fn(a, *args, out=out, **kwargs)
            return call

        rfft, irfft = np.fft.rfft, np.fft.irfft
        monkeypatch.setattr(np.fft, "rfft", spy(rfft))
        monkeypatch.setattr(np.fft, "irfft", spy(irfft))
        rng = np.random.default_rng(trunc)
        core.row_analysis(rng.standard_normal(ws.g.shape), ws)
        ws.g.fill(np.nan)
        core.row_synthesis(psis, ws, ws.grids)
        assert [call[0] for call in calls] == [rfft, irfft]
        out = calls[0][2]
        assert out.shape == ws.spec_a.shape
        assert out.flags.c_contiguous and np.shares_memory(out, ws.spec_a)
        _, spec, out, pad = calls[1]
        nlat, nlon = plan.grid_shape
        assert spec is ws.spec and spec.shape == (rows, 3, nlat, nlon // 2 + 1)
        assert spec.flags.c_contiguous and out is ws.grids
        assert np.shares_memory(spec, ws.g) and np.all(pad == 0.0)
        # the unfold forms its hemispheres in the head of the analysis
        # spectra's buffer
        h = ws.unfold[2]
        assert h.flags.c_contiguous and np.shares_memory(h, ws.spec_a)

    @pytest.mark.parametrize("trunc,rows", [(20, 1), (21, 9)])
    def test_sphere_lon_matmuls_use_contiguous_spectra(self, monkeypatch, trunc, rows):
        # up to the crossover each longitude stage is one matrix product over
        # all lines: an analysis writes the C-contiguous (B, K, nlat, lmax + 1)
        # spectrum, with no padding, and the synthesis reads the one its
        # unfold wrote through the transposed view
        plan, psis, _ = _core_row_case("sphere", trunc, rows)
        core, ws = plan.core, plan.core.workspace(rows)
        calls = []
        matmul = np.matmul

        def spy(a, b, *args, out=None, **kwargs):
            if b is core.lon or b is core.lon_t:
                calls.append((a, b, out))
            return matmul(a, b, *args, out=out, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        rng = np.random.default_rng(trunc)
        core.row_analysis(rng.standard_normal(ws.g.shape), ws)
        core.row_synthesis(psis, ws, ws.grids)
        nlat, nm = plan.grid_shape[0], trunc + 1
        assert ws.spec_a.shape == (rows, 2, nlat, nm) and ws.spec.shape == (rows, 3, nlat, nm)
        assert [b is core.lon_t for _, b, _ in calls] == [True, False]
        out = calls[0][2]
        assert out.flags.c_contiguous and out.size == 2 * ws.spec_a.size
        assert np.shares_memory(out, ws.spec_a)
        a = calls[1][0]
        assert a.flags.c_contiguous and a.size == 2 * ws.spec.size
        assert ws.spec.flags.c_contiguous and np.shares_memory(a, ws.spec)
        assert np.shares_memory(ws.spec, ws.g)
        assert np.shares_memory(calls[1][2], ws.grids)
        # the unfold forms its hemispheres in the head of the analysis
        # spectra's buffer, as on the FFT side
        h = ws.unfold[2]
        assert h.flags.c_contiguous and np.shares_memory(h, ws.spec_a)

    @pytest.mark.parametrize("trunc", [21, 85])
    def test_sphere_scalar_analysis_builds_no_workspace(self, trunc):
        # the scalar analysis is off the stepping path and works in arrays
        # of its own, so it neither builds nor reads a workspace
        plan = basis.build_plan(basis.sphere(), trunc)
        f = np.random.default_rng(trunc).standard_normal((3,) + plan.grid_shape)
        basis.analyze(plan, f)
        assert len(plan.core._work) == 0

    @pytest.mark.parametrize("trunc,rows", [(21, 9), (85, 1)])
    def test_sphere_gather_makes_no_temporary(self, trunc, rows):
        # the gather scales the rows by the workspace's scale, repeated over
        # them: the core's (n_modes,) scale broadcast over the rows made
        # numpy buffer it, 35.9 KB at L=21 x 9 rows on every synthesis
        plan, psis, _ = _core_row_case("sphere", trunc, rows)
        core, ws = plan.core, plan.core.workspace(rows)
        core._gather(ws, psis)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            core._gather(ws, psis)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1000
        # one row takes the core's scale itself, so its workspace holds no copy
        assert (rows == 1) == np.shares_memory(ws.pad_scale, core.pad_scale)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_torus_row_synthesis_of_a_pair_alone(self, rows):
        # M = 0: the vorticity is 0 and the gradient grids are the constants
        # -(n x h) = (h1, -h0), exactly
        plan, _, hs = _core_row_case("torus", 5, rows)
        core = plan.core
        x = core.to_rows(np.zeros((rows, plan.n_modes)), hs)
        grids = core.row_synthesis(x, core.workspace(rows))
        assert np.all(grids[:, 0] == 0.0)
        assert np.all(grids[:, 1] == hs[:, 1, None, None])
        assert np.all(grids[:, 2] == -hs[:, 0, None, None])

    def test_constant_entry_stays_zero_through_a_run(self):
        from bardina2d import dynamics as dyn, integrate

        plan, psis, hs = _core_row_case("torus", 8, 3)
        rng = np.random.default_rng(2)
        forcing = dyn.Forcing(rng.standard_normal(plan.n_modes) / plan.lam, np.array([0.2, -0.1]))
        params = dyn.ModelParams(nu=0.05, alpha=0.5, sigma=0.3, forcing=forcing)
        scheme = integrate.SchemeConfig(dt=0.01, t_end=0.5, stride=5)
        loop = integrate._run_loop(
            plan.core.to_rows(psis, hs),
            dyn.remainder(plan, params),
            integrate.decay_factors(plan, params.nu, scheme.dt),
            scheme,
            (0, 50),
        )
        seen = 0
        for _, x, first in loop:
            assert np.all(x[:, 0] == 0.0) and np.all(first()[:, 0] == 0.0)
            seen += 1
        assert seen == 11


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
        theta, phi = np.arccos(plan.core.mu), plan.core.phi
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
        theta = np.arccos(plan.core.mu)
        c = np.zeros(plan.n_modes)
        c[basis.mode_slot(plan, (1, 0))] = 1.0
        grad = basis.flow_synthesis(plan, c)[1]
        expect = -np.sqrt(3.0 / (4.0 * np.pi)) * np.sin(theta)
        assert np.max(np.abs(grad[0] - expect[:, None])) <= 1e-13
        assert np.max(np.abs(grad[1])) <= 1e-13

    def test_torus_mode_placement(self):
        L = 2 * np.pi
        plan = basis.build_plan(basis.torus(L), 6)
        x = L * np.arange(plan.grid_shape[0]) / plan.grid_shape[0]
        c = np.zeros(plan.n_modes)
        c[basis.mode_slot(plan, (1, 0))] = 1.0
        f = basis.synthesize(plan, c)
        assert np.max(np.abs(f - np.sqrt(2.0) / L * np.cos(x)[:, None])) <= 1e-13
        c[:] = 0.0
        c[basis.mode_slot(plan, (-1, 0))] = 1.0
        f = basis.synthesize(plan, c)
        assert np.max(np.abs(f - np.sqrt(2.0) / L * np.sin(x)[:, None])) <= 1e-13


class TestDealias:
    def test_quadratic_products_of_dealiased_fields_analyze_exactly(self):
        # the product of two retained fields analyzes alias-free on the band
        plan = basis.build_plan(basis.torus(2.0), 9)
        rng = np.random.default_rng(18)
        a = rng.standard_normal(plan.n_modes)
        b = rng.standard_normal(plan.n_modes)
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
