"""Real spectral bases for scalar fields on the unit 2-sphere and flat square 2-torus.

Both geometries expose the same plan interface: a flat array of real
coefficients against an orthonormal eigenbasis of -Laplacian, sorted by
ascending eigenvalue with deterministic tie-breaking, plus grid transforms
sized so that quadratic products of band-limited fields are analyzed without
aliasing and triple products are integrated exactly by the quadrature.

Sphere
    Real spherical harmonics (Condon-Shortley phase), degrees 1..truncation,
    eigenvalue n(n+1).  Mode (n, m): m >= 0 selects the cos(m phi) member,
    m < 0 the sin(|m| phi) member.  Slot order is (n, m) lexicographic.
    Gauss-Legendre latitudes, equispaced longitudes.  The Legendre stage is
    m-blocked as in SHTns (Schaeffer 2013, G-Cubed 14): the recurrence fills
    tables of P and dP/dtheta of shape (truncation + 1, truncation, nlat),
    zero-padded below degree max(m, 1), so every transform is one matmul
    batched over m, with the cos and sin rows of all fields stacked, plus a
    real FFT in longitude.  The phi-derivative factor m / sin(theta) is
    applied per latitude instead of being tabulated.

Torus
    Fourier modes exp(2*pi*i k.x / L) on [0, L]^2 with max(|k1|, |k2|) <=
    truncation, eigenvalue (2 pi / L)^2 |k|^2.  Uniform N x N grid with N
    the smallest fast even length >= 3*truncation + 1, the sphere's nlon rule
    (the 3/2 rule, Orszag 1971, J. Atmos. Sci. 28): products of two retained
    fields analyze onto every retained mode without aliasing, so all modes
    are active and no band mask is needed.  Coefficients pack straight into
    the half spectrum of a real 2-d FFT, one rfft2 or irfft2 call per
    transform.  Each nonzero lattice vector q labels one real basis
    function: cos for q in the right half-plane (q1 > 0, or q1 == 0 and
    q2 > 0), sin(2 pi k.x/L) with k = -q otherwise.  Slot order is
    (|q|^2, q1, q2) lexicographic.

The fused flow transforms take a streamfunction to its vorticity and
gradient grids and a tangent grid field to its Leray streamfunction and
harmonic pair; on the torus each is one FFT call over the stacked fields.

All transforms broadcast over leading axes: coefficients have shape
(..., n_modes), grid fields (..., nlat, nlon), tangent vector fields
(..., 2, nlat, nlon) with component 0 pointing along theta-hat (sphere,
towards increasing colatitude) or x (torus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_legendre

from .errors import IndexRangeError, ShapeError, UnsupportedGeometryError

SPHERE = "sphere"
TORUS = "torus"


@dataclass(frozen=True)
class Geometry:
    """Manifold selector.  `length` is the torus period, unused on the sphere."""

    kind: str
    length: float = 0.0

    def __post_init__(self):
        if self.kind not in (SPHERE, TORUS):
            raise UnsupportedGeometryError(f"unknown geometry kind {self.kind!r}")
        if self.kind == TORUS and not self.length > 0.0:
            raise UnsupportedGeometryError("torus geometry requires length > 0")

    @property
    def area(self):
        if self.kind == SPHERE:
            return 4.0 * math.pi
        return self.length**2


def sphere():
    return Geometry(SPHERE)


def torus(length):
    return Geometry(TORUS, float(length))


def rot90(vec):
    """Pointwise n x (.) rotation of a tangent grid field: (a, b) -> (-b, a)."""
    return np.stack((-vec[..., 1, :, :], vec[..., 0, :, :]), axis=-3)


# ---------------------------------------------------------------------------
# sphere transform core


class _SphereCore:
    """Latitude tables and FFT bookkeeping for one sphere truncation.

    The Legendre tables are m-blocked and zero-padded: P[m, n - 1] holds the
    orthonormal P_n^m at every Gauss latitude and dP[m, n - 1] its theta
    derivative, with zero rows where n < max(m, 1).  slots[m, 0, n - 1] is
    the flat slot of the cos member (n, m) and slots[m, 1, n - 1] that of the
    sin member; entries with no mode point at slot n_modes, a zero appended
    to every coefficient row.  A transform is one gather into rows of shape
    (lmax + 1, 2B, lmax) for B stacked fields, one matmul batched over m,
    and one real FFT in longitude.  The longitude derivative needs
    m P / sin(theta); rather than a third table, the gradient transforms
    multiply by m / sin(theta) after the matmul (synthesis) or before it
    (analysis).
    """

    def __init__(self, lmax):
        self.lmax = lmax
        self.nlat = (3 * lmax + 2 + 1) // 2  # ceil((3L+2)/2)
        self.nlon = _fast_even(3 * lmax + 1)
        mu, w = roots_legendre(self.nlat)
        self.mu = mu
        self.wlat = w
        self.sin_t = np.sqrt(1.0 - mu**2)
        self.phi = 2.0 * np.pi * np.arange(self.nlon) / self.nlon
        # cell weight for the longitude direction
        self.dphi = 2.0 * np.pi / self.nlon

        nm = lmax + 1
        self.P = np.zeros((nm, lmax, self.nlat))
        self.dP = np.zeros((nm, lmax, self.nlat))
        for m in range(nm):
            p, dp = _legendre_tables(lmax, m, mu, self.sin_t)
            n_start = max(m, 1)
            self.P[m, n_start - 1 :] = p[n_start - m :]
            self.dP[m, n_start - 1 :] = dp[n_start - m :]

        # flat slot layout: slot(n, m) = n^2 + n + m - 1
        self.n_modes, _ = mode_count(SPHERE, lmax)
        deg = np.repeat(np.arange(1, lmax + 1), 2 * np.arange(1, lmax + 1) + 1)
        order = np.arange(self.n_modes) + 1 - deg * deg - deg
        self.lam = (deg * (deg + 1)).astype(np.float64)

        ns = np.arange(1, lmax + 1)[None, :]
        ms = np.arange(nm)[:, None]
        cos_slots = np.where(ns >= ms, ns * ns + ns + ms - 1, self.n_modes)
        sin_slots = np.where((ns >= ms) & (ms > 0), ns * ns + ns - ms - 1, self.n_modes)
        self.slots = np.stack((cos_slots, sin_slots), axis=1)
        # where each slot sits in an (m, cos|sin, n - 1) block
        self.slot_m = np.abs(order)
        self.slot_sc = (order < 0).astype(np.int64)
        self.slot_n = deg - 1

        k = np.full(nm, 1.0 / math.sqrt(math.pi))
        k[0] = 1.0 / math.sqrt(2.0 * math.pi)
        # spectrum weight of k cos(m phi) is (nlon / 2) k, of the constant nlon k
        ks = 0.5 * self.nlon * k
        ks[0] *= 2.0
        m_over_sin = ms / self.sin_t[None, :]
        self.synth_w = ks[:, None, None]
        # d/dphi brings i m, the metric 1 / sin(theta)
        self.synth_w_phi = (1j * ks[:, None] * m_over_sin)[:, None, :]
        # quadrature weight per (latitude, m), normalization folded in
        self.ana_w = self.wlat[:, None] * (self.dphi * k)[None, :]
        # -i m / sin(theta) turns rows (Re, -Im) of the phi spectrum into (Im, Re)
        self.ana_w_phi = -1j * self.ana_w * m_over_sin.T
        self.qw = np.repeat((self.wlat * self.dphi)[:, None], self.nlon, axis=1)

    # -- m-blocked Legendre stage ---------------------------------------

    def _gather(self, coeffs):
        """(B, n_modes) -> (lmax + 1, 2B, lmax): rows (field, cos|sin) per m."""
        b = coeffs.shape[0]
        pad = np.zeros((b, self.n_modes + 1))
        pad[:, :-1] = coeffs
        rows = pad[np.arange(b)[:, None, None], self.slots[:, None]]
        return rows.reshape(self.lmax + 1, 2 * b, self.lmax)

    def _scatter(self, blocks, b):
        """(lmax + 1, 2B, lmax) -> (B, n_modes): inverse of `_gather`."""
        blocks = blocks.reshape(self.lmax + 1, b, 2, self.lmax).transpose(1, 0, 2, 3)
        return blocks[:, self.slot_m, self.slot_sc, self.slot_n]

    def _to_spectrum(self, ab, weight, spec):
        """Legendre sums (lmax + 1, 2B, nlat) into columns m of spec (B, nlat, nfreq)."""
        nm = self.lmax + 1
        ab = ab.reshape(nm, -1, 2, self.nlat)
        spec[..., :nm] = (weight * (ab[:, :, 0] - 1j * ab[:, :, 1])).transpose(1, 2, 0)

    def _from_spectrum(self, g, weight):
        """Weighted columns m of g (B, nlat, nfreq) as rows (Re, -Im): (lmax + 1, 2B, nlat)."""
        gm = (g[..., : self.lmax + 1] * weight).transpose(2, 0, 1)
        rows = np.stack((gm.real, -gm.imag), axis=2)
        return rows.reshape(self.lmax + 1, -1, self.nlat)

    def _empty_spec(self, b, *mid):
        return np.zeros((b, *mid, self.nlat, self.nlon // 2 + 1), dtype=np.complex128)

    # -- scalar --------------------------------------------------------

    def synthesize(self, coeffs):
        lead = coeffs.shape[:-1]
        c = self._gather(coeffs.reshape(-1, self.n_modes))
        spec = self._empty_spec(c.shape[1] // 2)
        self._to_spectrum(c @ self.P, self.synth_w, spec)
        out = np.fft.irfft(spec, n=self.nlon, axis=-1)
        return out.reshape(lead + out.shape[-2:])

    def analyze(self, f):
        lead = f.shape[:-2]
        g = np.fft.rfft(f.reshape((-1,) + f.shape[-2:]), axis=-1)
        rows = self._from_spectrum(g, self.ana_w)
        out = self._scatter(rows @ self.P.transpose(0, 2, 1), g.shape[0])
        return out.reshape(lead + (self.n_modes,))

    # -- gradient ------------------------------------------------------

    def synth_grad(self, coeffs):
        lead = coeffs.shape[:-1]
        c = self._gather(coeffs.reshape(-1, self.n_modes))
        spec = self._empty_spec(c.shape[1] // 2, 2)
        self._to_spectrum(c @ self.dP, self.synth_w, spec[:, 0])
        self._to_spectrum(c @ self.P, self.synth_w_phi, spec[:, 1])
        out = np.fft.irfft(spec, n=self.nlon, axis=-1)
        return out.reshape(lead + out.shape[-3:])

    def flow_synthesis(self, psi):
        return self.synthesize(-self.lam * psi), self.synth_grad(psi)

    def flow_analysis(self, g):
        return -self.grad_analysis(rot90(g)) / self.lam, np.zeros(g.shape[:-3] + (0,))

    def grad_analysis(self, vec):
        lead = vec.shape[:-3]
        g = np.fft.rfft(vec.reshape((-1,) + vec.shape[-3:]), axis=-1)
        rows_t = self._from_spectrum(g[:, 0], self.ana_w)
        rows_p = self._from_spectrum(g[:, 1], self.ana_w_phi)
        blocks = rows_t @ self.dP.transpose(0, 2, 1) + rows_p @ self.P.transpose(0, 2, 1)
        out = self._scatter(blocks, g.shape[0])
        return out.reshape(lead + (self.n_modes,))


def _legendre_tables(lmax, m, mu, sin_t):
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


def _fast_even(n):
    """Smallest even grid length >= n with no prime factor above 7."""
    n = n + (n % 2)
    while True:
        k = n
        for f in (2, 3, 5, 7):
            while k % f == 0:
                k //= f
        if k == 1:
            return n
        n += 2


# ---------------------------------------------------------------------------
# torus transform core


class _TorusCore:
    """Half-spectrum FFT bookkeeping for one torus truncation.

    Coefficients pack straight into the (N, N // 2 + 1) spectrum of numpy's
    real 2-d FFT.  The wavevector k of each cos/sin pair (k in the right
    half-plane) sits at bin (k1 mod N, k2) when k2 >= 0 and, conjugated, at
    (-k1 mod N, -k2) when k2 < 0; the k2 = 0 column holds both +k1 and its
    conjugate at -k1, since irfft2 treats that column as a full complex
    one.  Every transform, the fused flow transforms included, is one rfft2
    or irfft2 call over all stacked fields; packing and unpacking are one
    scatter or gather on the spectrum viewed as interleaved (re, im), with
    the sign of the imaginary part flipped for conjugated bins.
    """

    def __init__(self, kmax, length):
        self.kmax = kmax
        self.length = length
        n = self.ngrid
        nh = n // 2 + 1
        self.shape = (n, n)
        self.spec_shape = (n, nh)

        qs = []
        for q1 in range(-kmax, kmax + 1):
            for q2 in range(-kmax, kmax + 1):
                if q1 == 0 and q2 == 0:
                    continue
                qs.append((q1 * q1 + q2 * q2, q1, q2))
        qs.sort()
        self.qvec = np.array([(q1, q2) for _, q1, q2 in qs], dtype=np.int64)
        self.n_modes, _ = mode_count(TORUS, kmax)
        self.lam = (2.0 * np.pi / length) ** 2 * (
            self.qvec[:, 0] ** 2 + self.qvec[:, 1] ** 2
        ).astype(np.float64)
        self.slot_of = {(int(q1), int(q2)): s for s, (q1, q2) in enumerate(self.qvec)}

        q1, q2 = self.qvec[:, 0], self.qvec[:, 1]
        is_cos = (q1 > 0) | ((q1 == 0) & (q2 > 0))
        # wavevector k of each slot's cos/sin pair, its bin, and -1 where the
        # bin holds the conjugate
        k1, k2 = np.where(is_cos, q1, -q1), np.where(is_cos, q2, -q2)
        flip = k2 < 0
        sgn = np.where(flip, -1.0, 1.0)
        pos = (np.where(flip, -k1, k1) % n) * nh + np.abs(k2)
        re, im = 2 * pos, 2 * pos + 1

        amp = math.sqrt(2.0) / length
        # a amp cos(2 pi k.x / L) + b amp sin(...) has bin value (N^2 amp / 2)(a - i b)
        a = 0.5 * n * n * amp
        mirror = np.nonzero(is_cos & (k2 == 0))[0]
        mirror_pos = (-k1[mirror] % n) * nh
        sin_of = np.array([self.slot_of[(-int(x), -int(y))] for x, y in self.qvec[mirror]])
        self.pack_dst = np.concatenate(
            (np.where(is_cos, re, im), 2 * mirror_pos, 2 * mirror_pos + 1)
        )
        self.pack_src = np.concatenate((np.arange(self.n_modes), mirror, sin_of))
        self.pack_scale = np.concatenate(
            (np.where(is_cos, a, -sgn * a), np.full(mirror.size, a), np.full(mirror.size, a))
        )
        # quadrature weight times the normalization, per slot
        c = amp * length**2 / (n * n)
        self.ana_idx = np.where(is_cos, re, im)
        self.ana_scale = np.where(is_cos, c, -sgn * c)
        # gradient adjoint: the cos slot reads Im, the sin slot Re of w.Z
        self.grad_idx = np.where(is_cos, im, re)
        self.grad_scale = np.where(is_cos, c, sgn * c)
        self.split_scale = -self.grad_scale / self.lam

        w = 2.0 * np.pi / length
        self.w1 = (w * np.fft.fftfreq(n, d=1.0 / n))[:, None]
        self.w2 = (w * np.arange(nh))[None, :]
        self.grad_mul = np.stack(np.broadcast_arrays(1j * self.w1, 1j * self.w2))
        # spectral multipliers of (vorticity, d/dx, d/dy) of a streamfunction
        self.flow_mul = np.concatenate((-(self.w1**2 + self.w2**2)[None], self.grad_mul))
        self.qw = np.full((n, n), (length / n) ** 2)

    @property
    def ngrid(self):
        return _fast_even(3 * self.kmax + 1)

    def _spectrum(self, coeffs):
        lead = coeffs.shape[:-1]
        spec = np.zeros(lead + (2 * math.prod(self.spec_shape),))
        spec[..., self.pack_dst] = coeffs[..., self.pack_src] * self.pack_scale
        return spec.view(np.complex128).reshape(lead + self.spec_shape)

    def _irfft2(self, spec):
        return np.fft.irfft2(spec, s=self.shape)

    @staticmethod
    def _unpack(spec, idx, scale):
        flat = spec.reshape(spec.shape[:-2] + (-1,)).view(np.float64)
        return flat[..., idx] * scale

    def synthesize(self, coeffs):
        return self._irfft2(self._spectrum(coeffs))

    def analyze(self, f):
        return self._unpack(np.fft.rfft2(f), self.ana_idx, self.ana_scale)

    def synth_grad(self, coeffs):
        return self._irfft2(self._spectrum(coeffs)[..., None, :, :] * self.grad_mul)

    def _unpack_grad(self, z, scale):
        zdot = self.w1 * z[..., 0, :, :] + self.w2 * z[..., 1, :, :]
        return self._unpack(zdot, self.grad_idx, scale)

    def grad_analysis(self, vec):
        return self._unpack_grad(np.fft.rfft2(vec), self.grad_scale)

    def flow_synthesis(self, psi):
        grids = self._irfft2(self._spectrum(psi)[..., None, :, :] * self.flow_mul)
        return grids[..., 0, :, :], grids[..., 1:, :, :]

    def flow_analysis(self, g):
        # the pointwise rotation commutes with the FFT; the area mean is the DC bin
        z = np.fft.rfft2(g)
        mean = z[..., 0, 0].real / math.prod(self.shape)
        return self._unpack_grad(rot90(z), self.split_scale), mean


# ---------------------------------------------------------------------------
# public plan


@dataclass(frozen=True, eq=False)
class BasisPlan:
    """Precomputed transform tables for one geometry and truncation."""

    geometry: Geometry
    truncation: int
    lam: np.ndarray
    n_modes: int
    n_harmonic: int
    area: float
    core: object = field(repr=False)

    @property
    def lambda_1(self):
        return float(self.lam[0])

    @property
    def grid_shape(self):
        if self.geometry.kind == SPHERE:
            return (self.core.nlat, self.core.nlon)
        return (self.core.ngrid, self.core.ngrid)


def build_plan(geometry, truncation):
    """Build the transform plan for `geometry` at the given truncation."""
    if truncation < 1:
        raise IndexRangeError(f"truncation must be >= 1, got {truncation}")
    if geometry.kind == SPHERE:
        core = _SphereCore(truncation)
    else:
        core = _TorusCore(truncation, geometry.length)
    return BasisPlan(
        geometry=geometry,
        truncation=truncation,
        lam=core.lam,
        n_modes=core.n_modes,
        n_harmonic=mode_count(geometry.kind, truncation)[1],
        area=geometry.area,
        core=core,
    )


def mode_count(kind, truncation):
    """(retained modes, harmonic components) of a truncation.

    Sphere: degrees 1..L, 2n + 1 orders each.  Torus: every k with
    max |k_i| <= K except k = 0, plus the constant pair.
    """
    if kind == SPHERE:
        return truncation * (truncation + 2), 0
    return (2 * truncation + 1) ** 2 - 1, 2


def check_mode_index(kind, truncation, index):
    """The index pair (n, m) or (k1, k2) as ints; IndexRangeError if outside the truncation."""
    a, b = (int(part) for part in index)
    if kind == SPHERE:
        if not (1 <= a <= truncation and -a <= b <= a):
            raise IndexRangeError(f"mode (n={a}, m={b}) outside truncation {truncation}")
    elif (a, b) == (0, 0) or max(abs(a), abs(b)) > truncation:
        raise IndexRangeError(f"mode k=({a}, {b}) outside truncation {truncation}")
    return a, b


def mode_slot(plan, index):
    """Flat slot of a spectral index: (n, m) on the sphere, (k1, k2) on the torus."""
    a, b = check_mode_index(plan.geometry.kind, plan.truncation, index)
    if plan.geometry.kind == SPHERE:
        return a * a + a + b - 1
    return plan.core.slot_of[(a, b)]


def slot_map(plan, larger):
    """Slot in `larger` (same geometry, higher truncation) of each slot of `plan`."""
    if plan.geometry.kind == SPHERE:
        return np.arange(plan.n_modes)  # slot(n, m) does not depend on the truncation
    return np.array([larger.core.slot_of[(int(a), int(b))] for a, b in plan.core.qvec])


def eigenvalue(plan, index):
    """Laplacian eigenvalue of one mode index."""
    return float(plan.lam[mode_slot(plan, index)])


def _check_coeffs(plan, coeffs):
    if coeffs.shape[-1] != plan.n_modes:
        raise ShapeError(
            f"coefficient array has {coeffs.shape[-1]} modes, plan has {plan.n_modes}"
        )


def _check_field(plan, f, vec=False):
    want = plan.grid_shape
    got = f.shape[-2:]
    if got != want or (vec and (f.ndim < 3 or f.shape[-3] != 2)):
        raise ShapeError(f"grid field shape {f.shape} does not match plan grid {want}")


def synthesize(plan, coeffs):
    """Evaluate a coefficient array on the plan grid."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    _check_coeffs(plan, coeffs)
    return plan.core.synthesize(coeffs)


def analyze(plan, f):
    """Project a grid field onto the basis by quadrature."""
    f = np.asarray(f, dtype=np.float64)
    _check_field(plan, f)
    return plan.core.analyze(f)


def surface_gradient(plan, coeffs):
    """Tangent gradient of a scalar on the grid, components (theta, phi) or (x, y)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    _check_coeffs(plan, coeffs)
    return plan.core.synth_grad(coeffs)


def gradient_analysis(plan, vec):
    """Adjoint of `surface_gradient`: slot s of the result is <vec, grad basis_s>."""
    vec = np.asarray(vec, dtype=np.float64)
    _check_field(plan, vec, vec=True)
    return plan.core.grad_analysis(vec)


def flow_synthesis(plan, psi):
    """Vorticity and gradient grids of streamfunction coefficients.

    Equals (synthesize(plan, -lam * psi), surface_gradient(plan, psi)); on
    the torus both come from one inverse FFT over the stacked fields.
    """
    psi = np.asarray(psi, dtype=np.float64)
    _check_coeffs(plan, psi)
    return plan.core.flow_synthesis(psi)


def flow_analysis(plan, g):
    """Leray streamfunction coefficients and harmonic pair of a tangent grid field.

    Equals (-gradient_analysis(plan, rot90(g)) / lam, the area mean of each
    component of g), the pair empty on the sphere; on the torus both come
    from one forward FFT over the stacked fields.
    """
    g = np.asarray(g, dtype=np.float64)
    _check_field(plan, g, vec=True)
    return plan.core.flow_analysis(g)


def dealias(plan, coeffs):
    """A copy of `coeffs`: the grids alone keep every retained mode alias-free.

    Kept only because the acceptance tests call it.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    _check_coeffs(plan, coeffs)
    return coeffs.copy()


def integrate(plan, f):
    """Surface integral of a grid field by the plan quadrature."""
    f = np.asarray(f, dtype=np.float64)
    _check_field(plan, f)
    out = np.einsum("...jk,jk->...", f, plan.core.qw)
    return float(out) if out.ndim == 0 else out


def grid_points(plan):
    """Coordinate arrays of the plan grid.

    Sphere: (theta, phi) colatitude/longitude 1-d arrays.  Torus: (x, y).
    """
    if plan.geometry.kind == SPHERE:
        return np.arccos(plan.core.mu), plan.core.phi.copy()
    n = plan.core.ngrid
    x = plan.geometry.length * np.arange(n) / n
    return x, x.copy()
