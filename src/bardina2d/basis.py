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
    the half spectrum of a real 2-d FFT, one per transform: rfft2 forward,
    and inverse its two axis passes, ifft then irfft, since np.fft.irfft2
    allocates the first pass and ignores `out`.  Each nonzero lattice vector q labels one real basis
    function: cos for q in the right half-plane (q1 > 0, or q1 == 0 and
    q2 > 0), sin(2 pi k.x/L) with k = -q otherwise.  Slot order is
    (|q|^2, q1, q2) lexicographic.

Each geometry implements four transforms.  `synthesize` and `analyze` take
scalar coefficients to grid values and back by quadrature.  The flow pair
carries the nonlinearity: `flow_synthesis` takes a streamfunction psi to the
grids of its vorticity -lam psi and its gradient, and `flow_analysis` takes
a tangent grid field g to its Leray streamfunction, slot s being
<g, n x grad Y_s> / lam_s (the component of g along the unit-energy velocity
of mode s), and its harmonic pair; each is one FFT over the stacked fields.

All transforms broadcast over leading axes: coefficients have shape
(..., n_modes), grid fields (..., nlat, nlon), tangent vector fields
(..., 2, nlat, nlon) with component 0 pointing along theta-hat (sphere,
towards increasing colatitude) or x (torus).

Workspaces
    A transform flattens the leading axes into B stacked rows and works in
    buffers the plan builds once for that B: the gathered Legendre rows,
    the Legendre sums and the zero-padded half spectra (sphere), the packed
    and flow spectra (torus), and, for the right-hand side in `dynamics`,
    the vorticity/gradient grid stack and the product field g.  The FFTs
    and matmuls write into them with out=, so stepping a batch allocates no
    large temporaries; freed ones would be trimmed off the heap top and
    faulted back in by the next call.  The rules:

    - one workspace per plan and batch row count; a plan keeps those of
      its WORKSPACES_PER_PLAN most recently used row counts, and two plans
      share nothing;
    - a workspace is not safe to share across threads: use one plan per
      thread;
    - returned arrays are never views of a workspace buffer, except the
      grids `flow_synthesis` writes into an `out` its caller passes;
    - size: 4.4 MB for one row at sphere L=85 and 4.2 MB at torus K=64
      (0.28 MB at L=21 and at K=16), about linear in the row count (41 MB
      for 9 rows at L=85, 29 MB for 7 rows at K=64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_legendre

from .errors import IndexRangeError, ShapeError, UnsupportedGeometryError

SPHERE = "sphere"
TORUS = "torus"

# workspaces a plan keeps, one per recently used batch row count
WORKSPACES_PER_PLAN = 2


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
    m P / sin(theta); rather than a third table, the flow transforms
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

        self.PT = self.P.transpose(0, 2, 1)
        self.dPT = self.dP.transpose(0, 2, 1)
        self.neg_lam = -self.lam
        self._work = {}

    def workspace(self, b):
        return _cached_workspace(self._work, b, lambda: _SphereWork(self, b))

    # -- m-blocked Legendre stage ---------------------------------------

    def _gather(self, ws, k, coeffs, scale=None):
        """(B, n_modes), times scale -> rows (field, cos|sin) per m: (lmax + 1, 2B, lmax)."""
        if scale is None:
            ws.pad[k, :, :-1] = coeffs
        else:
            np.multiply(scale, coeffs, out=ws.pad[k, :, :-1])
        return np.take(ws.pad, ws.gather[k], out=ws.rows[k], mode="clip")

    def _scatter(self, blocks):
        """(lmax + 1, 2B, lmax) -> (B, n_modes): inverse of `_gather`, a new array."""
        b = blocks.shape[1] // 2
        blocks = blocks.reshape(self.lmax + 1, b, 2, self.lmax).transpose(1, 0, 2, 3)
        return blocks[:, self.slot_m, self.slot_sc, self.slot_n]

    def _legendre_sum(self, ws, rows, table, weight, k):
        """rows @ table, weighted into columns m of the half spectrum ws.spec[:, k]."""
        ab = np.matmul(rows, table, out=ws.sums[k]).reshape(self.lmax + 1, -1, 2, self.nlat)
        z = np.multiply(1j, ab[:, :, 1], out=ws.cols_s)
        np.subtract(ab[:, :, 0], z, out=z)
        np.multiply(weight, z, out=z)
        ws.spec[:, k, :, : self.lmax + 1] = z.transpose(1, 2, 0)

    def _rows(self, ws, g, weight):
        """Weighted columns m of g (B, nlat, nfreq) as rows (Re, -Im): (lmax + 1, 2B, nlat).

        The rows are the float view of the conjugated columns, laid out
        (B, nlat, m).  One field goes to the matmul as that strided view,
        which BLAS reads transposed; a contiguous copy would take another
        BLAS path, round differently and change output bits.
        """
        nm, b = self.lmax + 1, len(g)
        cols = np.multiply(g[..., :nm], weight, out=ws.cols_a)
        np.conjugate(cols, out=cols)
        rows = cols.view(np.float64).reshape(b, self.nlat, nm, 2).transpose(2, 0, 3, 1)
        if b == 1:
            return rows.reshape(nm, 2, self.nlat)
        np.copyto(ws.rows_a.reshape(nm, b, 2, self.nlat), rows)
        return ws.rows_a

    def _irfft(self, spec, out=None):
        return np.fft.irfft(spec, n=self.nlon, axis=-1, out=out)

    # -- scalar --------------------------------------------------------

    def synthesize(self, coeffs):
        ws = self.workspace(len(coeffs))
        self._legendre_sum(ws, self._gather(ws, 0, coeffs), self.P, self.synth_w, 0)
        return self._irfft(ws.spec[:, 0])

    def analyze(self, f):
        ws = self.workspace(len(f))
        g = np.fft.rfft(f, axis=-1, out=ws.spec_a[:, 0])
        np.matmul(self._rows(ws, g, self.ana_w), self.PT, out=ws.blocks[0])
        return self._scatter(ws.blocks[0])

    # -- flow ----------------------------------------------------------

    def flow_synthesis(self, psi, out=None):
        ws = self.workspace(len(psi))
        rows = self._gather(ws, 0, psi, self.neg_lam)
        self._legendre_sum(ws, rows, self.P, self.synth_w, 0)
        rows = self._gather(ws, 1, psi)
        self._legendre_sum(ws, rows, self.dP, self.synth_w, 1)
        self._legendre_sum(ws, rows, self.P, self.synth_w_phi, 2)
        return self._irfft(ws.spec, out)

    def flow_analysis(self, g):
        ws = self.workspace(len(g))
        z = np.fft.rfft(g, axis=-1, out=ws.spec_a)
        # gradient adjoint of n x g = (-g_phi, g_theta): negate one spectrum
        # instead of rotating g
        np.negative(z[:, 1], out=z[:, 1])
        np.matmul(self._rows(ws, z[:, 1], self.ana_w), self.dPT, out=ws.blocks[0])
        np.matmul(self._rows(ws, z[:, 0], self.ana_w_phi), self.PT, out=ws.blocks[1])
        p = self._scatter(np.add(ws.blocks[0], ws.blocks[1], out=ws.blocks[0]))
        np.negative(p, out=p)
        p /= self.lam
        return p, np.zeros((len(g), 0))


class _SphereWork:
    """Reused buffers of one sphere plan for B stacked fields.

    pad holds the coefficient rows (-lam psi, psi) with the zero slot
    n_modes appended, and gather the flat take-index of each entry of the
    m-blocked rows.  The half spectra (vorticity, d/dtheta, d/dphi) are
    zeroed once: columns beyond lmax are never written.
    """

    def __init__(self, core, b):
        nm, lmax, nlat, nlon = core.lmax + 1, core.lmax, core.nlat, core.nlon
        nfreq = nlon // 2 + 1
        width = core.n_modes + 1
        self.pad = np.zeros((2, b, width))
        rows = (np.arange(2 * b) * width).reshape(2, 1, b, 1, 1)
        self.gather = (rows + core.slots[None, :, None]).reshape(2, nm, 2 * b, lmax)
        self.rows = np.empty(self.gather.shape)
        self.sums = np.empty((3, nm, 2 * b, nlat))
        self.cols_s = np.empty((nm, b, nlat), dtype=np.complex128)
        self.spec = np.zeros((b, 3, nlat, nfreq), dtype=np.complex128)
        self.grids = np.empty((b, 3, nlat, nlon))
        self.g = np.empty((b, 2, nlat, nlon))
        # analysis: component spectra, weighted columns, rows of B > 1 fields
        self.spec_a = np.empty((b, 2, nlat, nfreq), dtype=np.complex128)
        self.cols_a = np.empty((b, nlat, nm), dtype=np.complex128)
        self.rows_a = np.empty((nm, 2 * b, nlat)) if b != 1 else None
        self.blocks = np.empty((2, nm, 2 * b, lmax))


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
    one.  Every transform, the fused flow transforms included, is one real
    2-d FFT over all stacked fields (`_irfft2` for the inverse); packing and unpacking are one
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
        self.split_scale = -np.where(is_cos, c, sgn * c) / self.lam

        w = 2.0 * np.pi / length
        self.w1 = (w * np.fft.fftfreq(n, d=1.0 / n))[:, None]
        self.w2 = (w * np.arange(nh))[None, :]
        # spectral multipliers of (vorticity, d/dx, d/dy) of a streamfunction
        self.flow_mul = np.stack(
            np.broadcast_arrays(-(self.w1**2 + self.w2**2), 1j * self.w1, 1j * self.w2)
        )
        self.qw = np.full((n, n), (length / n) ** 2)

        self._work = {}

    @property
    def ngrid(self):
        return _fast_even(3 * self.kmax + 1)

    def workspace(self, b):
        return _cached_workspace(self._work, b, lambda: _TorusWork(self, b))

    def _spectrum(self, ws, coeffs):
        """Half spectra (B, N, N // 2 + 1) of coefficient rows, in ws.flat."""
        vals = np.take(coeffs, self.pack_src, axis=-1, out=ws.packed, mode="clip")
        ws.flat[:, self.pack_dst] = np.multiply(vals, self.pack_scale, out=vals)
        return ws.flat.view(np.complex128).reshape((len(coeffs),) + self.spec_shape)

    def _irfft2(self, spec, work, out=None):
        """Inverse real 2-d FFT of spec, with its first pass written to work
        (spec itself allowed): the two axis passes of np.fft.irfft2, which
        would allocate that pass (and ignores `out`)."""
        np.fft.ifft(spec, axis=-2, out=work)
        return np.fft.irfft(work, n=self.shape[1], axis=-1, out=out)

    def _unpack(self, spec, idx, scale):
        """Slots of half spectra (B, N, N // 2 + 1), read at interleaved idx."""
        flat = spec.reshape(len(spec), math.prod(self.spec_shape)).view(np.float64)
        return flat[:, idx] * scale

    def synthesize(self, coeffs):
        ws = self.workspace(len(coeffs))
        return self._irfft2(self._spectrum(ws, coeffs), ws.flow[:, 0])

    def analyze(self, f):
        ws = self.workspace(len(f))
        return self._unpack(np.fft.rfft2(f, out=ws.zdot[0]), self.ana_idx, self.ana_scale)

    def flow_synthesis(self, psi, out=None):
        ws = self.workspace(len(psi))
        spec = self._spectrum(ws, psi)[:, None]
        spec = np.multiply(spec, self.flow_mul, out=ws.flow)
        return self._irfft2(spec, spec, out)

    def flow_analysis(self, g):
        ws = self.workspace(len(g))
        # the pointwise rotation commutes with the FFT; the area mean is the DC bin
        z = np.fft.rfft2(g, out=ws.spec_a)
        mean = z[:, :, 0, 0].real / math.prod(self.shape)
        # w . Z of n x g = (-g_y, g_x): negate one spectrum instead of rotating g
        zdot = np.multiply(self.w1, np.negative(z[:, 1], out=z[:, 1]), out=ws.zdot[0])
        np.add(zdot, np.multiply(self.w2, z[:, 0], out=ws.zdot[1]), out=zdot)
        return self._unpack(zdot, self.grad_idx, self.split_scale), mean


class _TorusWork:
    """Reused buffers of one torus plan for B stacked fields.

    flat is the packed half spectrum viewed as interleaved (re, im); the
    bins no coefficient packs into are zeroed once and never written.
    """

    def __init__(self, core, b):
        n, nh = core.spec_shape
        self.packed = np.empty((b, core.pack_src.size))
        self.flat = np.zeros((b, 2 * n * nh))
        # spectra of (vorticity, d/dx, d/dy), their grids, and the product g
        self.flow = np.empty((b, 3, n, nh), dtype=np.complex128)
        self.grids = np.empty((b, 3, n, n))
        self.g = np.empty((b, 2, n, n))
        self.spec_a = np.empty((b, 2, n, nh), dtype=np.complex128)
        # the two terms of w . Z in flow_analysis; [0] also takes the
        # spectrum of a scalar analysis
        self.zdot = np.empty((2, b, n, nh), dtype=np.complex128)


def _cached_workspace(cache, b, build):
    """The workspace of a core for b fields, built on first use.

    A core keeps the workspaces of its WORKSPACES_PER_PLAN most recently
    used batch sizes, so alternating base and stacked calls reuse both.
    """
    ws = cache.pop(b, None)
    if ws is None:
        ws = build()
        while len(cache) >= WORKSPACES_PER_PLAN:
            del cache[next(iter(cache))]
    cache[b] = ws
    return ws


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


def _rows_of(x, tail):
    """x with its leading axes flattened into one row axis, and those axes."""
    lead = x.shape[: x.ndim - tail]
    return x.reshape((-1,) + x.shape[x.ndim - tail :]), lead


def _unrows(x, lead, tail):
    return x.reshape(lead + x.shape[x.ndim - tail :])


def synthesize(plan, coeffs):
    """Evaluate a coefficient array on the plan grid."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    _check_coeffs(plan, coeffs)
    rows, lead = _rows_of(coeffs, 1)
    return _unrows(plan.core.synthesize(rows), lead, 2)


def analyze(plan, f):
    """Project a grid field onto the basis by quadrature."""
    f = np.asarray(f, dtype=np.float64)
    _check_field(plan, f)
    rows, lead = _rows_of(f, 2)
    return _unrows(plan.core.analyze(rows), lead, 1)


def flow_synthesis(plan, psi, out=None):
    """Vorticity and gradient grids of streamfunction coefficients.

    The vorticity equals synthesize(plan, -lam * psi); the gradient has
    components (theta, phi) on the sphere, (x, y) on the torus.  Both come
    from one inverse FFT over the three stacked fields.  With `out`, a
    C-contiguous float array of shape psi.shape[:-1] + (3,) + grid shape,
    the grids are written there and the pair are views of it.
    """
    psi = np.asarray(psi, dtype=np.float64)
    _check_coeffs(plan, psi)
    rows, lead = _rows_of(psi, 1)
    if out is not None:
        want = lead + (3,) + plan.grid_shape
        if out.shape != want or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ShapeError(f"out must be a C-contiguous float64 array of shape {want}")
        out = out.reshape((-1, 3) + plan.grid_shape)
    grids = _unrows(plan.core.flow_synthesis(rows, out), lead, 3)
    return grids[..., 0, :, :], grids[..., 1:, :, :]


def flow_analysis(plan, g):
    """Leray streamfunction coefficients and harmonic pair of a tangent grid field.

    Slot s of the streamfunction is <g, n x grad Y_s> / lam_s, so the
    velocity of a streamfunction analyzes back to it and gradients to zero;
    the pair is the area mean of each component of g, empty on the sphere.
    Both come from one forward FFT over the stacked components.
    """
    g = np.asarray(g, dtype=np.float64)
    _check_field(plan, g, vec=True)
    rows, lead = _rows_of(g, 3)
    p, q = plan.core.flow_analysis(rows)
    return _unrows(p, lead, 1), _unrows(q, lead, 1)


def workspace(plan, rows):
    """The plan's transform workspace for `rows` stacked fields.

    Besides the transforms' own buffers, which every transform call with
    `rows` fields on this plan overwrites, it holds two buffers that only
    their user writes: the grid stack `grids` (rows, 3, *grid_shape), for
    `flow_synthesis(..., out=grids)`, and the product field `g`
    (rows, 2, *grid_shape) of the right-hand side.
    """
    return plan.core.workspace(rows)


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
