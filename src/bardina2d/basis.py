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
    parity-folded as in SHTns (Schaeffer 2013, G-Cubed 14):
    P_n^m(-mu) = (-1)^(n + m) P_n^m(mu) on the symmetric Gauss grid, so one
    table over the northern latitudes, its rows split by the parity of
    n - m, stacks -lam P, dP/dtheta and P along the latitude axis.  Order m
    has about (truncation - m) / 2 rows per parity, so orders m and
    top - m, top the truncation rounded up to odd, share one block of rows
    with at most one padding row: shape (2, npair, nrp, 3 nh) with
    npair = (truncation + 2) // 2, nrp about truncation / 2 + 1 and
    nh = (nlat + 1) // 2: 5.9 MB at L=85, where one block per order would
    take 11.5 MB, half of it zero rows past the truncation.  Every transform is
    one matmul against it, batched over (parity, block), with the cos and
    sin rows of all fields and both orders of a block stacked, plus one real
    FFT in longitude; the even and odd sums unfold into the two
    hemispheres.  The phi-derivative factor m / sin(theta) is applied per
    latitude instead of being tabulated.

Torus
    Fourier modes exp(2*pi*i k.x / L) on [0, L]^2 with max(|k1|, |k2|) <=
    truncation, eigenvalue (2 pi / L)^2 |k|^2.  Uniform N x N grid with N
    the smallest fast even length >= 3*truncation + 1, the sphere's nlon rule
    (the 3/2 rule, Orszag 1971, J. Atmos. Sci. 28): products of two retained
    fields analyze onto every retained mode without aliasing, so all modes
    are active and no band mask is needed.  The transforms are separable
    real DFTs by partial summation: the coefficients pack into a
    (2K + 1, 2K + 1) matrix M over products of per-axis cos and sin
    columns, and a grid field is E M E^T, E the (N, 2K + 1) table of those
    columns; each transform is a few small matrix products, and no FFT.
    Each nonzero lattice vector q labels one real basis function: cos for q
    in the right half-plane (q1 > 0, or q1 == 0 and q2 > 0), sin(2 pi k.x/L)
    with k = -q otherwise.  Slot order is (|q|^2, q1, q2) lexicographic.

Each geometry implements four transforms.  `synthesize` and `analyze` take
scalar coefficients to grid values and back by quadrature.  The flow pair
carries the nonlinearity: `flow_synthesis` takes a streamfunction psi to the
grids of its vorticity -lam psi and its gradient, and `flow_analysis` takes
a tangent grid field g to its Leray streamfunction, slot s being
<g, n x grad Y_s> / lam_s (the component of g along the unit-energy velocity
of mode s), and its harmonic pair; each makes one pass of its transform
over the stacked fields.

All transforms broadcast over leading axes: coefficients have shape
(..., n_modes), grid fields (..., nlat, nlon), tangent vector fields
(..., 2, nlat, nlon) with component 0 pointing along theta-hat (sphere,
towards increasing colatitude) or x (torus).

Workspaces
    A transform flattens the leading axes into B stacked rows and works in
    buffers the plan builds once for that B: the gathered Legendre rows,
    the Legendre sums and the zero-padded half spectra (sphere), the packed
    coefficient matrices and the products of one axis (torus), and, for the
    right-hand side in `dynamics`, the vorticity/gradient grid stack and the
    product field g.  The FFTs and matmuls write into them with out=, so
    stepping a batch allocates no large temporaries; freed ones would be
    trimmed off the heap top and faulted back in by the next call.  The
    rules:

    - one workspace per plan and batch row count; a plan keeps those of
      its WORKSPACES_PER_PLAN most recently used row counts, and two plans
      share nothing;
    - a workspace is not safe to share across threads: use one plan per
      thread;
    - returned arrays are never views of a workspace buffer; the
      right-hand side, which calls the core transforms directly, borrows
      the core workspace's `grids` and `g` and returns none of them;
    - size: 3.5 MB for one row at sphere L=85 and 3.1 MB at torus K=64
      (0.23 MB at L=21, 0.20 MB at K=16), about linear in the row count
      (38 MB for 9 rows at L=85, 22 MB for 7 rows at K=64); a sphere
      unfold and fold borrow the spectrum buffer of the other direction,
      and a torus unpack the first products of its analysis, instead of a
      buffer of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    """Latitude table and FFT bookkeeping for one sphere truncation.

    The Legendre stage is parity-folded as in SHTns (Schaeffer 2013): on the
    symmetric Gauss grid P_n^m(-mu) = (-1)^(n + m) P_n^m(mu), so one table
    over the nh = (nlat + 1) // 2 northern latitudes, pole to equator, serves
    both hemispheres.  Its rows are paired by order: block j of parity p
    holds the degrees n >= max(m, 1) with n - m = p (mod 2) of order j,
    then those of order top - j (`_paired_degrees`), so table[p, j, r] is a
    row of three blocks of nh columns, -lam P, dP/dtheta and P, orthonormal
    with the Condon-Shortley phase, or zero in the one padding row a block
    may have.  For even lmax, top = lmax + 1 and order 0 stands alone.
    slots[p, j, r, o, c] holds the flat slot of member c (cos, sin) of that
    row's (n, m) when the row belongs to order o of the block (0: j, 1: its
    partner); entries with no mode point at slot n_modes, a zero appended
    to every coefficient row.

    Each field's (cos, sin) pair is innermost in the Legendre rows and
    sums, so it reads as one complex number, and the half spectra are laid
    out (m, K, nlat, B) for K stacked components and B fields: the FFTs take
    them through transposed views, and no copy transposes anything.
    Synthesis is one gather into rows (2, npair, nrp, 4B), whose columns are
    (order in block, field, cos|sin), so the column of one order takes
    zeros on the other's rows; one matmul of table_t, the transposed view
    of the table, batched over (parity, block); and an unfold: the even
    plus the odd sums on the northern latitudes, their difference on the
    mirrored southern ones, negated for dP, whose parity is opposite to
    P's.  Analysis weights the columns of a real FFT, folds the two
    hemispheres into the even and odd combinations that meet each table
    block, both orders of a block side by side, and makes one matmul of the
    folded rows against the blocks of table_t it needs: it multiplies each
    order's rows with its partner's too, twice the flops for half the table
    bytes, and the scatter drops those products.  The unfold and the fold
    run their additions over whole contiguous buffers and move each order
    between the block layout and the spectrum by copies, since additions
    over the per-order views read or write every other run of B fields and
    cost about twice as much.  Both matmuls take a transposed view as their
    left operand; so laid out, the rows of a field round the same however
    many fields are stacked with it.  The longitude derivative needs
    m P / sin(theta); rather than a fourth block, the flow transforms weight
    the P columns by i m / sin(theta) (synthesis) or -i m / sin(theta)
    (analysis).
    """

    def __init__(self, lmax):
        self.lmax = lmax
        self.nlat = (3 * lmax + 2 + 1) // 2  # ceil((3L+2)/2)
        self.nlon = _fast_even(3 * lmax + 1)
        self.shape = (self.nlat, self.nlon)
        self.nh = (self.nlat + 1) // 2
        mu, w = _gauss_legendre(self.nlat)
        self.mu = mu
        self.wlat = w
        # factored: 1 - mu^2 cancels near the poles
        self.sin_t = np.sqrt((1.0 - mu) * (1.0 + mu))
        self.phi = 2.0 * np.pi * np.arange(self.nlon) / self.nlon
        # cell weight for the longitude direction
        self.dphi = 2.0 * np.pi / self.nlon

        nm, nh = lmax + 1, self.nh
        degrees = _paired_degrees(lmax)
        # northern latitudes, pole to equator: grid rows nlat - 1 down to nlat - nh
        self.table = _legendre_table(lmax, degrees, mu[::-1][:nh], self.sin_t[::-1][:nh])
        self.table_t = self.table.transpose(0, 1, 3, 2)
        # blocks, and the leading ones with no second order (1 for even lmax)
        self.npair = self.table.shape[1]
        self.lone = 2 * self.npair - nm

        # flat slot layout: slot(n, m) = n^2 + n + m - 1
        self.n_modes, _ = mode_count(SPHERE, lmax)
        deg = np.repeat(np.arange(1, lmax + 1), 2 * np.arange(1, lmax + 1) + 1)
        order = np.arange(self.n_modes) + 1 - deg * deg - deg
        self.lam = (deg * (deg + 1)).astype(np.float64)
        n, m = (a[..., None, None] for a in degrees)
        second = m > np.arange(self.npair)[:, None, None, None]
        cos = np.arange(2) == 0
        self.slots = np.where(
            (n <= lmax) & (second == (np.arange(2)[:, None] == 1)) & (cos | (m > 0)),
            n * n + n + np.where(cos, m, -m) - 1,
            self.n_modes,
        )

        k = np.full(nm, 1.0 / math.sqrt(math.pi))
        k[0] = 1.0 / math.sqrt(2.0 * math.pi)
        # spectrum weight of k cos(m phi) is (nlon / 2) k, of the constant
        # nlon k; a sin(m phi) coefficient b enters as -i b
        ks = 0.5 * self.nlon * k
        ks[0] *= 2.0
        sign = np.where(order < 0, -1.0, 1.0)
        self.pad_scale = sign * ks[np.abs(order)]
        # weights of the (m, block, latitude) columns, broadcast over fields
        m_over_sin = (np.arange(nm)[:, None] / self.sin_t)[:, None, :]
        south = np.arange(self.nlat) < self.nlat - nh
        # synthesis: the dP sums flip sign on the southern rows; d/dphi
        # brings i m, the metric 1 / sin(theta)
        dp_sign = np.broadcast_to(np.where(south, -1.0, 1.0), m_over_sin.shape)
        self.synth_w = np.concatenate((dp_sign, 1j * m_over_sin), axis=1)
        # analysis: quadrature weight, normalization folded in; an equator
        # row (odd nlat) is folded into both hemispheres at half weight
        wq = self.wlat.copy()
        if self.nlat % 2:
            wq[nh - 1] *= 0.5
        w = (self.dphi * k)[:, None, None] * wq
        # columns against the (dP, P) blocks: -g_phi, and g_theta through
        # -i m / sin(theta), the gradient adjoint of n x g = (-g_phi, g_theta);
        # a scalar analysis takes the first weight, -w
        self.ana_w = np.concatenate((-w, -1j * w * m_over_sin), axis=1)
        # the analysis rows are (Re, Im) of the weighted columns, so a sin
        # slot sums -Im; a scalar analysis also undoes the sign of -w
        self.ana_scale = -sign
        self.flow_scale = -sign / self.lam
        self.qw = self.wlat * self.dphi
        self._work = {}

    def workspace(self, b):
        return _cached_workspace(self._work, b, lambda: _SphereWork(self, b))

    # -- paired, parity-folded Legendre stage ----------------------------

    def _gather(self, ws, coeffs):
        """(B, n_modes) -> scaled table rows (2, npair, nrp, 4B).

        Columns are (order in block, field, cos|sin).
        """
        np.multiply(coeffs, self.pad_scale, out=ws.pad[:, :-1])
        return np.take(ws.pad, ws.gather, out=ws.rows, mode="clip")

    def _pairs(self, x):
        """(order in block, blocks, view of x) for the first and the second
        orders of the blocks, x indexed by m on its first axis."""
        return (
            (0, slice(None), x[: self.npair]),
            (1, slice(self.lone, None), x[::-1][: self.npair - self.lone]),
        )

    def _unfold(self, ws, sums, spec):
        """Block sums (2, npair, K nh, 4B) -> columns (lmax + 1, K, nlat, B) of half spectra.

        A field's (cos, sin) sums land as (re, im): the sin coefficients come
        in negated.  The even plus the odd sums (northern latitudes), then
        their difference (the mirrored southern ones), are formed over the
        whole contiguous sums, in the block layout, into ws.spec_a, which a
        synthesis does not read; copies take each order in block to its
        columns, reversing the latitudes of the northern half.
        """
        k, b = spec.shape[1], spec.shape[3]
        s = sums.view(np.complex128).reshape(2, self.npair, k, self.nh, 2, b)
        h = _head(ws.spec_a, s.shape[1:])
        np.add(s[0], s[1], out=h)
        for o, blocks, cols in self._pairs(spec):
            np.copyto(cols[:, :, ::-1][:, :, : self.nh], h[blocks, ..., o, :])
        np.subtract(s[0], s[1], out=h)
        ns = self.nlat - self.nh
        for o, blocks, cols in self._pairs(spec):
            np.copyto(cols[:, :, :ns], h[blocks, :, :ns, o, :])

    def _fold(self, ws, cols, even, odd):
        """Weighted columns (lmax + 1, K, nlat, B) -> hemisphere sums and differences.

        Copies take each order's two hemispheres, pole to equator, to its
        place in the block layout, in the retained columns of ws.spec, which
        every synthesis writes before it reads them; the sums then go to even
        and the differences to odd, views (npair, K, nh, 2, B) of the
        analysis rows: component j at the parity where its table block is
        symmetric, and at the other parity.
        """
        shape = (2, self.npair, cols.shape[1], self.nh, 2, cols.shape[3])
        h = _head(ws.spec[: self.lmax + 1], shape)
        # a lone order's empty partner: only products the scatter drops read it
        h[:, : self.lone, ..., 1, :] = 0.0
        for o, blocks, part in self._pairs(cols):
            np.copyto(h[0, blocks, ..., o, :], part[:, :, ::-1][:, :, : self.nh])
            np.copyto(h[1, blocks, ..., o, :], part[:, :, : self.nh])
        np.add(h[0], h[1], out=even)
        np.subtract(h[0], h[1], out=odd)

    def _scatter(self, ws, blocks, scale):
        """Block sums (2, npair, 4B, nrp) -> (B, n_modes) times scale, a new array.

        Each order's folded rows meet every row of its block, so the sums
        hold products with the partner order's rows too; the scatter drops
        them.
        """
        p = np.take(blocks, ws.scatter)
        return np.multiply(p, scale, out=p)

    def _irfft(self, spec, out=None):
        return np.fft.irfft(spec, n=self.nlon, axis=-1, out=out)

    # -- scalar --------------------------------------------------------

    def synthesize(self, coeffs):
        ws = self.workspace(len(coeffs))
        rows = self._gather(ws, coeffs)
        sums = np.matmul(self.table_t[:, :, 2 * self.nh :], rows, out=ws.sums_p)
        self._unfold(ws, sums, ws.spec[: self.lmax + 1, :1])
        return self._irfft(ws.spec[:, 0].T)

    def analyze(self, f):
        ws = self.workspace(len(f))
        np.fft.rfft(f, axis=-1, out=ws.spec_ap[:, 0].T)
        cols = ws.spec_ap[: self.lmax + 1]
        self._fold(ws, np.multiply(cols, ws.ana_w[:, :1], out=cols), *ws.fold_p)
        np.matmul(ws.rows_p.transpose(0, 1, 3, 2), self.table_t[:, :, 2 * self.nh :], out=ws.blocks)
        return self._scatter(ws, ws.blocks, self.ana_scale)

    # -- flow ----------------------------------------------------------

    def flow_synthesis(self, psi, out=None):
        ws = self.workspace(len(psi))
        np.matmul(self.table_t, self._gather(ws, psi), out=ws.sums)
        cols = ws.spec[: self.lmax + 1]
        self._unfold(ws, ws.sums, cols)
        grad = cols[:, 1:]
        np.multiply(grad, ws.synth_w, out=grad)
        return self._irfft(ws.spec.transpose(3, 1, 2, 0), out)

    def flow_analysis(self, g):
        ws = self.workspace(len(g))
        z = ws.spec_a
        np.fft.rfft(g, axis=-1, out=z.transpose(3, 1, 2, 0))
        # components (phi, theta) against the blocks (dP, P)
        cols = z[: self.lmax + 1, ::-1]
        self._fold(ws, np.multiply(cols, ws.ana_w, out=cols), *ws.fold_a)
        np.matmul(ws.rows_a.transpose(0, 1, 3, 2), self.table_t[:, :, self.nh :], out=ws.blocks)
        return self._scatter(ws, ws.blocks, self.flow_scale), np.zeros((len(g), 0))


class _SphereWork:
    """Reused buffers of one sphere plan for B stacked fields.

    pad holds the scaled coefficient rows with the zero slot n_modes
    appended, gather the flat take-index of each entry of the table rows,
    and scatter, its inverse, the position of each slot in the sums of an
    analysis.  The half spectra spec (vorticity, d/dtheta, d/dphi) and
    spec_a are laid out (m, K, nlat, B); spec is zeroed once, its columns
    beyond lmax never written (numpy's irfft is slower on a shorter input
    that it pads itself), and an analysis weights the columns of spec_a in
    place.  An unfold forms its hemispheres in spec_a, and a fold in the
    retained columns of spec; the other kind of transform writes those
    before it reads them.  The folded analysis rows live in the synthesis
    sums, which no analysis reads.  The
    column weights are repeated over the B fields, so that a weighting runs
    along contiguous rows.  The scalar transforms use the leading parts
    (sums_p, spec_ap, rows_p) of the flow buffers.
    """

    def __init__(self, core, b):
        npair, nh, nrp = core.npair, core.nh, core.table.shape[2]
        nlat, nlon = core.nlat, core.nlon
        nfreq = nlon // 2 + 1
        width = core.n_modes + 1
        self.pad = np.zeros((b, width))
        fields = (np.arange(b) * width)[:, None]
        self.gather = (fields + core.slots[..., None, :]).reshape(2, npair, nrp, 4 * b)
        self.rows = np.empty(self.gather.shape)
        # analysis sums are (2, npair, 4b, nrp)
        blocks = np.arange(self.gather.size).reshape(2, npair, 4 * b, nrp).transpose(0, 1, 3, 2)
        scatter = np.empty(b * width, dtype=np.int64)
        scatter[self.gather.ravel()] = blocks.ravel()
        self.scatter = scatter.reshape(b, width)[:, :-1].copy()
        self.sums = np.empty((2, npair, 3 * nh, 4 * b))
        self.spec = np.zeros((nfreq, 3, nlat, b), dtype=np.complex128)
        self.grids = np.empty((b, 3, nlat, nlon))
        self.g = np.empty((b, 2, nlat, nlon))
        # analysis: component spectra, folded rows, sums
        self.spec_a = np.empty((nfreq, 2, nlat, b), dtype=np.complex128)
        self.rows_a = _head(self.sums, (2, npair, 2 * nh, 4 * b))
        self.blocks = np.empty((2, npair, 4 * b, nrp))
        self.synth_w, self.ana_w = (
            np.ascontiguousarray(np.broadcast_to(w[..., None], w.shape + (b,)))
            for w in (core.synth_w, core.ana_w)
        )
        self.sums_p = _head(self.sums, (2, npair, nh, 4 * b))
        self.spec_ap = _head(self.spec_a, (nfreq, 1, nlat, b))
        self.rows_p = _head(self.rows_a, (2, npair, nh, 4 * b))
        # where `_fold` writes: P is symmetric at parity 0; in the flow rows
        # (dP, P) component j is symmetric at parity 1 - j, so its sum goes
        # to parity 1 - j and its difference to parity j
        rows = self.rows_p.view(np.complex128).reshape(2, npair, 1, nh, 2, b)
        self.fold_p = (rows[0], rows[1])
        rows = self.rows_a.view(np.complex128).reshape(2, npair, 2, nh, 2, b)
        s = rows.strides
        self.fold_a = tuple(
            np.lib.stride_tricks.as_strided(rows[p], strides=(s[1], s[2] + step * s[0]) + s[3:])
            for p, step in ((1, -1), (0, 1))
        )


def _head(buf, shape):
    """The contiguous leading part of buf, as an array of the given shape."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def _paired_degrees(lmax):
    """Degree n and order m of each table row (parity, j, r), in closed form.

    Block j holds the degrees n >= max(m, 1) with n - m = parity (mod 2) of
    order j, ascending, then those of order top - j, top being lmax rounded
    up to odd.  Order m has about (lmax - m) / 2 rows per parity, so every
    block is full but for at most one padding row; pairing j with lmax - j
    at even lmax would leave two in half the blocks.  For even lmax, order 0
    stands alone (order lmax + 1 has no rows).  Padding rows have
    n = lmax + 1.
    """
    j = np.arange((lmax + 2) // 2)
    orders = np.stack((j, (lmax | 1) - j), axis=-1)
    p = np.arange(2)[:, None, None]
    # lowest degree and row count of each (parity, block, order in block)
    n0 = orders + p + 2 * ((orders == 0) & (p == 0))
    count = (lmax - n0) // 2 + 1
    r = np.arange(count.sum(axis=-1).max())
    second = r >= count[..., :1]
    k = r - np.where(second, count[..., :1], 0)
    n0, count = (np.where(second, a[..., 1:], a[..., :1]) for a in (n0, count))
    n = np.where(k < count, n0 + 2 * k, lmax + 1)
    return n, np.where(second, orders[:, 1:], orders[:, :1])


def _gauss_legendre(n):
    """Gauss-Legendre nodes mu, ascending, and weights w of the n-point rule on [-1, 1].

    Newton's method on the three-term recurrence of P_n, vectorized over the
    roots (Hale & Townsend 2013, SIAM J. Sci. Comput. 35), run on the
    nonpositive half and mirrored, so the rule is exactly symmetric with 0 a
    node when n is odd.  Tricomi's first guess is within a few 1e-3 of
    1 - x relative at every n, so three steps reach full precision.  The
    weight 2 / ((1 - x^2) P_n'(x)^2) moves by 2x dx / (1 - x^2) relative when
    its node moves by dx, up to 1e-12 near the poles for a node rounding, so
    it is corrected to first order by the last step dx.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.sin(np.pi * (2 * k - n - 1) / (2 * n + 1))
    for _ in range(3):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) / j) * x * p1 - ((j - 1) / j) * p0
        s = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / s
        dx = p1 / dp
        x = x - dx
    w = 2.0 / (s * dp * dp) * (1.0 + 2.0 * x * dx / s)
    half = n // 2
    return np.concatenate((x, -x[:half][::-1])), np.concatenate((w, w[:half][::-1]))


def _legendre_table(lmax, degrees, mu, sin_t):
    """The paired table [-lam P | dP/dtheta | P] at latitudes mu: (2, npair, nrp, 3 nlat).

    Rows as `_paired_degrees` lays them out (its result is `degrees`), zero
    past the truncation.
    Orthonormal associated Legendre values (the square integrates to 1
    over mu in [-1, 1], Condon-Shortley phase) by the three-term
    recurrence in n, run along k = n - m for every order m at once.
    """
    nm, nlat = lmax + 1, mu.size
    n_row, m_row = degrees
    table = np.zeros(n_row.shape + (3 * nlat,))
    # flat table row of each (m, k); -1 where there is none (n = 0)
    kept = n_row <= lmax
    row_of = np.full((nm, nm), -1)
    row_of[m_row[kept], (n_row - m_row)[kept]] = np.flatnonzero(kept)
    rows = table.reshape(-1, 3 * nlat)
    m = np.arange(nm)[:, None].astype(np.float64)
    # diagonal seeds P_m^m
    factors = -np.sqrt((2.0 * m[1:] + 1.0) / (2.0 * m[1:])) * sin_t
    prev2 = None
    prev = np.cumprod(np.vstack((np.full((1, nlat), 1.0 / math.sqrt(2.0)), factors)), axis=0)
    for k in range(nm):
        mk = m[: nm - k]
        n = mk + k
        if k == 0:
            cur = prev
        elif k == 1:
            cur = np.sqrt(2.0 * mk + 3.0) * mu * prev[: nm - k]
        else:
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - mk * mk))
            b = np.sqrt(((n - 1.0) ** 2 - mk * mk) / (4.0 * (n - 1.0) ** 2 - 1.0))
            cur = a * (mu * prev[: nm - k] - b * prev2[: nm - k])
        dp = n * mu * cur
        if k:
            e = np.sqrt((n * n - mk * mk) * (2.0 * n + 1.0) / (2.0 * n - 1.0))
            dp -= e * prev[: nm - k]
        dp /= sin_t
        dst = row_of[: nm - k, k]
        row = np.concatenate((-n * (n + 1.0) * cur, dp, cur), axis=1)
        rows[dst[dst >= 0]] = row[dst >= 0]
        prev2, prev = prev, cur
    return table


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
    """Separable real-DFT tables for one torus truncation.

    Partial summation (Boyd 2001, Chebyshev and Fourier Spectral Methods,
    2nd ed., ch. 10): tables = [E, dE, E] (3, N, 2K + 1), E holding
    cos(w a x_j), a = 0..K, then sin(w a x_j), a = 1..K (w = 2 pi / L,
    x_j = L j / N), read off one table of the unit circle at a j mod N, and
    dE its x-derivative; tables_t = [E^T | dE^T].  A field is E M E^T, the
    rows of M indexing the x factor.  A slot's cos or sin of w k.x (k = q
    for cos slots, -q for sin slots, so k1 >= 0) is cos cos -/+ sin sin or
    sin cos +/- cos sin: it lands in at most two entries of M, and an entry
    takes at most two slots, one with k2 >= 0 (link 0) and one with k2 < 0
    (link 1).  A pack takes both links of every entry from the
    coefficients, a zero slot appended, weights them by +-sqrt(2) / L and
    adds; an unpack is the transposed map, weighted by the quadrature
    weight (over lam for the flow analysis).

    Synthesis is E (M E^T); the flow synthesis multiplies [E, dE, E] by
    [-lam o M, M, M] [E^T, E^T, dE^T], the grids of vorticity, d/dx and
    d/dy.  Analysis is E^T (f E); the flow analysis forms [E^T, dE^T]
    ([g_x, g_y] [dE, E]), whose difference dE^T g_y E - E^T g_x dE is
    <g, n x grad> of each entry, and the grid mean.  Each product is one
    matmul over the stacked fields, the same BLAS call for every field.
    """

    def __init__(self, kmax, length):
        self.kmax = kmax
        self.length = length
        n = self.ngrid
        self.shape = (n, n)
        nb = 2 * kmax + 1

        # slot order (|q|^2, q1, q2); q = 0 sorts first and is dropped
        r = range(-kmax, kmax + 1)
        qs = sorted((q1 * q1 + q2 * q2, q1, q2) for q1 in r for q2 in r)[1:]
        self.qvec = np.array([q[1:] for q in qs], dtype=np.int64)
        self.n_modes, _ = mode_count(TORUS, kmax)
        q1, q2 = self.qvec.T
        w = 2.0 * np.pi / length
        self.lam = w**2 * (q1 * q1 + q2 * q2)
        self.slot_of = {q[1:]: s for s, q in enumerate(qs)}

        # tables = [E, dE, E]: cos columns a = 0..K, then sin columns a = 1..K,
        # read off cos and sin of 2 pi i / N at i = a j mod N
        cos = np.array([math.cos(2.0 * math.pi * i / n) for i in range(n)])
        sin = np.array([math.sin(2.0 * math.pi * i / n) for i in range(n)])
        a = np.arange(kmax + 1)
        at = np.outer(np.arange(n), a) % n
        wa = w * a
        self.tables = np.empty((3, n, nb))
        e, de = self.tables[0], self.tables[1]
        e[:, : kmax + 1], e[:, kmax + 1 :] = cos[at], sin[at[:, 1:]]
        de[:, : kmax + 1], de[:, kmax + 1 :] = -wa * sin[at], wa[1:] * cos[at[:, 1:]]
        self.tables[2] = e
        # [E^T | dE^T], so that no product takes a transposed right operand
        self.tables_t = np.ascontiguousarray(self.tables[:2].reshape(2 * n, nb).T)
        # -lam of every entry of M
        a2 = np.concatenate((a, a[1:])) ** 2
        self.neg_lam = -(w**2) * (a2[:, None] + a2[None, :])

        # the two entries of each slot, flat in M, and their signs
        is_cos = (q1 > 0) | ((q1 == 0) & (q2 > 0))
        k1, k2 = np.where(is_cos, q1, -q1), np.where(is_cos, q2, -q2)
        b = np.abs(k2)
        # cos: (cos k1, cos b) and (sin k1, sin b) times -sgn k2; sin: (sin k1,
        # cos b) and (cos k1, sin b) times sgn k2; a factor sin(0 x) drops out
        entry = np.stack((
            np.where(is_cos, k1, kmax + k1) * nb + b,
            np.where(is_cos, kmax + k1, k1) * nb + kmax + b,
        ))
        sgn = np.where(k2 < 0, -1.0, 1.0) * (b > 0)
        sign = np.stack((is_cos | (k1 > 0), np.where(is_cos, -sgn * (k1 > 0), sgn)))
        amp = math.sqrt(2.0) / length
        # per entry and link: the slot (n_modes, the appended zero, for none)
        # and its weight; per slot: its two entries (0 where a sign is 0)
        link = (k2 < 0).astype(np.int64)
        self.entry_slot = np.full((2, nb * nb), self.n_modes)
        self.entry_w = np.zeros((2, nb * nb))
        for ent, sg in zip(entry, sign):
            on = sg != 0.0
            self.entry_slot[link[on], ent[on]] = np.flatnonzero(on)
            self.entry_w[link[on], ent[on]] = amp * sg[on]
        self.slot_entry = np.where(sign != 0.0, entry, 0)
        self.qw = np.full(n, (length / n) ** 2)
        self.ana_w = amp * self.qw[0] * sign
        self.flow_w = self.ana_w / self.lam

        self._work = {}

    @property
    def ngrid(self):
        return _fast_even(3 * self.kmax + 1)

    def workspace(self, b):
        return _cached_workspace(self._work, b, lambda: _TorusWork(self, b))

    def _pack(self, ws, coeffs):
        """Coefficient rows -> M, (B, 2K + 1, 2K + 1) in ws.m."""
        np.copyto(ws.pad[:, :-1], coeffs)
        v = np.take(ws.pad, self.entry_slot, axis=-1, out=ws.pairs_flat)
        np.multiply(v, self.entry_w, out=v)
        np.add(v[:, 0], v[:, 1], out=ws.m_flat)
        return ws.m

    def _unpack(self, ws, a, weight):
        """Flat entries a (B, (2K + 1)^2) -> slot rows times weight, a new array."""
        v = np.take(a, self.slot_entry, axis=-1, out=ws.parts)
        np.multiply(v, weight, out=v)
        return np.add(v[:, 0], v[:, 1])

    def synthesize(self, coeffs):
        ws = self.workspace(len(coeffs))
        n = self.shape[0]
        t = np.matmul(self._pack(ws, coeffs), self.tables_t[:, :n], out=ws.t[..., :n])
        return np.matmul(self.tables[0], t)

    def analyze(self, f):
        ws = self.workspace(len(f))
        e = self.tables[0]
        np.matmul(e.T, np.matmul(f, e, out=ws.p[:, 0]), out=ws.pairs[:, 0])
        return self._unpack(ws, ws.pairs_flat[:, 0], self.ana_w)

    def flow_synthesis(self, psi, out=None):
        ws = self.workspace(len(psi))
        n = self.shape[0]
        m = self._pack(ws, psi)
        lam_m = np.multiply(m, self.neg_lam, out=ws.pairs[:, 0])
        # [-lam o M E^T | M E^T | M dE^T], then [E, dE, E] times its thirds
        np.matmul(lam_m, self.tables_t[:, :n], out=ws.t[..., :n])
        np.matmul(m, self.tables_t, out=ws.t[..., n:])
        return np.matmul(self.tables, ws.t_split, out=out)

    def flow_analysis(self, g):
        ws = self.workspace(len(g))
        # [g_x dE, g_y E], then [E^T g_x dE, dE^T g_y E]
        p = np.matmul(g, self.tables[1:], out=ws.p)
        q = np.matmul(self.tables[:2].transpose(0, 2, 1), p, out=ws.pairs)
        np.subtract(q[:, 1], q[:, 0], out=ws.m)
        mean = g.sum(axis=(-2, -1)) / math.prod(self.shape)
        return self._unpack(ws, ws.m_flat, self.flow_w), mean


class _TorusWork:
    """Reused buffers of one torus plan for B stacked fields.

    A pack takes its links into pairs and sums them into m; a flow
    synthesis scales m by -lam into pairs[:, 0] and writes its first
    products [-lam o M E^T | M E^T | M dE^T] into t, which t_split views
    as (B, 3, 2K + 1, N).  An analysis writes its first products into p
    and its second into pairs; its unpack takes into the head of p.
    """

    def __init__(self, core, b):
        n, nb = core.tables.shape[1:]
        self.pad = np.zeros((b, core.n_modes + 1))
        self.pairs = np.empty((b, 2, nb, nb))
        self.pairs_flat = self.pairs.reshape(b, 2, nb * nb)
        self.m = np.empty((b, nb, nb))
        self.m_flat = self.m.reshape(b, nb * nb)
        self.t = np.empty((b, nb, 3 * n))
        self.t_split = self.t.reshape(b, nb, 3, n).transpose(0, 2, 1, 3)
        self.p = np.empty((b, 2, n, nb))
        self.parts = _head(self.p, (b, 2, core.n_modes))
        # grids of (vorticity, d/dx, d/dy), and the product g
        self.grids = np.empty((b, 3, n, n))
        self.g = np.empty((b, 2, n, n))


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
        return self.core.shape


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


def flow_synthesis(plan, psi):
    """Vorticity and gradient grids of streamfunction coefficients.

    The vorticity equals synthesize(plan, -lam * psi); the gradient has
    components (theta, phi) on the sphere, (x, y) on the torus.  All three
    come from one inverse transform over the stacked fields, into a new
    array of which the pair are views.
    """
    psi = np.asarray(psi, dtype=np.float64)
    _check_coeffs(plan, psi)
    rows, lead = _rows_of(psi, 1)
    grids = _unrows(plan.core.flow_synthesis(rows), lead, 3)
    return grids[..., 0, :, :], grids[..., 1:, :, :]


def flow_analysis(plan, g):
    """Leray streamfunction coefficients and harmonic pair of a tangent grid field.

    Slot s of the streamfunction is <g, n x grad Y_s> / lam_s, so the
    velocity of a streamfunction analyzes back to it and gradients to zero;
    the pair is the area mean of each component of g, empty on the sphere.
    Both come from one forward transform over the stacked components.
    """
    g = np.asarray(g, dtype=np.float64)
    _check_field(plan, g, vec=True)
    rows, lead = _rows_of(g, 3)
    p, q = plan.core.flow_analysis(rows)
    return _unrows(p, lead, 1), _unrows(q, lead, 1)


def dealias(plan, coeffs):
    """A copy of `coeffs`: the grids alone keep every retained mode alias-free.

    Kept only because the acceptance tests call it.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    _check_coeffs(plan, coeffs)
    return coeffs.copy()


def integrate(plan, f):
    """Surface integral over the last two (grid) axes, leading axes kept.

    Grid row j weighs each of its points by qw[j]: its Gauss weight times
    dphi on the sphere, (L / N)^2 on the torus."""
    f = np.asarray(f, dtype=np.float64)
    _check_field(plan, f)
    out = np.einsum("...jk,j->...", f, plan.core.qw)
    return float(out) if out.ndim == 0 else out


def grid_points(plan):
    """Coordinate arrays of the plan grid.

    Sphere: (theta, phi) colatitude/longitude 1-d arrays.  Torus: (x, y).
    """
    if plan.geometry.kind == SPHERE:
        return np.arccos(plan.core.mu), plan.core.phi.copy()
    n = plan.grid_shape[0]
    x = plan.geometry.length * np.arange(n) / n
    return x, x.copy()
