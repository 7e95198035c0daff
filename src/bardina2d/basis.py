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
    table of P over the northern latitudes, its rows split by the parity
    of n - m, serves both hemispheres.  It holds degrees up to
    truncation + 1 and no derivative: theta derivatives come from the
    degree recurrence sin(theta) dP_n/dtheta = n e_{n+1} P_{n+1} -
    (n + 1) e_n P_{n-1} (Bourke 1972, Mon. Wea. Rev. 100), applied to the
    coefficient rows before the synthesis matmul and, transposed, to the
    sums after the analysis one.  Order m has about (truncation - m) / 2
    rows per parity, so orders m and top - m, top the truncation rounded
    up to odd, share one block of rows with at most one padding row: shape
    (2, npair, nrp, nh) with npair = (truncation + 2) // 2,
    nrp = (truncation + 1) // 2 + 2 and nh = (nlat + 1) // 2: 2.0 MB at
    L=85, where stacking -lam P, dP/dtheta and P took 5.9 MB and one block
    per order 11.5 MB.  Every transform is one matmul against it, batched
    over (parity, block), with the cos and sin rows of all fields and both
    orders of a block stacked, plus one real FFT in longitude; the even and
    odd sums unfold into the two hemispheres.  The factors 1 / sin(theta)
    of the recurrence and m / sin(theta) of the phi derivative are applied
    per latitude instead of being tabulated.

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
    columns; each transform is a few small matrix products, and no FFT
    (`fourier._TorusCore`, in a module of its own).
    Each nonzero lattice vector q labels one real basis function: cos for q
    in the right half-plane (q1 > 0, or q1 == 0 and q2 > 0), sin(2 pi k.x/L)
    with k = -q otherwise.  Slot order is (|q|^2, q1, q2) lexicographic.

Each geometry has four public transforms.  `synthesize` and `analyze` take
scalar coefficients to grid values and back by quadrature.  The flow pair
carries the nonlinearity: `flow_synthesis` takes a streamfunction psi to the
grids of its vorticity -lam psi and its gradient, and `flow_analysis` takes
a tangent grid field g to its Leray streamfunction, slot s being
<g, n x grad Y_s> / lam_s (the component of g along the unit-energy velocity
of mode s), and its harmonic pair; each makes one pass of its transform
over the stacked fields.  Both cores implement synthesize, analyze,
to_rows, from_rows, row_synthesis and row_analysis (below); the flow pair
is the row pair between to_rows and from_rows, with a zero harmonic pair
on the way in, so the gradient grids are grad psi alone.

All transforms broadcast over leading axes: coefficients have shape
(..., n_modes), grid fields (..., nlat, nlon), tangent vector fields
(..., 2, nlat, nlon) with component 0 pointing along theta-hat (sphere,
towards increasing colatitude) or x (torus).

Core rows
    The stepping path carries each stacked state as one row of the core's
    own coefficients followed by the harmonic pair: on the sphere the slot
    row, on the torus the matrix M flat.  Each core converts with
    to_rows(psis, hs) and from_rows(rows), gives lam and a scale per
    column (row_lam, row_scale), and transforms rows by
    row_synthesis(rows, ws) and row_analysis(g, ws), the flow pair on core
    rows, ws the workspace of their row count, which the caller looks up
    once for both.  The row synthesis returns the grids of the vorticity
    and of grad psi - n x h = -(n x u), the harmonic pair included (the
    torus adds it inside its second products); the row analysis returns
    the Leray part as core rows, and on the torus the area means of g in
    the pair's columns.

Workspaces
    A transform flattens the leading axes into B stacked rows and works in
    buffers the plan builds once for that B: the Legendre rows of psi,
    -lam psi and D psi and their weights, the Legendre sums and the
    zero-padded half spectra (sphere), the -lam rows and the products of
    one axis (torus), and, for the
    right-hand side in `dynamics`, the vorticity/gradient grid stack and the
    product field g.  The FFTs and matmuls write into them with out=, so
    stepping a batch allocates no large temporaries; freed ones would be
    trimmed off the heap top and faulted back in by the next call.  Each
    workspace, sphere and torus (`fourier._TorusWork`) alike, also makes
    once every view of those buffers that its transforms and the
    right-hand side pass to numpy: at L=21 or K=16 making them per call
    cost as much as the arithmetic.  The rules:

    - one workspace per plan and batch row count; a plan keeps those of
      its WORKSPACES_PER_PLAN most recently used row counts, and two plans
      share nothing;
    - a workspace is not safe to share across threads: use one plan per
      thread;
    - returned arrays are never views of a workspace buffer; the
      right-hand side, which calls the core transforms directly, borrows
      the core workspace's `grids` and `g` and returns none of them;
    - size: about linear in the row count (README, "Transform
      workspaces", gives it); a sphere unfold and fold borrow the
      spectrum buffer of the other direction instead of a buffer of their
      own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexRangeError, ShapeError, UnsupportedGeometryError
from .legendre import epsilon, gauss_legendre, legendre_table, paired_degrees

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

    @property
    def lambda_1(self):
        """The smallest eigenvalue of -Laplacian, as a plan's lambda_1 holds
        it: 2 on the unit sphere, (2 pi / L)^2 on the torus."""
        if self.kind == SPHERE:
            return 2.0
        return (2.0 * math.pi / self.length) ** 2


def sphere():
    return Geometry(SPHERE)


def torus(length):
    return Geometry(TORUS, float(length))


def rot90(vec):
    """Pointwise n x (.) rotation of a tangent grid field: (a, b) -> (-b, a)."""
    return np.stack((-vec[..., 1, :, :], vec[..., 0, :, :]), axis=-3)


# ---------------------------------------------------------------------------
# workspaces of both cores


class _Workspace:
    """Base of the workspaces of both cores: views of grids (vorticity and
    gradient of B fields) and g (their product) that dynamics._product_parts
    passes to numpy: row slices of the flat (B, K, P) grids, one per
    component (1-D at one row), which numpy multiplies with no buffer."""

    def _bind_rhs(self):
        b, n = len(self.grids), math.prod(self.grids.shape[2:])
        grids, g = self.grids.reshape(b, 3, n), self.g.reshape(b, 2, n)

        def parts(x):  # the components of a (rows, K, n) stack
            return tuple(x[0] if b == 1 else x.swapaxes(0, 1))

        (self.zeta,) = parts(grids[:, :1])
        self.products = tuple(zip(parts(g), parts(grids[:1, 1:])))
        self.tangents, self.zeta0 = tuple(grids[1:, 1:].swapaxes(0, 1)), grids[:1, 0]
        self.grad_rest, self.g_rest = grids[1:, 1:], g[1:]


class _WorkspaceCache(dict):
    """The workspaces of one core by batch row count, built on first use.

    It keeps those of the WORKSPACES_PER_PLAN most recently used row
    counts, least recent first, so alternating base and stacked calls reuse
    both; a call for the last used count returns its workspace at once.
    `work` is the workspace class, called as work(core, b); the cache holds
    no reference to the core, which owns it.
    """

    def __init__(self, work):
        super().__init__()
        self.work = work
        self.rows = self.last = None

    def __call__(self, core, b):
        if b == self.rows:
            return self.last
        ws = self.pop(b, None)
        if ws is None:
            ws = self.work(core, b)
            while len(self) >= WORKSPACES_PER_PLAN:
                del self[next(iter(self))]
        self[b] = self.last = ws
        self.rows = b
        return ws


# ---------------------------------------------------------------------------
# sphere transform core


class _SphereCore:
    """Latitude table and FFT bookkeeping for one sphere truncation.

    The Legendre stage is parity-folded as in SHTns (Schaeffer 2013): on the
    symmetric Gauss grid P_n^m(-mu) = (-1)^(n + m) P_n^m(mu), so one table
    of P over the nh = (nlat + 1) // 2 northern latitudes, pole to equator,
    serves both hemispheres.  Its rows are paired by order
    (`legendre.paired_degrees`): block j of parity p holds the degrees
    n = m + p, m + p + 2, ... up to lmax + 1 of order j, then those of order
    top - j, top being lmax rounded up to odd, so row r of parity 1 holds
    degree n + 1 of the order whose degree n is row r of parity 0.
    table[p, j, r] is that row, orthonormal with the Condon-Shortley phase,
    or zero in the one padding row a block may have: (2, npair, nrp, nh),
    npair = (lmax + 2) // 2, nrp = (lmax + 1) // 2 + 2, 2.0 MB at L=85.
    For even lmax, order 0 stands alone.  slots[p, j, r, o, c] holds the
    flat slot of member c (cos, sin) of that row's (n, m) when the row
    belongs to order o of the block (0: j, 1: its partner); entries with no
    mode, degrees 0 and lmax + 1 among them, hold n_modes, and a gather
    reads a zero for them.

    Theta derivatives come from P alone by the degree recurrence (Bourke
    1972, Mon. Wea. Rev. 100): with e_n = sqrt((n^2 - m^2) / (4 n^2 - 1)),
    sin(theta) dP_n/dtheta = n e_{n+1} P_{n+1} - (n + 1) e_n P_{n-1}, so
    sum_n psi_n dP_n/dtheta = sum_n (D psi)_n P_n / sin(theta), where
    (D psi)_n = lo_n psi_{n-1} + hi_n psi_{n+1}, lo_n = (n - 1) e_n and
    hi_n = -(n + 2) e_{n+1}; degree lmax + 1 holds D's top row, degree 0 of
    order 0 its bottom one.  A row of parity p reads rows r - 1 + p and
    r + p of the other parity.  row_w holds -lam of every row, then lo and
    hi indexed by the parity of the rows they read; hi is zero where the
    next even row is another order's.  The flow analysis
    contracts g_phi / sin(theta) with P like g_theta, and applies D^T to
    those sums in its scatter: slot n takes n e_{n+1} of the sum at degree
    n + 1 and -(n + 1) e_n of that at n - 1.

    Each field's (cos, sin) pair is innermost in the Legendre rows and
    sums, so it reads as one complex number, and the half spectra are laid
    out (m, K, nlat, B) for K stacked components and B fields, irfft taking
    them through a transposed view; rfft writes (B, K, nlat, m) ones.
    Synthesis gathers the rows of psi,
    whose columns are (order in block, field, cos|sin), so the column of
    one order takes zeros on the other's rows; a flow synthesis forms
    -lam psi and D psi beside them and makes one matmul of table_t, the
    transposed view of the table, batched over (parity, block, component);
    an unfold adds the even and odd sums on the northern latitudes and
    subtracts them on the mirrored southern ones.  Analysis folds the
    columns of a real FFT, the two hemispheres, into the even and odd
    combinations, both orders of a block side by side, and makes one
    matmul per (parity, block) of the folded rows of every component
    against table_t: it multiplies each order's rows with its partner's
    too, twice the flops for half the table bytes, and the scatter drops
    those products.  The unfold and the fold run their additions over
    whole contiguous buffers and move each order between the block layout
    and the spectrum by copies.  Both matmuls take a transposed view as
    their left operand; so laid out, the rows of a field round the same
    however many fields are stacked with it.  The weights per latitude are
    even, so they apply to the even and odd sums alike: a flow synthesis
    weights its sums of D psi by 1 / sin(theta) and those of psi by
    i m / sin(theta) (d/dphi), and a flow analysis its folded rows of
    g_phi by -wq / sin(theta) and of g_theta by -i wq / sin(theta), wq the
    quadrature weight, the m of d/dphi going to the scatter weights flow_w.
    """

    def __init__(self, lmax):
        self.lmax = lmax
        self.nlat = (3 * lmax + 2 + 1) // 2  # ceil((3L+2)/2)
        self.nlon = _fast_even(3 * lmax + 1)
        self.shape = (self.nlat, self.nlon)
        self.nh = (self.nlat + 1) // 2
        # the northern latitudes, pole to equator: grid rows nlat - 1 down to nlat - nh
        self.north = slice(None, -self.nh - 1, -1)
        mu, w = gauss_legendre(self.nlat)
        self.mu = mu
        self.wlat = w
        # factored: 1 - mu^2 cancels near the poles
        self.sin_t = np.sqrt((1.0 - mu) * (1.0 + mu))
        self.phi = 2.0 * np.pi * np.arange(self.nlon) / self.nlon
        # cell weight for the longitude direction
        self.dphi = 2.0 * np.pi / self.nlon

        nm, nh = lmax + 1, self.nh
        degrees = paired_degrees(lmax)
        self.table = legendre_table(lmax, degrees, mu[self.north], self.sin_t[self.north])
        self.table_t = self.table.transpose(0, 1, 3, 2)
        # blocks, and the leading ones with no second order (1 for even lmax)
        self.npair = self.table.shape[1]
        self.lone = 2 * self.npair - nm

        # flat slot layout: slot(n, m) = n^2 + n + m - 1
        self.n_modes, self.n_harmonic = mode_count(SPHERE, lmax)
        deg = np.repeat(np.arange(1, lmax + 1), 2 * np.arange(1, lmax + 1) + 1)
        order = np.arange(self.n_modes) + 1 - deg * deg - deg
        self.lam = (deg * (deg + 1)).astype(np.float64)
        # core rows are the slot rows
        self.ncols, self.row_lam, self.row_scale = self.n_modes, self.lam, np.ones(self.n_modes)
        n, m = (a[..., None, None] for a in degrees)
        second = m > np.arange(self.npair)[:, None, None, None]
        cos = np.arange(2) == 0
        self.slots = np.where(
            (0 < n) & (n <= lmax) & (second == (np.arange(2)[:, None] == 1)) & (cos | (m > 0)),
            n * n + n + np.where(cos, m, -m) - 1,
            self.n_modes,
        )
        n, m = degrees
        lo, hi = (n - 1.0) * epsilon(n, m), -(n + 2.0) * epsilon(n + 1.0, m)
        self.row_w = np.stack((-n * (n + 1.0), lo[::-1], hi[::-1]))
        self.row_w[2, 0, :, :-1] *= n[0, :, 1:] == n[1, :, :-1] + 1.0
        self.row_w[2, 0, :, -1] = 0.0

        k = np.full(nm, 1.0 / math.sqrt(math.pi))
        k[0] = 1.0 / math.sqrt(2.0 * math.pi)
        # spectrum weight of k cos(m phi) is (nlon / 2) k, of the constant
        # nlon k; a sin(m phi) coefficient b enters as -i b
        ks = 0.5 * self.nlon * k
        ks[0] *= 2.0
        sign = np.where(order < 0, -1.0, 1.0)
        self.pad_scale = sign * ks[np.abs(order)]
        # weights: a scalar analysis weights its columns by wq, the
        # quadrature weight; the flow transforms weight their sums, at the
        # northern latitudes, by 1 / sin(theta) (D psi) and i m / sin(theta)
        # (d/dphi of psi), and their folded rows by -wq / sin(theta) (g_phi)
        # and -i wq / sin(theta) (g_theta, as n x g = (-g_phi, g_theta); the
        # m goes to flow_w): all are even in latitude.  An equator row (odd
        # nlat) is folded into both hemispheres at half weight.  The
        # analysis rows are (Re, Im) of the weighted columns, so a sin slot
        # sums -Im; ana_scale also holds each order's factor k
        wq = self.wlat * self.dphi
        if self.nlat % 2:
            wq[nh - 1] *= 0.5
        inv_sin = 1.0 / self.sin_t[self.north]
        m_pair = np.stack((np.arange(self.npair), (lmax | 1) - np.arange(self.npair)), axis=-1)
        self.synth_w = np.stack(
            np.broadcast_arrays(inv_sin[:, None], 1j * m_pair[:, None] * inv_sin[:, None])
        )
        self.lat_w = wq.astype(np.complex128)[:, None]
        wn = -wq[self.north] * inv_sin
        wn = np.stack((wn, 1j * wn), axis=-1)[..., None]
        self.ana_w = np.broadcast_to(wn, (self.npair, nh, 2, 2))
        self.ana_scale = sign * k[np.abs(order)]
        # scatter of a flow analysis: each slot's (parity, block, row, order
        # in block, member) and the weights of its theta sum (times m, the
        # i m of d/dphi) and of its phi sums at degree n + 1 and n - 1 (D^T)
        at = np.empty(self.slots.size, dtype=np.int64)
        at[self.slots.ravel()] = np.arange(self.slots.size)
        self.slot_at = np.unravel_index(at[: self.n_modes], self.slots.shape)
        p, j, r = self.slot_at[:3]
        w = self.row_w[1, p, j, r + p], self.row_w[2, p, j, r - 1 + p]
        self.flow_w = (-self.ana_scale / self.lam * np.stack((np.abs(order),) + w))[:, None]
        self.table_tk = self.table_t[:, :, None]
        self.qw = self.wlat * self.dphi
        self._work = _WorkspaceCache(_SphereWork)

    def workspace(self, b):
        return self._work(self, b)

    def to_rows(self, psis, hs):
        """Stacked slot states -> core rows: a copy of psis."""
        _check_states(self, psis, hs)
        return np.array(psis, dtype=np.float64)

    def from_rows(self, rows):
        """Core rows -> (psis, hs), new arrays."""
        return rows.copy(), np.zeros((len(rows), 0))

    # -- paired, parity-folded Legendre stage ----------------------------

    def _gather(self, ws, coeffs):
        """(B, n_modes) -> scaled psi rows (2, npair, nrp, 4B), ws.psi_rows.

        Columns are (order in block, field, cos|sin).
        """
        np.multiply(coeffs, self.pad_scale, out=ws.pad_rows)
        np.take(ws.pad, ws.gather, out=ws.psi, mode="clip")

    def _pairs(self, x):
        """(order in block, blocks, view of x) for the first and the second
        orders of the blocks, x indexed by m on its first axis."""
        return (
            (0, slice(None), x[: self.npair]),
            (1, slice(self.lone, None), x[::-1][: self.npair - self.lone]),
        )

    # -- scalar --------------------------------------------------------

    def synthesize(self, coeffs):
        ws = self.workspace(len(coeffs))
        self._gather(ws, coeffs)
        np.matmul(self.table_t, ws.psi_rows, out=ws.sums_p)
        _unfold(*ws.unfold_p)
        return np.fft.irfft(ws.spec_p, n=self.nlon, axis=-1)

    def analyze(self, f):
        ws = self.workspace(len(f))
        cols = ws.cols_p
        np.fft.rfft(f, axis=-1, out=ws.spec_ap)
        np.multiply(cols, self.lat_w, out=cols)
        _fold(*ws.fold_p)
        # the sums go where a flow analysis has its theta sums
        np.matmul(ws.rows_p, self.table_t, out=ws.sums_theta)
        p = np.take(ws.sums_a, ws.scatter[0], mode="clip")
        return np.multiply(p, self.ana_scale, out=p)

    # -- flow ----------------------------------------------------------

    def row_synthesis(self, rows, ws, out=None):
        """The flow synthesis of core rows, ws their row count's workspace."""
        self._gather(ws, rows)
        # D psi: row i of parity p takes lo psi[1 - p, i - 1 + p] + hi
        # psi[1 - p, i + p], rows flat over block and row; ws.links line
        # those rows of parity 1 - p up with row i, and the lo products go
        # through the -lam psi rows
        (below, above), (lo_out, hi_out) = ws.links, ws.link_out
        (lam, lo, hi), (vort, d, psi_rows) = ws.row_w, ws.flat
        np.multiply(below, lo, out=lo_out)
        np.multiply(above, hi, out=hi_out)
        np.add(d, vort, out=d)
        np.multiply(psi_rows, lam, out=vort)
        np.matmul(self.table_tk, ws.comps_k, out=ws.sums_k)
        for grad in ws.grad_sums:
            np.multiply(grad, ws.synth_w, out=grad)
        _unfold(*ws.unfold)
        return np.fft.irfft(ws.spec_t, n=self.nlon, axis=-1, out=out)

    def row_analysis(self, g, ws):
        """The flow analysis of g as core rows, ws the row count's workspace."""
        np.fft.rfft(g, axis=-1, out=ws.spec_a)
        _fold(*ws.fold_a)
        for rows in ws.rows_a:
            np.multiply(rows, ws.ana_w, out=rows)
        np.matmul(ws.rows_at, self.table_t, out=ws.sums_flow)
        # each slot reads the theta sum of its row and, times the weights of
        # D^T, the phi sums of its rows of degree n + 1 and n - 1; each
        # order's folded rows meet every row of its block, so the sums hold
        # products with the partner order's rows too, which it drops
        v = np.take(ws.sums_a, ws.scatter, out=ws.parts, mode="clip")
        np.multiply(v, self.flow_w, out=v)
        return np.add.reduce(v)


class _SphereWork(_Workspace):
    """Reused buffers of one sphere plan for B stacked fields, and views of them.

    pad holds the scaled coefficient rows, then one zero, and gather the
    flat take-index of every psi row entry: the rows of parity 0, two zero
    rows, then those of parity 1, into psi.  Read as (parity 0 and a zero
    row, a zero row and parity 1), psi lines each parity's rows of degree
    n - 1 and n + 1 up with the other's row of degree n, at rows i and
    i + 1: links holds those two views.  rows holds the synthesis rows
    (-lam psi, D psi, psi), comps their (3, 2, npair, nrp, 4B) view, each
    row's 4B columns contiguous, and row_w their weights (-lam, lo, hi, as
    core.row_w) repeated over the columns, so that each pass runs flat over
    whole rows: 0.37 MB each at L=85 for one row.  The synthesis sums are
    laid out (2, 3, npair, nh, 4B), so the gradient sums of one parity are
    contiguous for their weights, synth_w.  The analysis sums sums_a
    (2, npair, (phi, theta), 4B, nrp) take the head of rows; scatter holds
    the three positions in them that each slot reads, weighted by
    core.flow_w.  The folded analysis rows, weighted by ana_w, and the
    products of the scatter live in the synthesis sums, which no analysis
    reads.  rows lives in the head of g and the sums in that of grids: a
    synthesis writes grids in its last FFT, after its matmul and unfold,
    the right-hand side writes g after the synthesis, and an analysis reads
    g in its first FFT only.  The half spectra spec (vorticity, d/dtheta,
    d/dphi) are laid out (m, K, nlat, B), spec_a (B, K, nlat, m), which
    rfft writes with no buffer; spec is zeroed once, its columns beyond
    lmax never written (numpy's irfft is slower on a shorter input that it
    pads itself).  An unfold forms its hemispheres in the head of spec_a
    (of a transposed view it would be a copy), and a fold in the retained
    columns of spec; the other kind of
    transform writes those before it reads them.  The weights of rows and
    sums are repeated to the full shape of what they weight, and weight it
    in contiguous blocks: numpy 2 copies an operand it broadcasts over an
    outer axis, or an in-place operand that is not contiguous, into a
    temporary (0.37 MB at L=21 for 9 rows), which, trimmed off the heap and
    faulted back in, costs more than the weights.  The scalar transforms use
    the leading parts (sums_p, spec_ap) of the flow buffers.  Every view a
    transform passes to numpy is made here once: at small sizes, making
    them costs as much as the arithmetic.
    """

    def __init__(self, core, b):
        npair, nh, nrp = core.npair, core.nh, core.table.shape[2]
        nlat, nlon, n = core.nlat, core.nlon, core.n_modes
        nfreq = nlon // 2 + 1
        self.pad = np.zeros(b * n + 1)
        self.pad_rows = self.pad[:-1].reshape(b, n)
        slots = core.slots[..., None, :] + (np.arange(b) * n)[:, None]
        idx = np.where(core.slots[..., None, :] < n, slots, b * n).reshape(2, -1)
        size, row = idx.shape[1], 4 * b
        self.gather = np.concatenate((idx[0], np.full(2 * row, b * n), idx[1]))
        # the rows live in the head of g, and the sums in that of grids: a
        # synthesis writes grids after its unfold, and the right-hand side g
        # after the synthesis; an analysis reads g only in its first FFT
        rows, sums = (3, 2, size + 2 * row), (2, 3, npair, nh, row)
        grids, g = (b, 3, nlat, nlon), (b, 2, nlat, nlon)
        grid_buf, g_buf = (
            np.empty(max(math.prod(a), math.prod(c))) for a, c in ((grids, sums), (g, rows))
        )
        self.grids, self.g = _head(grid_buf, grids), _head(g_buf, g)
        self.rows = _head(g_buf, rows)
        self.psi = self.rows[2].reshape(-1)[: self.gather.size]
        x = self.psi.reshape(2, -1)
        self.links = x[:, :size], x[:, row:]
        self.comps = self.rows[..., :size].reshape(3, 2, npair, nrp, row)
        self.comps_k = self.comps.transpose(1, 2, 0, 3, 4)
        self.psi_rows = self.comps[2]
        self.flat = self.comps.reshape(3, 2, size)
        self.link_out = self.flat[0, ::-1], self.flat[1, ::-1]
        self.row_w = np.broadcast_to(core.row_w[..., None], self.comps.shape).reshape(3, 2, size)
        self.sums_a = _head(self.rows, (2, npair, 2, row, nrp))
        self.sums_flow = self.sums_a.reshape(2, npair, 2 * row, nrp)
        self.sums_theta = self.sums_a[:, :, 1]
        # per slot: its theta sum, then the phi sums at degree n + 1 (row
        # r + p of the other parity) and n - 1 (row r - 1 + p)
        p, j, r, o, c = core.slot_at
        col = (o * b + np.arange(b)[:, None]) * 2 + c
        at = np.ravel_multi_index((p, j, 1, col, r), self.sums_a.shape)
        up = at + (1 - 2 * p) * self.sums_a[0].size - row * nrp + p
        self.scatter = np.stack((at, up, up - 1))
        self.sums = _head(grid_buf, sums)
        self.sums_k = self.sums.transpose(0, 2, 1, 3, 4)
        self.grad_sums = tuple(self.sums.view(np.complex128).reshape(2, 3, npair, nh, 2, b)[:, 1:])
        self.spec = np.zeros((nfreq, 3, nlat, b), dtype=np.complex128)
        self.spec_t = self.spec.transpose(3, 1, 2, 0)
        self.spec_p = self.spec[:, 0].T
        # analysis: component spectra, folded rows, products of the scatter
        self.spec_a = np.empty((b, 2, nlat, nfreq), dtype=np.complex128)
        rows_a = _head(self.sums, (2, npair, nh, 8 * b))
        self.rows_at = rows_a.swapaxes(2, 3)
        self.rows_a = tuple(rows_a.view(np.complex128).reshape(2, npair, nh, 2, 2, b))
        self.parts = _head(self.sums, self.scatter.shape)
        self.synth_w, self.ana_w = (
            np.ascontiguousarray(np.broadcast_to(w[..., None], w.shape + (b,)))
            for w in (core.synth_w, core.ana_w)
        )
        self.sums_p = _head(self.sums, (2, npair, nh, row))
        self.rows_p = self.sums_p.swapaxes(2, 3)
        self.spec_ap = _head(self.spec_a, (b, nlat, nfreq))
        self.cols_p = self.spec_ap[..., : core.lmax + 1]
        # components (phi, theta)
        cols_a = self.spec_a.transpose(3, 1, 2, 0)[: core.lmax + 1, ::-1]
        self.unfold = self._unfold_plan(core, self.sums, self.spec[: core.lmax + 1])
        self.unfold_p = self._unfold_plan(core, self.sums_p, self.spec[: core.lmax + 1, :1])
        self.fold_a = self._fold_plan(core, cols_a, rows_a)
        cols_p = self.cols_p[:, None].transpose(3, 1, 2, 0)
        self.fold_p = self._fold_plan(core, cols_p, self.sums_p)
        self._bind_rhs()

    def _unfold_plan(self, core, sums, spec):
        """Views of an unfold, block sums (2, K, npair, nh, 4B) -> columns
        (lmax + 1, K, nlat, B) of half spectra, as `_unfold` takes them.

        A field's (cos, sin) sums land as (re, im): the sin coefficients come
        in negated.  The even plus the odd sums (northern latitudes), then
        their difference (the mirrored southern ones), are formed over the
        whole contiguous sums, in the block layout, into spec_a, which a
        synthesis does not read; copies take each order in block to its
        columns, reversing the latitudes of the northern half.
        """
        k = spec.shape[1]
        s = sums.view(np.complex128).reshape(2, k, core.npair, core.nh, 2, -1)
        h = _head(self.spec_a, s.shape[1:])
        halves = tuple(
            (add, tuple(
                (cols, h[:, blocks, : cols.shape[2], o].swapaxes(0, 1))
                for o, blocks, cols in core._pairs(spec[:, :, lat])
            ))
            for add, lat in ((np.add, core.north), (np.subtract, slice(core.nlat - core.nh)))
        )
        return s[0], s[1], h, halves

    def _fold_plan(self, core, cols, rows):
        """Views of a fold, weighted columns (lmax + 1, K, nlat, B) ->
        hemisphere sums and differences, as `_fold` takes them.

        Copies take each component of each order's two hemispheres, pole to
        equator, to its place in the block layout, in the retained columns
        of spec, which every synthesis writes before it reads them; the
        sums then go to parity 0 and the differences to parity 1 of the
        analysis rows (2, npair, nh, 4KB), as every component has the
        parity of P.  A lone order's empty partner is zeroed: only products
        the scatter drops read it.
        """
        shape = (2, core.npair, core.nh, cols.shape[1], 2, cols.shape[3])
        h = _head(self.spec[: core.lmax + 1], shape)
        copies = tuple(
            (h[half, blocks, :, j, o], part[:, j])
            for half, lat in enumerate((core.north, slice(core.nh)))
            for o, blocks, part in core._pairs(cols[:, :, lat])
            for j in range(shape[3])
        )
        even, odd = rows.view(np.complex128).reshape(shape)
        return h[:, : core.lone, ..., 1, :], copies, h[0], h[1], even, odd


def _unfold(even, odd, h, halves):
    """Run an unfold `_SphereWork._unfold_plan` made: per half, even + odd
    or even - odd into h, then its copies."""
    for add, copies in halves:
        add(even, odd, out=h)
        for dst, src in copies:
            np.copyto(dst, src)


def _fold(lone, copies, h0, h1, even, odd):
    """Run a fold `_SphereWork._fold_plan` made."""
    lone.fill(0.0)
    for dst, src in copies:
        np.copyto(dst, src)
    np.add(h0, h1, out=even)
    np.subtract(h0, h1, out=odd)


def _check_states(core, psis, hs):
    """ShapeError unless psis and hs stack the slot rows and harmonic pairs
    of states of the core's plan, one each per row."""
    if psis.shape[1:] != (core.n_modes,) or hs.shape != (len(psis), core.n_harmonic):
        raise ShapeError(
            f"row shapes {psis.shape}/{hs.shape} do not match plan "
            f"({core.n_modes} modes, {core.n_harmonic} harmonic)"
        )


def _head(buf, shape):
    """The contiguous leading part of buf, as an array of the given shape."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


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
        from .fourier import _TorusCore  # here: fourier imports from this module

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
    """The index pair (n, m) or (k1, k2) as ints; IndexRangeError unless both
    parts are integers (Python or numpy ones, not bools) within the truncation."""
    if any(isinstance(part, bool) or not isinstance(part, (int, np.integer)) for part in index):
        raise IndexRangeError(f"mode indices must be integers, got {index!r}")
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


def mode_index(plan, slot):
    """Spectral index of a flat slot as a pair of ints: the inverse of `mode_slot`."""
    slot = int(slot)
    if plan.geometry.kind == SPHERE:
        n = math.isqrt(slot + 1)  # slot + 1 = n^2 + n + m with |m| <= n
        return n, slot + 1 - n * n - n
    a, b = plan.core.qvec[slot]
    return int(a), int(b)


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
    core = plan.core
    # a zero pair: the gradient grids are grad psi alone
    x = core.to_rows(rows, np.zeros((len(rows), plan.n_harmonic)))
    grids = _unrows(core.row_synthesis(x, core.workspace(len(x))), lead, 3)
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
    core = plan.core
    p, q = core.from_rows(core.row_analysis(rows, core.workspace(len(rows))))
    return _unrows(p, lead, 1), _unrows(q, lead, 1)


def integrate(plan, f):
    """Surface integral over the last two (grid) axes, leading axes kept.

    Grid row j weighs each of its points by qw[j]: its Gauss weight times
    dphi on the sphere, (L / N)^2 on the torus."""
    f = np.asarray(f, dtype=np.float64)
    _check_field(plan, f)
    out = np.einsum("...jk,j->...", f, plan.core.qw)
    return float(out) if out.ndim == 0 else out
