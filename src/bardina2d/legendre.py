"""The sphere transform core: latitude rule, table of associated Legendre
values, and the transforms that use them.

`gauss_legendre` gives the Gauss-Legendre nodes and weights the sphere grid
uses; `paired_degrees` lays the table rows out, pairing orders so the
parity-folded table has no triangle of zero rows, and `legendre_table`
fills them with P_n^m up to degree lmax + 1 by the three-term recurrence,
whose coefficients `epsilon` gives.  `basis.build_plan` builds a
`_SphereCore` for a sphere geometry, which holds the table; the basis and
its slot order are described in the `basis` module docstring, and the
plan interface there is the way in.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import SPHERE, _check_states, _fast_even, _Workspace, _WorkspaceCache, mode_count

# longest sphere longitude line (nlon) that a plan transforms by one matrix
# product against a cos/sin table (L <= 37); longer lines go through
# np.fft.  In a sphere right-hand side of 1 and 9 rows the matmul took
# 0.68-0.99 of the FFT's time up to nlon = 112, 0.99-1.07 at nlon = 120 and
# 128 (L = 38 and 42) and 1.3-1.5 at nlon = 256 (L = 85)
LON_MATMUL_MAX = 112


def gauss_legendre(n):
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


def epsilon(n, m):
    """e_n^m = sqrt((n^2 - m^2) / (4 n^2 - 1)): mu P_n^m = e_{n+1} P_{n+1}^m + e_n P_{n-1}^m."""
    return np.sqrt((n * n - m * m) / (4.0 * n * n - 1.0))


def paired_degrees(lmax):
    """Degree n and order m of each table row (parity, j, r), in closed form.

    Block j holds the rows of order j, then those of order top - j, top
    being lmax rounded up to odd; an order m has (lmax + 1 - m) // 2 + 1
    rows, row i of parity p holding degree m + 2 i + p, so every block is
    full but for at most one padding row per parity; pairing j with
    lmax - j at even lmax would leave two in half the blocks.  For even
    lmax, order 0 stands alone (order lmax + 1 has no modes).  Padding
    rows, and the odd rows past degree lmax + 1, have n = lmax + 2.
    """
    j = np.arange((lmax + 2) // 2)[:, None]
    r, c = np.arange((lmax + 1) // 2 + 2), (lmax + 1 - j) // 2 + 1
    m = np.where(r < c, j, (lmax | 1) - j)
    n = m + 2 * np.where(r < c, r, r - c) + np.arange(2)[:, None, None]
    return np.where((n <= lmax + 1) & (m <= lmax), n, lmax + 2), np.broadcast_to(m, n.shape)


def legendre_table(lmax, degrees, mu, sin_t):
    """The paired table of P_n^m at latitudes mu: (2, npair, nrp, nlat).

    Rows as `paired_degrees` lays them out (its result is `degrees`), zero
    in padding rows.  Orthonormal associated Legendre values (the square
    integrates to 1 over mu in [-1, 1], Condon-Shortley phase): the
    diagonal P_m^m, then mu P_n = e_{n+1} P_{n+1} + e_n P_{n-1} along
    k = n - m for every order m at once, up to degree lmax + 1.
    """
    nm = lmax + 1
    n_row, m_row = degrees
    table = np.zeros(n_row.shape + mu.shape)
    m = np.arange(nm)[:, None].astype(np.float64)
    # diagonal seeds P_m^m
    factors = -np.sqrt((2.0 * m[1:] + 1.0) / (2.0 * m[1:])) * sin_t
    p = np.cumprod(np.vstack((np.full_like(mu, 1.0 / math.sqrt(2.0)), factors)), axis=0)
    q = np.zeros_like(p)
    for k in range(nm + 1):
        if k:
            # orders whose degree m + k is at most lmax + 1
            mk = m[: nm + 1 - k]
            p, q = p[: len(mk)], q[: len(mk)]
            p, q = (mu * p - epsilon(mk + k - 1.0, mk) * q) / epsilon(mk + k, mk), p
        at = (n_row - m_row == k) & (n_row <= nm)
        table[at] = p[m_row[at]]
    return table


# ---------------------------------------------------------------------------
# sphere transform core


class _SphereCore:
    """Latitude table and longitude stage for one sphere truncation.

    The Legendre stage is parity-folded as in SHTns (Schaeffer 2013): on the
    symmetric Gauss grid P_n^m(-mu) = (-1)^(n + m) P_n^m(mu), so one table
    of P over the nh = (nlat + 1) // 2 northern latitudes, pole to equator,
    serves both hemispheres.  Its rows are paired by order
    (`paired_degrees`): block j of parity p holds the degrees
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
    sums, so it reads as one complex number.  The longitude stage is chosen
    once, from nlon.  Up to LON_MATMUL_MAX points, lon is a C-ordered
    (2 (lmax + 1), nlon) table, rows cos(m phi) and -sin(m phi) of each
    order: a synthesis multiplies the retained half spectra, laid out
    (B, K, nlat, lmax + 1) for K stacked components and B fields and read
    as (B K nlat, 2 (lmax + 1)) reals, by lon, straight into the grids, and
    an analysis the grid lines (B K nlat, nlon) by lon_t, its transposed
    view, into a spectrum of the same layout.  The synthesis weights
    pad_scale then hold each order's factor k alone, where irfft, which
    divides by nlon, takes (nlon / 2) k, and nlon k for the constant.
    Past the crossover irfft reads, and rfft writes, spectra of that
    layout with nlon // 2 + 1 columns, the synthesis ones zeroed past lmax
    by each synthesis.  Either way an unfold writes, and a fold reads, their
    (m, K, nlat, B) view.  The one synthesis, the flow synthesis of core
    rows, gathers the rows of psi,
    whose columns are (order in block, field, cos|sin), so the column of
    one order takes zeros on the other's rows; it forms
    -lam psi and D psi beside them and makes one matmul of table_t, the
    transposed view of the table, batched over (parity, block, component);
    an unfold adds the even and odd sums on the northern latitudes and
    subtracts them on the mirrored southern ones.  Analysis folds the
    spectrum columns of the two hemispheres into the even and odd
    combinations, both orders of a block side by side, and makes one
    matmul per (parity, block) of the folded rows of every component
    against table_t: it multiplies each order's rows with its partner's
    too, twice the flops for half the table bytes, and the scatter drops
    those products.  The unfold and the fold run their additions over
    whole contiguous buffers and move each order between the block layout
    and the spectrum by copies.  Both matmuls take a transposed view as
    their left operand; so laid out, the rows of a field round the same
    however many fields are stacked with it, and so does the longitude
    analysis, its table a transposed view of a C-ordered array (with a
    C-ordered one, row 0 of 9 stacked fields rounded otherwise than alone).
    The weights per latitude are
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

        # longitude stage: up to LON_MATMUL_MAX points a matrix product
        # against lon, rows cos(m phi) and -sin(m phi) of each order m,
        # read off cos and sin of 2 pi i / nlon at i = m j mod nlon; its
        # transposed view lon_t gives a line's half spectrum, as rfft does
        self.lon = self.lon_t = None
        if self.nlon <= LON_MATMUL_MAX:
            i = np.arange(self.nlon)
            turn = [2.0 * math.pi * a / self.nlon for a in i]
            at = np.arange(nm)[:, None] * i % self.nlon
            cos, sin = (np.array([f(t) for t in turn])[at] for f in (math.cos, math.sin))
            self.lon = np.stack((cos, -sin), axis=1).reshape(2 * nm, self.nlon)
            self.lon_t = self.lon.T
        k = np.full(nm, 1.0 / math.sqrt(math.pi))
        k[0] = 1.0 / math.sqrt(2.0 * math.pi)
        # spectrum weight of k cos(m phi): k against lon; (nlon / 2) k under
        # irfft, nlon k for the constant; a sin(m phi) coefficient b enters
        # as -i b
        ks = k
        if self.lon is None:
            ks = 0.5 * self.nlon * k
            ks[0] *= 2.0
        sign = np.where(order < 0, -1.0, 1.0)
        self.pad_scale = sign * ks[np.abs(order)]
        # weights: the flow transforms weight their sums, at the northern
        # latitudes, by 1 / sin(theta) (D psi) and i m / sin(theta)
        # (d/dphi of psi), and their folded rows by -wq / sin(theta) (g_phi)
        # and -i wq / sin(theta) (g_theta, as n x g = (-g_phi, g_theta); the
        # m goes to flow_w), wq the quadrature weight, pole to equator
        # (lat_w): all are even in latitude.  An equator row (odd nlat) is
        # folded into both hemispheres at half weight.  The analysis rows
        # are (Re, Im) of the weighted columns, so a sin slot sums -Im;
        # ana_scale also holds each order's factor k
        wq = self.wlat * self.dphi
        if self.nlat % 2:
            wq[nh - 1] *= 0.5
        inv_sin = 1.0 / self.sin_t[self.north]
        m_pair = np.stack((np.arange(self.npair), (lmax | 1) - np.arange(self.npair)), axis=-1)
        self.synth_w = np.stack(
            np.broadcast_arrays(inv_sin[:, None], 1j * m_pair[:, None] * inv_sin[:, None])
        )
        self.lat_w = wq[self.north]
        wn = -self.lat_w * inv_sin
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
        """(B, n_modes) -> scaled psi rows (2, npair, nrp, 4B), ws.comps[2].

        Columns are (order in block, field, cos|sin).
        """
        np.multiply(coeffs, ws.pad_scale, out=ws.pad_rows)
        np.take(ws.pad, ws.gather, out=ws.psi, mode="clip")

    def _pairs(self, x):
        """(order in block, blocks, view of x) for the first and the second
        orders of the blocks, x indexed by m on its first axis."""
        return (
            (0, slice(None), x[: self.npair]),
            (1, slice(self.lone, None), x[::-1][: self.npair - self.lone]),
        )

    # -- longitude stage ---------------------------------------------

    def _lon_synthesis(self, spec, out=None):
        """Grid lines (B, K, nlat, nlon) of half spectra spec (B, K, nlat, m),
        into out when given (C-contiguous)."""
        if self.lon is None:
            return np.fft.irfft(spec, n=self.nlon, axis=-1, out=out)
        if out is None:
            out = np.empty(spec.shape[:-1] + (self.nlon,))
        lines = spec.view(np.float64).reshape(-1, len(self.lon))
        np.matmul(lines, self.lon, out=out.reshape(-1, self.nlon))
        return out

    def _lon_analysis(self, f, spec):
        """Half spectra of grid lines f (B, K, nlat, nlon) into spec, C-contiguous."""
        if self.lon is None:
            np.fft.rfft(f, axis=-1, out=spec)
        else:
            lines = spec.view(np.float64).reshape(-1, len(self.lon))
            np.matmul(f.reshape(-1, self.nlon), self.lon_t, out=lines)

    # -- scalar analysis -----------------------------------------------

    def analyze(self, f):
        """<f, Y_s> of grid rows f (B, nlat, nlon), off the workspaces: each
        slot sums its order's northern half spectra plus (parity 0) or minus
        the southern ones against lat_w times its table row, Re for cos and
        Im for sin."""
        spec = np.fft.rfft(f)
        north, south = spec[:, self.north], spec[:, : self.nh]
        p, j, r, o, c = self.slot_at
        m = np.where(o == 0, j, (self.lmax | 1) - j)
        folded = np.stack((north + south, north - south))[p, :, :, m]
        sums = np.einsum("nbl,l,nl->bn", folded, self.lat_w, self.table[p, j, r])
        return np.where(c == 0, sums.real, sums.imag) * self.ana_scale

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
        ws.spec_pad.fill(0.0)
        return self._lon_synthesis(ws.spec, out)

    def row_analysis(self, g, ws):
        """The flow analysis of g as core rows, ws the row count's workspace."""
        self._lon_analysis(g, ws.spec_a)
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

    pad holds the coefficient rows scaled by pad_scale, then one zero, and
    gather the flat take-index of every psi row entry: the rows of parity 0,
    two zero rows, then those of parity 1, into psi.  Read as (parity 0 and
    a zero row, a zero row and parity 1), psi lines each parity's rows of
    degree n - 1 and n + 1 up with the other's row of degree n, at rows i
    and i + 1: links holds those two views.  rows holds the synthesis rows
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
    reads.  rows and then the synthesis half spectra spec (vorticity,
    d/dtheta, d/dphi) live in the head of g, and the sums in that of
    grids: a synthesis writes spec after its matmul and grids in its
    longitude stage, after its unfold, the right-hand side writes g after
    the synthesis, and an analysis reads g in its longitude stage only.
    spec and the analysis half spectra spec_a (the components of g) are
    C-contiguous (B, K, nlat, m) arrays, which the longitude stage reads
    and writes with no buffer: m is lmax + 1 for a longitude matmul and
    nlon // 2 + 1 for an FFT.  An unfold writes spec through its
    (m, K, nlat, B) view, and each synthesis zeroes its columns beyond
    lmax, spec_pad (empty for a longitude matmul): numpy's irfft is slower
    on a shorter input that it pads itself, and in a buffer of its own,
    where the (B, K, nlat, m) layout spreads those columns over every
    page, they would add 0.27 MB at L=85 for one row.  An unfold forms its
    hemispheres in the head of spec_a's buffer, sized for them, which no
    synthesis reads, and a fold its blocks in the head of g, which the
    analysis has read by then.  The weights of rows and sums, and
    pad_scale, are repeated to the full shape of what they weight (at
    B = 1 pad_scale is a view of the core's), and weight it in contiguous
    blocks: numpy 2 copies an operand it broadcasts, or an in-place
    operand that is not contiguous, into a temporary (0.37 MB at L=21 for
    9 rows), which, trimmed off the heap and faulted back in, costs more
    than the weights.  Every view a
    transform passes to numpy is made here once, but for the line views of
    a longitude matmul (about 1.5 us a right-hand side): at small sizes,
    making them costs as much as the arithmetic.
    """

    def __init__(self, core, b):
        npair, nh, nrp = core.npair, core.nh, core.table.shape[2]
        nlat, nlon, n, nm = core.nlat, core.nlon, core.n_modes, core.lmax + 1
        self.pad = np.zeros(b * n + 1)
        self.pad_rows = self.pad[:-1].reshape(b, n)
        self.pad_scale = np.ascontiguousarray(np.broadcast_to(core.pad_scale, (b, n)))
        slots = core.slots[..., None, :] + (np.arange(b) * n)[:, None]
        idx = np.where(core.slots[..., None, :] < n, slots, b * n).reshape(2, -1)
        size, row = idx.shape[1], 4 * b
        self.gather = np.concatenate((idx[0], np.full(2 * row, b * n), idx[1]))
        # the rows, the synthesis spectra and a fold's blocks (of 2
        # components) live in the head of g, and the sums in that of grids:
        # a synthesis writes its spectra after its matmul and grids after
        # its unfold, and the right-hand side g after the synthesis; an
        # analysis reads g only in its first transform.  The spectra are
        # (B, K, nlat, m), m up to lmax for a longitude matmul
        ncol = nlon // 2 + 1 if core.lon is None else nm
        rows, sums, spec = (3, 2, size + 2 * row), (2, 3, npair, nh, row), (b, 3, nlat, ncol)
        grids, g = (b, 3, nlat, nlon), (b, 2, nlat, nlon)
        grid_buf = np.empty(max(math.prod(grids), math.prod(sums)))
        g_buf = np.empty(
            max(math.prod(g), math.prod(rows), 16 * npair * nh * b, 2 * math.prod(spec))
        )
        self.grids, self.g = _head(grid_buf, grids), _head(g_buf, g)
        self.rows = _head(g_buf, rows)
        self.spec = _head(g_buf.view(np.complex128), spec)
        self.spec_pad = self.spec[..., nm:]
        self.psi = self.rows[2].reshape(-1)[: self.gather.size]
        x = self.psi.reshape(2, -1)
        self.links = x[:, :size], x[:, row:]
        self.comps = self.rows[..., :size].reshape(3, 2, npair, nrp, row)
        self.comps_k = self.comps.transpose(1, 2, 0, 3, 4)
        self.flat = self.comps.reshape(3, 2, size)
        self.link_out = self.flat[0, ::-1], self.flat[1, ::-1]
        self.row_w = np.broadcast_to(core.row_w[..., None], self.comps.shape).reshape(3, 2, size)
        self.sums_a = _head(self.rows, (2, npair, 2, row, nrp))
        self.sums_flow = self.sums_a.reshape(2, npair, 2 * row, nrp)
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
        # analysis: component spectra, in a buffer an unfold's hemispheres
        # fit too, folded rows, products of the scatter
        spec_a = (b, 2, nlat, ncol)
        a_buf = np.empty(max(math.prod(spec_a), 6 * npair * nh * b), dtype=np.complex128)
        self.spec_a = _head(a_buf, spec_a)
        rows_a = _head(self.sums, (2, npair, nh, 8 * b))
        self.rows_at = rows_a.swapaxes(2, 3)
        self.rows_a = tuple(rows_a.view(np.complex128).reshape(2, npair, nh, 2, 2, b))
        self.parts = _head(self.sums, self.scatter.shape)
        self.synth_w, self.ana_w = (
            np.ascontiguousarray(np.broadcast_to(w[..., None], w.shape + (b,)))
            for w in (core.synth_w, core.ana_w)
        )
        # columns (m, K, nlat, B) of the spectra, analysis components (phi, theta)
        cols_a = self.spec_a.transpose(3, 1, 2, 0)[:nm, ::-1]
        spec = self.spec.transpose(3, 1, 2, 0)[:nm]
        self.unfold = self._unfold_views(core, self.sums, spec, a_buf)
        fold = g_buf.view(np.complex128)
        self.fold_a = self._fold_views(core, cols_a, rows_a, fold)
        self._bind_rhs()

    def _unfold_views(self, core, sums, spec, scratch):
        """Views of an unfold, block sums (2, K, npair, nh, 4B) -> columns
        (lmax + 1, K, nlat, B) of half spectra, as `_unfold` takes them.

        A field's (cos, sin) sums land as (re, im): the sin coefficients come
        in negated.  The even plus the odd sums (northern latitudes), then
        their difference (the mirrored southern ones), are formed over the
        whole contiguous sums, in the block layout, into the head of
        spec_a's buffer, which a synthesis does not read; copies take each
        order in block to its
        columns, reversing the latitudes of the northern half.
        """
        k = spec.shape[1]
        s = sums.view(np.complex128).reshape(2, k, core.npair, core.nh, 2, -1)
        h = _head(scratch, s.shape[1:])
        halves = tuple(
            (add, tuple(
                (cols, h[:, blocks, : cols.shape[2], o].swapaxes(0, 1))
                for o, blocks, cols in core._pairs(spec[:, :, lat])
            ))
            for add, lat in ((np.add, core.north), (np.subtract, slice(core.nlat - core.nh)))
        )
        return s[0], s[1], h, halves

    def _fold_views(self, core, cols, rows, scratch):
        """Views of a fold, columns (lmax + 1, K, nlat, B) -> hemisphere sums
        and differences, as `_fold` takes them.

        Copies take each component of each order's two hemispheres, pole to
        equator, to its place in the block layout, in the head of g, which
        an analysis reads in its first transform only; the sums then go to
        parity 0 and the differences to parity 1 of the analysis rows
        (2, npair, nh, 4KB), as every component has the parity of P.  A lone
        order's empty partner is zeroed: only products the scatter drops
        read it.
        """
        shape = (2, core.npair, core.nh, cols.shape[1], 2, cols.shape[3])
        h = _head(scratch, shape)
        copies = tuple(
            (h[half, blocks, :, j, o], part[:, j])
            for half, lat in enumerate((core.north, slice(core.nh)))
            for o, blocks, part in core._pairs(cols[:, :, lat])
            for j in range(shape[3])
        )
        even, odd = rows.view(np.complex128).reshape(shape)
        return h[:, : core.lone, ..., 1, :], copies, h[0], h[1], even, odd


def _unfold(even, odd, h, halves):
    """Run an unfold `_SphereWork._unfold_views` made: per half, even + odd
    or even - odd into h, then its copies."""
    for add, copies in halves:
        add(even, odd, out=h)
        for dst, src in copies:
            np.copyto(dst, src)


def _fold(lone, copies, h0, h1, even, odd):
    """Run a fold `_SphereWork._fold_views` made."""
    lone.fill(0.0)
    for dst, src in copies:
        np.copyto(dst, src)
    np.add(h0, h1, out=even)
    np.subtract(h0, h1, out=odd)


def _head(buf, shape):
    """The contiguous leading part of buf, as an array of the given shape."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)
