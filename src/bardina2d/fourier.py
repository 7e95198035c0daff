"""The torus transform core: separable real DFTs by partial summation.

`basis.build_plan` builds a `_TorusCore` for a torus geometry; the basis
and its slot order are described in the `basis` module docstring, and the
plan interface there is the way in.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import (
    TORUS,
    _check_states,
    _fast_even,
    _Workspace,
    _WorkspaceCache,
    mode_count,
)


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
    (link 1).

    Core rows (ncols = (2K + 1)^2 + 2 columns) are M flat, then the
    harmonic pair, and every transform works on them.  to_rows takes both
    links of every entry from the coefficients, a zero slot appended,
    weights them by entry_w (+-sqrt(2) / L) and adds; from_rows is the
    transposed map, each slot the sum of its two entries times unpack_w.
    The functions cos/sin(a x) cos/sin(b y) of the entries are orthogonal,
    and the two slots an entry pair shares have one |k|^2, so the entries
    diagonalize what the slots do: lam per entry (row_lam, 0 on the
    constant entry, which no slot reaches and which holds exactly 0, and
    on the pair); row_scale is 1 / sum_link entry_w^2 (1 on the pair, 0 on
    the constant entry), so a row's squares times it sum to its slots'
    squares.  A slot's analysis is the sum of its two entries' quadrature
    sums times ana_w = qw entry_w; to_rows of it is each entry's sum times
    qw sum_link entry_w^2, so it is from_rows of the sums weighed by that
    (row_ana_w, 0 on the constant entry and on the pair), and the flow
    analysis is the same over lam (row_flow_w, whose 1 / N^2 on the pair
    makes its sums means).  unpack_w, ana_w times the entries' row_scale
    over qw, is computed once.

    There is one synthesis, and M is the head of the core rows.  The
    row synthesis forms the first products [-lam o M E^T | M E^T | M dE^T]
    and multiplies [E, dE, E] by its thirds, the grids of vorticity, d/dx
    and d/dy.  Those second products take tables_h = [[E | 0], [dE | 1],
    [E | -1]], one more column than tables, against one more row of first
    products, (0, h1, h0) from the rows' tails: the gradient grids come out
    with the harmonic pair n x h = (-h1, h0) subtracted, as -(n x u), at no
    pass of their own.  Analysis writes E^T (f E) into the M of a fresh
    row, weighs it by row_ana_w and returns the psi of its from_rows.  The
    row analysis forms the first products [g_x dE; g_y E] and multiplies
    curl_t = [-E^T | dE^T] by them, one product whose result
    dE^T g_y E - E^T g_x dE is <g, n x grad> of each entry, writes it and
    the sums of g into the rows it returns and weighs them by row_flow_w in
    one pass.  The slot flow pair of `basis` is to_rows, with a zero pair,
    then the row synthesis, and the row analysis then from_rows; the
    scalar synthesis is the vorticity grid of that flow synthesis.  Each
    product is one matmul over the stacked fields, the same BLAS call for
    every field, and takes the workspace of its row count.  The views of
    the tables that the products take (e, e_t, e_tr, de_e) are made here
    once.
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
        self.n_modes, self.n_harmonic = mode_count(TORUS, kmax)
        self.ncols = nb * nb + self.n_harmonic
        q1, q2 = self.qvec.T
        w = 2.0 * np.pi / length
        self.lam = w**2 * (q1 * q1 + q2 * q2)
        self.slot_of = {q[1:]: s for s, q in enumerate(qs)}

        # tables = [E, dE, E]: cos columns a = 0..K, then sin columns a = 1..K,
        # read off cos and sin of 2 pi i / N at i = a j mod N; they view the
        # head of tables_h, whose last column is (0, 1, -1)
        cos = np.array([math.cos(2.0 * math.pi * i / n) for i in range(n)])
        sin = np.array([math.sin(2.0 * math.pi * i / n) for i in range(n)])
        a = np.arange(kmax + 1)
        at = np.outer(np.arange(n), a) % n
        wa = w * a
        self.tables_h = np.zeros((3, n, nb + 1))
        self.tables_h[1:, :, nb] = ((1.0,), (-1.0,))
        self.tables = self.tables_h[..., :nb]
        e, de = self.tables[0], self.tables[1]
        e[:, : kmax + 1], e[:, kmax + 1 :] = cos[at], sin[at[:, 1:]]
        de[:, : kmax + 1], de[:, kmax + 1 :] = -wa * sin[at], wa[1:] * cos[at[:, 1:]]
        self.tables[2] = e
        # [E^T | dE^T] and [-E^T | dE^T], so that no product takes a
        # transposed right operand
        self.tables_t = np.ascontiguousarray(self.tables[:2].reshape(2 * n, nb).T)
        self.curl_t = np.concatenate((-self.tables_t[:, :n], self.tables_t[:, n:]), axis=1)
        self.e, self.e_tr, self.e_t = e, e.T, self.tables_t[:, :n]
        self.de_e = self.tables[1:]
        # lam of every entry of M, flat
        a2 = np.concatenate((a, a[1:])) ** 2
        lam_m = (w**2 * (a2[:, None] + a2[None, :])).ravel()

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
        # per column of the core rows and link: the slot (n_modes, the
        # appended zero, for none, the pair's columns among them) and its
        # weight; per slot: its two entries (0 where a sign is 0)
        link = (k2 < 0).astype(np.int64)
        self.entry_slot = np.full((2, self.ncols), self.n_modes)
        self.entry_w = np.zeros((2, self.ncols))
        for ent, sg in zip(entry, sign):
            on = sg != 0.0
            self.entry_slot[link[on], ent[on]] = np.flatnonzero(on)
            self.entry_w[link[on], ent[on]] = amp * sg[on]
        self.slot_entry = np.where(sign != 0.0, entry, 0)
        self.qw = np.full(n, (length / n) ** 2)
        self.ana_w = amp * self.qw[0] * sign

        # the per-column weights of core rows, as the class docstring says
        links_w2 = np.add(*self.entry_w[:, : nb * nb] ** 2)
        linked = links_w2 > 0.0
        pair = np.zeros(self.n_harmonic)
        self.row_lam = np.concatenate((lam_m, pair))
        self.row_scale = np.concatenate((_ratio(1.0, links_w2, linked), pair + 1.0))
        self.unpack_w = self.ana_w * (self.row_scale[self.slot_entry] / self.qw[0])
        # the row transforms' weights: -lam, 0 on the pair, and the analysis's
        self.row_neg_lam = np.concatenate((-lam_m, pair))
        self.mean_w = 1.0 / (n * n)
        self.row_flow_w = np.concatenate(
            (_ratio(self.qw[0] * links_w2, lam_m, linked), pair + self.mean_w)
        )
        self.row_ana_w = np.concatenate((self.qw[0] * links_w2, pair))

        self._work = _WorkspaceCache(_TorusWork)

    @property
    def ngrid(self):
        return _fast_even(3 * self.kmax + 1)

    def workspace(self, b):
        return self._work(self, b)

    def to_rows(self, psis, hs):
        """Stacked slot states (psis, hs) -> core rows, a new array: both
        links of every entry taken from psi, a zero slot appended, weighted
        by entry_w and added, then the pair."""
        _check_states(self, psis, hs)
        pad = np.zeros((len(psis), self.n_modes + 1))
        pad[:, :-1] = psis
        v = pad[:, self.entry_slot]
        v *= self.entry_w
        rows = np.empty((len(psis), self.ncols))
        np.add(v[:, 0], v[:, 1], out=rows)
        rows[:, -self.n_harmonic :] = hs
        return rows

    def from_rows(self, rows):
        """Core rows -> (psis, hs), new arrays: the inverse of `to_rows`,
        each slot the sum of its two entries times unpack_w."""
        v = rows[:, self.slot_entry]
        v *= self.unpack_w
        return v[:, 0] + v[:, 1], rows[:, -self.n_harmonic :].copy()

    def analyze(self, f):
        ws = self.workspace(len(f))
        rows = np.zeros((len(f), self.ncols))
        np.matmul(self.e_tr, np.matmul(f, self.e, out=ws.p_first), out=self._m(rows, ws))
        rows *= self.row_ana_w
        return self.from_rows(rows)[0]

    def _m(self, rows, ws):
        """The M (B, 2K + 1, 2K + 1) of core rows, a view."""
        return rows[:, : -self.n_harmonic].reshape(ws.m_shape)

    def row_synthesis(self, rows, ws, out=None):
        """Grids of the vorticity and of -(n x u) = grad psi - n x h of core
        rows, ws their row count's workspace: M is their head."""
        np.multiply(rows, ws.row_neg_lam, out=ws.vort_rows)
        # the last row of the first products' gradient thirds: (h1, h0)
        np.copyto(ws.t_pair, rows[:, :-3:-1, None])
        np.matmul(ws.vort_m, self.e_t, out=ws.t_lam)
        np.matmul(self._m(rows, ws), self.tables_t, out=ws.t_grad)
        return np.matmul(self.tables_h, ws.t_split, out=out)

    def row_analysis(self, g, ws):
        """The flow analysis of g as core rows, a new array, ws its row
        count's workspace: <g, n x grad> of each entry of M times its
        row_flow_w, then the sums of g times mean_w."""
        rows = np.empty((len(g), self.ncols))
        self._curl(ws, g, self._m(rows, ws))
        np.add.reduce(g, axis=(-2, -1), out=rows[:, -self.n_harmonic :])
        return np.multiply(rows, ws.row_w, out=rows)

    def _curl(self, ws, g, out):
        """<g, n x grad> of every entry of M into out: [-E^T | dE^T] times
        the first products [g_x dE; g_y E]."""
        np.matmul(g, self.de_e, out=ws.p)
        np.matmul(self.curl_t, ws.p_stack, out=out)


class _TorusWork(_Workspace):
    """Reused buffers of one torus plan for B stacked fields, and views of them.

    A row synthesis scales its rows by -lam into vort_rows (their M
    vort_m), copies their pair into t_pair and writes its first products
    [-lam o M E^T | M E^T | M dE^T] into the first 2K + 1 rows of t, the
    first third (t_lam) and the other two (t_grad); the last row of t
    holds (0, h1, h0), its first third zeroed once and never written, and
    t_split views t as (B, 3, 2K + 2, N).  An analysis writes its first
    products into p (a scalar one into p_first), which p_stack views as
    (B, 2N, 2K + 1), and its second into the M (shape m_shape) of a row
    array of its own.  The weights row_neg_lam and row_w (row_flow_w) are
    the core's, repeated over the B rows, so that every elementwise
    operand is contiguous and of the full shape: numpy 2 copies an operand
    it broadcasts over an outer axis, or one that is not contiguous, into
    a temporary.  At B = 1 the repeated weights are views of the core's.
    Every view a transform passes to numpy is made here once, as in the
    sphere's workspace: at K=16 making them costs as much as the
    arithmetic.  Row-axis views are slices, so they hold for B = 0 too.
    """

    def __init__(self, core, b):
        n, nb = core.tables.shape[1:]
        self.m_shape = (b, nb, nb)
        self.row_neg_lam, self.row_w = (
            np.ascontiguousarray(np.broadcast_to(w, (b, core.ncols)))
            for w in (core.row_neg_lam, core.row_flow_w)
        )
        self.vort_rows = np.empty((b, core.ncols))
        self.vort_m = self.vort_rows[:, : nb * nb].reshape(self.m_shape)
        self.t = np.zeros((b, nb + 1, 3 * n))
        self.t_lam, self.t_grad = self.t[:, :nb, :n], self.t[:, :nb, n:]
        self.t_pair = self.t[:, nb, n:].reshape(b, 2, n)
        self.t_split = self.t.reshape(b, nb + 1, 3, n).transpose(0, 2, 1, 3)
        self.p = np.empty((b, 2, n, nb))
        self.p_first = self.p[:, 0]
        self.p_stack = self.p.reshape(b, 2 * n, nb)
        # grids of (vorticity, d/dx, d/dy), and the product g
        self.grids = np.empty((b, 3, n, n))
        self.g = np.empty((b, 2, n, n))
        self._bind_rhs()


def _ratio(num, den, where):
    """num / den where `where` holds, 0 elsewhere."""
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=where)
