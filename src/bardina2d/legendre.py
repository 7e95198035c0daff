"""The sphere's latitude rule and its table of associated Legendre values.

`gauss_legendre` gives the Gauss-Legendre nodes and weights the sphere grid
uses; `paired_degrees` lays the table rows out, pairing orders so the
parity-folded table has no triangle of zero rows, and `legendre_table`
fills them with P_n^m up to degree lmax + 1 by the three-term recurrence,
whose coefficients `epsilon` gives.  `basis._SphereCore` holds the table.
"""

from __future__ import annotations

import math

import numpy as np


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
