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
    orders of a block stacked, plus one longitude stage over all grid
    lines; the even and odd sums unfold into the two hemispheres.  The
    factors 1 / sin(theta) of the recurrence and m / sin(theta) of the phi
    derivative are applied per latitude instead of being tabulated.  The
    plan picks the longitude stage from nlon: up to
    legendre.LON_MATMUL_MAX points (L <= 37) one matmul of the retained
    half-spectrum columns against a (2 (L + 1), nlon) table of cos(m phi)
    and -sin(m phi), or of the grid lines against its transpose, as the
    torus transforms (Boyd 2001, Chebyshev and Fourier Spectral Methods,
    ch. 10); on longer lines a real FFT.  The transforms live in
    `legendre._SphereCore`, beside the latitude rule and the table.

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

Each geometry has four public transforms over one synthesis.  The flow
pair carries the nonlinearity: `flow_synthesis` takes a streamfunction psi
to the grids of its vorticity -lam psi and its gradient, and
`flow_analysis` takes a tangent grid field g to its Leray streamfunction,
slot s being <g, n x grad Y_s> / lam_s (the component of g along the
unit-energy velocity of mode s), and its harmonic pair; each makes one
pass of its transform over the stacked fields.  `synthesize` takes scalar
coefficients c to grid values, the vorticity grid of the flow synthesis of
-c / lam, and `analyze` takes grid values f back to <f, Y_s> by
quadrature, off the stepping path (on the sphere a plain routine that
touches no workspace).  The flow pair is the row pair (below) between the
cores' to_rows and from_rows, with a zero harmonic pair on the way in, so
the gradient grids are grad psi alone; `verify`'s transform rows check it.

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
    -lam psi and D psi and their weights, the Legendre sums and the half
    spectra (sphere), the -lam rows and the products of one axis (torus),
    and, for the right-hand side in `dynamics`, the vorticity/gradient grid
    stack and the product field g.  The FFTs and matmuls write into them
    with out=, so stepping a batch allocates no large temporaries; freed
    ones would be trimmed off the heap top and faulted back in by the next
    call.  Each
    workspace, sphere (`legendre._SphereWork`) and torus
    (`fourier._TorusWork`) alike, also makes once every view of those
    buffers that its transforms and the
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
      workspaces", gives it); a sphere unfold borrows the analysis
      spectrum buffer, and the synthesis spectra and a fold the head of g,
      instead of a buffer of their own.
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


def _check_states(core, psis, hs):
    """ShapeError unless psis and hs stack the slot rows and harmonic pairs
    of states of the core's plan, one each per row."""
    if psis.shape[1:] != (core.n_modes,) or hs.shape != (len(psis), core.n_harmonic):
        raise ShapeError(
            f"row shapes {psis.shape}/{hs.shape} do not match plan "
            f"({core.n_modes} modes, {core.n_harmonic} harmonic)"
        )


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
        core = legendre._SphereCore(truncation)
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
    """Evaluate a coefficient array on the plan grid: the vorticity grid of
    the flow synthesis of -coeffs / lam, a view of the new array that holds
    the gradient grids too."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    _check_coeffs(plan, coeffs)
    return flow_synthesis(plan, -coeffs / plan.lam)[0]


def analyze(plan, f):
    """Project a grid field onto the basis by quadrature."""
    f = np.asarray(f, dtype=np.float64)
    _check_field(plan, f)
    rows, lead = _rows_of(f, 2)
    return _unrows(plan.core.analyze(rows), lead, 1)


def flow_synthesis(plan, psi):
    """Vorticity and gradient grids of streamfunction coefficients.

    The vorticity is the grid of -lam * psi; the gradient has
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


# last, as legendre imports from this module; at load rather than at the
# first sphere plan, whose compile then landed among a run's arrays and
# raised the peak memory of an L=85 simulate by 0.4 MB
from . import legendre  # noqa: E402
