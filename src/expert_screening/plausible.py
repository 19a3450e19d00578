"""Plausible-forecast sets and their Chebyshev center/radius.

A plausible set is either a finite collection of forecasts or an L2 ball
implicitly intersected with the simplex. The Chebyshev center (the point
of the simplex minimizing the maximum squared distance to the set) drives
the uninformed expert's maxmin acceptance value. It is the set's minimum
enclosing ball: in closed form for an uncut ball, otherwise from a core set
that grows by one farthest point per round, each round solved exactly by a
pivot walk (Fischer, Gaertner & Kutz 2003) and certified against the
farthest-point oracle.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count

import numpy as np

from .errors import EmptySet, LengthMismatch, ResolutionTooLarge
from .simplex import (
    NEG_TOL,
    Forecast,
    StateSpace,
    dist_sq_rows,
    grid_enumerate,
    project_to_simplex,  # unused; bench/tracing.py rebinds it here
    renormalized,
    sample_simplex_uniform,  # unused; bench/tracing.py rebinds it here
)

MEMBERSHIP_TOL = 1e-9   # boundary tolerance for closed-set membership
DISTINCT_TOL = 1e-9     # minimum pairwise L2 distance in a finite set
DISTINCT_BLOCK_ENTRIES = 2**16  # distinctness check: row pair x state entries per block
GAP_TOL = 1e-12         # certified: upper - lower bound on radius^2 within this
MAX_ROUNDS = 100        # core-set rounds before chebyshev gives up uncertified
MAX_PIVOTS = 1000       # pivot-walk steps before _grow_support gives up
PIVOT_TOL = 1e-7        # a stopper joins the support this far off its affine hull
BALL_GRID_POINTS = 1500  # simplex grid size behind _ball_grid
FACE_STATES_CAP = 16    # clipped-ball farthest point: 2^n faces, n at most this
MAX_PROPOSALS = 10**4   # ball sampler: proposals before ResolutionTooLarge


@dataclass(frozen=True)
class FiniteSet:
    """Finite set of pairwise-distinct forecasts. `forecasts` is the public
    tuple; `points` holds their probs bit for bit as the rows of one
    read-only (m, n) array, and every numeric consumer reads that."""

    forecasts: tuple
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fs = tuple(self.forecasts)
        if not fs:
            raise EmptySet("finite plausible set needs at least one forecast")
        n = fs[0].n
        if any(f.n != n for f in fs):
            raise LengthMismatch("forecasts live on different state spaces")
        pts = np.array([f.probs for f in fs])
        pts.flags.writeable = False
        m = len(pts)
        step = max(1, DISTINCT_BLOCK_ENTRIES // (m * n))
        for lo in range(0, m, step):
            # pairs (i, j > i) for rows i of this block, first i then first j
            d = dist_sq_rows(pts[lo:lo + step, None], pts[lo + 1:])
            close = np.argwhere(np.triu(d <= DISTINCT_TOL**2))
            if len(close):
                i, j = lo + close[0, 0], lo + 1 + close[0, 1]
                raise ValueError(f"forecasts {i} and {j} are not distinct")
        object.__setattr__(self, "forecasts", fs)
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class Ball:
    """L2 ball around a forecast, implicitly clipped to the simplex."""

    center: Forecast
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if not 0 < self.radius < math.inf:
            raise ValueError("ball radius must be positive and finite")

    @property
    def n(self):
        return self.center.n

    def is_uncut(self):
        """True when the full ball (restricted to the sum-1 hyperplane)
        stays inside the non-negativity constraints of the simplex."""
        # moving distance r along the hyperplane can lower a coordinate
        # by at most r*sqrt((n-1)/n)
        drop = self.radius * math.sqrt((self.n - 1) / self.n)
        return float(self.center.probs.min()) >= drop - 1e-12


def members(theta, points):
    """Membership mask of the rows of `points`, with boundary tolerance
    MEMBERSHIP_TOL."""
    tol = MEMBERSHIP_TOL
    if isinstance(theta, FiniteSet):
        mask = np.zeros(len(points), dtype=bool)
        for g in theta.points:  # one row at a time: memory linear in len(points)
            mask |= dist_sq_rows(points, g) <= tol**2
        return mask
    return np.sqrt(dist_sq_rows(points, theta.center.probs)) <= theta.radius + tol


@lru_cache(maxsize=16)
def _ball_simplex(n):
    """The finest simplex grid on n states with at most BALL_GRID_POINTS
    points, its rows' squared norms, and the coordinate-pair differences
    e_i - e_j (i != j) as rows; all depend only on n, so they are built
    once and kept read-only."""
    k = next(k for k in count(1) if math.comb(k + n, n - 1) > BALL_GRID_POINTS)
    grid = grid_enumerate(StateSpace(tuple(str(i) for i in range(n))), k)
    sq = np.sum(grid**2, axis=1)
    e = np.eye(n)
    pairs = (e[:, None] - e[None])[~np.eye(n, dtype=bool)]
    grid.flags.writeable = sq.flags.writeable = pairs.flags.writeable = False
    return grid, sq, pairs


def _ball_grid(ball):
    """Points of a ball as three blocks of rows, and each block's squared
    norms: the points of the cached grid of `_ball_simplex` that fall
    inside it, surface points along the coordinate-pair directions
    (e_i - e_j) / sqrt(2) that stay on the simplex, and the center. The
    oracle's adversary draws its truths from these."""
    grid, sq, pairs = _ball_simplex(ball.n)
    p = ball.center.probs + ball.radius * pairs / math.sqrt(2.0)
    inside = members(ball, grid)
    rest = [renormalized(p[p.min(axis=1) >= -1e-12]), ball.center.probs[None]]
    return [grid[inside], *rest], [sq[inside], *(np.sum(r**2, axis=1) for r in rest)]


@lru_cache(maxsize=16)
def _faces(n):
    """The faces of the simplex with two or more vertices as 0/1 rows, and
    in each face the unit direction from its second vertex to its first."""
    if n > FACE_STATES_CAP:
        raise ResolutionTooLarge(
            f"clipped ball on {n} states; face enumeration allows at most {FACE_STATES_CAP}"
        )
    bits = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1
    masks = bits[bits.sum(axis=1) >= 2].astype(float)
    rank = np.cumsum(masks, axis=1) * masks
    return masks, ((rank == 1) * 1.0 - (rank == 2)) / math.sqrt(2.0)


@lru_cache(maxsize=16)
def _tie_direction(n):
    """(e_0 - e_1) / sqrt(2) on n states, read-only: the uncut ball's
    farthest-point direction when x sits at the center."""
    e = np.eye(n)
    out = (e[0] - e[1]) / math.sqrt(2.0)
    out.flags.writeable = False
    return out


def _unit(g, fallback):
    """Rows of g at unit length; a row shorter than 1e-15 (x at the sphere's
    center, where every sphere point ties) takes the fallback direction."""
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    return np.where(norm < 1e-15, fallback, g / np.maximum(norm, 1e-300))


def lex_farthest(rows, d):
    """Index of the farthest of `rows`, whose squared distances are d, under
    the tie rule of farthest_point and the oracle's worst truth: the
    lexicographically smallest row within 1e-12 of the largest distance."""
    i = int(np.argmax(d))
    near = d >= d[i] - 1e-12
    if np.count_nonzero(near) == 1:
        return i
    ties = np.flatnonzero(near)
    return int(ties[np.lexsort(rows[ties].T[::-1])[0]])


def farthest_point(theta, x):
    """Farthest point of theta from the row x, as (row, distance^2).

    On a finite set it is theta.points[i] for i = lex_farthest(theta.points,
    d), whose distance^2 d[i] is within 1e-12 of the largest. On a ball B it
    is exact: a vertex of Δ inside B, or on a face F of Δ the point of the
    sphere B ∩ aff(F) opposite x (both points on an edge), renormalized.
    The full face goes first; its antipode wins if it lies on the simplex.
    """
    if theta.n != len(x):
        raise LengthMismatch(f"point on {len(x)} states, plausible set on {theta.n}")
    if isinstance(theta, FiniteSet):
        d = dist_sq_rows(theta.points, x)
        i = lex_farthest(theta.points, d)
        return theta.points[i], float(d[i])
    c, r = theta.center.probs, theta.radius
    delta = c - x
    cand = c + r * _unit(delta - delta.sum() / theta.n, _tie_direction(theta.n))
    if cand.min() < -NEG_TOL:
        masks, fallback = _faces(theta.n)
        e = np.eye(theta.n)
        size = masks.sum(axis=1, keepdims=True)
        c_face = masks * (c + (1.0 - masks @ c)[:, None] / size)
        rho_sq = r * r - np.sum((c - c_face) ** 2, axis=1)
        ok = rho_sq >= 0.0
        g = masks * (delta - (masks @ delta)[:, None] / size)
        step = np.sqrt(rho_sq[ok])[:, None] * _unit(g[ok], fallback[ok])
        inside = e[dist_sq_rows(e, c) <= r * r]  # vertices of the simplex in B
        cand = np.vstack([c_face[ok] + step, c_face[ok] - step, inside])
        cand = cand[cand.min(axis=1) >= -NEG_TOL]
        cand = cand[int(np.argmax(dist_sq_rows(cand, x)))]
    far = renormalized(cand)
    return far, float(np.dot(far - x, far - x))


def diameter_sq(theta):
    """Maximum squared L2 distance between two points of a finite set or an
    uncut ball; a ball clipped by the simplex raises ValueError."""
    if isinstance(theta, FiniteSet):
        return float(dist_sq_rows(theta.points[:, None], theta.points).max())
    if not theta.is_uncut():
        raise ValueError(f"diameter_sq: the ball of radius {theta.radius} around "
                         f"{theta.center.probs.tolist()} is clipped by the simplex")
    return (2.0 * theta.radius) ** 2


@dataclass(frozen=True)
class ChebyshevResult:
    """The solve's center and radius^2 (the upper bound), the support ball's
    radius^2 (the lower bound) and the point of theta farthest from the
    center, which set radius_sq."""

    center: Forecast
    radius_sq: float
    iterations: int
    certified: bool
    lower: float
    farthest: Forecast


def _grow_support(support, p, c):
    """Minimum enclosing ball of the support rows and p, where the support's
    ball is centered at c and p lies outside it: (rows, center, radius^2),
    or None when no ball within GAP_TOL turns up.

    A pivot walk (Fischer, Gaertner & Kutz 2003) on a set T of rows, from
    c with T = {p}: c stays equidistant from T, and the ball around c
    through T holds every row. Each step moves c toward T's circumcenter,
    so the ball shrinks. The first row its sphere meets on the way joins T,
    if it lies PIVOT_TOL off T's affine hull (in exact arithmetic every
    such row does); at the circumcenter, the row with the most negative
    affine weight leaves T. The walk ends at a circumcenter with weights
    >= -1e-12. T keeps the rows' order, p last, so a support has the same
    bits whichever search finds it.
    """
    Q = np.vstack([support, p])
    rows = [len(support)]
    for _ in range(MAX_PIVOTS):
        sub = Q[rows]
        if len(rows) == 1:
            weights, cc = np.ones(1), sub[0]
        else:
            A = sub[1:] - sub[0]
            G = A @ A.T
            alpha = np.linalg.solve(G, 0.5 * G.diagonal())
            weights = np.concatenate([[1.0 - alpha.sum()], alpha])
            cc = weights @ sub
        if len(rows) < len(Q):
            # row s meets the sphere at step t = (r^2 - |s - c|^2) / (2 v.(q - s))
            # for q in T, if v.(q - s) > 0; it may join T if v.(q - s) also
            # clears v's rounding (1e-15) and puts s PIVOT_TOL off aff(T)
            v = cc - c
            lim = PIVOT_TOL * math.sqrt(float(v @ v)) + 1e-15
            d = dist_sq_rows(Q, c).tolist()
            r2 = d[rows[0]]
            step, stop = 1.0, None
            for i, den in enumerate(((sub[0] - Q) @ v).tolist()):
                if den > lim and i not in rows:
                    t = max(r2 - d[i], 0.0) / (2.0 * den)
                    if t < step:
                        step, stop = t, i
            if stop is not None:
                c = c + step * v
                rows = sorted(rows + [stop])
                continue
        c = cc
        j = int(weights.argmin())
        if weights[j] < -1e-12:
            del rows[j]
            continue
        d = dist_sq_rows(Q, c)  # row by row, so d[rows] has dist_sq_rows(sub, c)'s bits
        r2 = float(d[rows].min())
        return (sub, c, r2) if d.max() <= r2 + GAP_TOL else None
    return None


def chebyshev(theta):
    """Chebyshev center of theta: its minimum enclosing ball, which is
    centered in conv(theta) and so in the simplex (an uncut ball is its own).

    A core set grows (Badoiu & Clarkson 2003; Yildirim 2008): each round
    adds theta's farthest point from the support ball's center, and a
    pivot walk from that center (_grow_support) solves the ball of the
    support and the new point exactly. The support ball's radius^2 bounds
    theta's from below, the farthest distance^2 (radius_sq) from above;
    certified within GAP_TOL. Rounds run on rows; Forecasts are built on return.
    """
    if isinstance(theta, Ball) and theta.is_uncut():
        x = renormalized(theta.center.probs)
        far, _ = farthest_point(theta, x)
        r2 = theta.radius**2
        return ChebyshevResult(Forecast.from_row(x), r2, 0, True, r2,
                               Forecast.from_row(far))
    first = theta.points[0] if isinstance(theta, FiniteSet) else theta.center.probs
    support, c, lower = first[None], first, 0.0
    for rounds in range(1, MAX_ROUNDS + 1):
        x = renormalized(c)
        far, upper = farthest_point(theta, x)
        certified = upper - lower <= GAP_TOL
        grown = None if certified else _grow_support(support, far, c)
        if grown is None:
            break
        support, c, lower = grown
    return ChebyshevResult(Forecast.from_row(x), upper, rounds, certified, lower,
                           Forecast.from_row(far))


def sample_from(theta, rng, size=None):
    """Draw forecasts from theta uniformly: over a finite set, or over B ∩ Δ
    for a ball B (see _ball_rows). With size=None returns one Forecast; with
    an int, a (size, n) array of independent draws, each row stored as
    Forecast stores it."""
    k = 1 if size is None else size
    if isinstance(theta, FiniteSet):
        out = theta.points[rng.integers(len(theta.points), size=k)]
    else:
        out = _ball_rows(theta, rng, k)
    return out if size is not None else Forecast.from_row(out[0])


def _ball_rows(ball, rng, k):
    """k uniform draws from B ∩ Δ by rejection from the one of B and Δ with
    less (n-1)-volume. Each round proposes one row for every row still
    empty, as one array (from B: k x n Gaussians, then k uniforms; from Δ:
    k x n exponentials), and keeps the accepted ones in their rows, so each
    row is its own rejection sampler (Devroye 1986, II.3). A point of B is
    c + r u^(1/(n-1)) d for a Gaussian direction d on the sum-zero plane
    (Muller 1959). Raises ResolutionTooLarge when a row is still empty after
    MAX_PROPOSALS rounds."""
    n, c, r = ball.n, ball.center.probs, ball.radius
    from_ball = ((n - 1) * math.log(math.sqrt(math.pi) * r) - math.lgamma((n + 1) / 2)
                 < 0.5 * math.log(n) - math.lgamma(n))  # log vol B < log vol Δ
    out = np.empty((k, n))
    empty = np.arange(k)
    for _ in range(MAX_PROPOSALS):
        m = len(empty)
        if from_ball:
            g = rng.standard_normal((m, n))
            g -= g.mean(axis=1, keepdims=True)
            # np.linalg.norm's bits on each row (batched dot products), and
            # libm's pow as in Python's `**` (np.power's SIMD loops round
            # some values differently, depending on the CPU)
            norm = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
            x = c + (r * np.float_power(rng.random(m), 1.0 / (n - 1)) / norm)[:, None] * g
            ok = x.min(axis=1) >= 0.0
        else:
            x = renormalized(rng.standard_exponential((m, n)))
        x = renormalized(x)
        if not from_ball:
            ok = members(ball, x)
        out[empty[ok]] = x[ok]
        empty = empty[~ok]
        if not len(empty):
            return out
    raise ResolutionTooLarge(f"ball of radius {r} on {n} states: "
                             f"no uniform draw in {MAX_PROPOSALS} proposals")
