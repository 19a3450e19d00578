"""Plausible-forecast sets and their Chebyshev center/radius.

A plausible set is either a finite collection of forecasts or an L2 ball
implicitly intersected with the simplex. The Chebyshev center (the point
of the simplex minimizing the maximum squared distance to the set) drives
the uninformed expert's maxmin acceptance value.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, count

import numpy as np

from .errors import EmptySet, LengthMismatch, ResolutionTooLarge
from .simplex import (
    NEG_TOL,
    Forecast,
    StateSpace,
    dist_sq_rows,
    grid_enumerate,
    l2_dist_sq,
    project_to_simplex,  # unused; bench/tracing.py rebinds it here
    sample_simplex_uniform,  # unused; bench/tracing.py rebinds it here
)

MEMBERSHIP_TOL = 1e-9   # boundary tolerance for closed-set membership
DISTINCT_TOL = 1e-9     # minimum pairwise L2 distance in a finite set
GAP_TOL = 1e-12         # certified: upper - lower bound on radius^2 within this
MAX_ROUNDS = 100        # core-set rounds before chebyshev gives up uncertified
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
        close = np.argwhere(np.triu(dist_sq_rows(pts[:, None], pts) <= DISTINCT_TOL**2, 1))
        if len(close):
            raise ValueError(f"forecasts {close[0, 0]} and {close[0, 1]} are not distinct")
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


def contains(theta, f):
    """Closed-set membership of one forecast: `members` on its one row."""
    if theta.n != f.n:
        raise LengthMismatch(f"forecast on {f.n} states, plausible set on {theta.n}")
    return bool(members(theta, f.probs[None])[0])


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


def _ball_grid(ball):
    """Points of a ball, one row each: the points of the finest simplex
    grid with at most BALL_GRID_POINTS points that fall inside it, surface
    points along coordinate-pair directions that stay on the simplex, and
    the center. The oracle's adversary draws its truths from these."""
    n = ball.n
    k = next(k for k in count(1) if math.comb(k + n, n - 1) > BALL_GRID_POINTS)
    grid = grid_enumerate(StateSpace(tuple(str(i) for i in range(n))), k)
    e = np.eye(n)
    pairs = (e[:, None] - e[None])[~np.eye(n, dtype=bool)]   # e_i - e_j, i != j
    p = ball.center.probs + ball.radius * pairs / math.sqrt(2.0)
    p = np.clip(p[p.min(axis=1) >= -1e-12], 0.0, None)
    return np.vstack([grid[members(ball, grid)], p / p.sum(axis=1, keepdims=True),
                      ball.center.probs])


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
    ties = np.flatnonzero(d >= d.max() - 1e-12)
    return int(ties[np.lexsort(rows[ties].T[::-1])[0]])


def farthest_point(theta, point):
    """Farthest element of theta from `point` (a Forecast), with distance^2.

    On a finite set it is the forecast of row i = lex_farthest(theta.points,
    d), whose distance^2 d[i] is within 1e-12 of the largest. On a ball B it
    is exact: a vertex of Δ inside B, or on a face F of Δ the point of the
    sphere B ∩ aff(F) opposite x (both points on an edge). The full face
    goes first; its antipode wins if it lies on the simplex.
    """
    if theta.n != point.n:
        raise LengthMismatch(f"forecast on {point.n} states, plausible set on {theta.n}")
    if isinstance(theta, FiniteSet):
        d = dist_sq_rows(theta.points, point.probs)
        i = lex_farthest(theta.points, d)
        return theta.forecasts[i], float(d[i])
    c, x, r = theta.center.probs, point.probs, theta.radius
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
    far = Forecast(np.clip(cand, 0.0, None))
    return far, l2_dist_sq(far, point)


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
    center: Forecast
    radius_sq: float
    iterations: int
    certified: bool


def _grow_support(support, p):
    """Minimum enclosing ball of the support rows and p (outside their ball,
    so on the new sphere): (rows, center, radius^2) of the first affinely
    independent subset with p centered in its hull that holds every row."""
    Q = np.vstack([support, p])
    for size in range(len(Q)):
        for rows in combinations(range(len(support)), size):
            sub = Q[list(rows) + [len(support)]]
            A = sub[1:] - sub[0]
            G = A @ A.T
            if np.linalg.matrix_rank(G, tol=1e-14 * max(1.0, np.trace(G))) < len(A):
                continue
            alpha = np.linalg.solve(G, 0.5 * np.diag(G))
            weights = np.concatenate([[1.0 - alpha.sum()], alpha])
            c = weights @ sub
            r2 = float(dist_sq_rows(sub, c).min())
            if weights.min() >= -1e-12 and dist_sq_rows(Q, c).max() <= r2 + GAP_TOL:
                return sub, c, r2


def chebyshev(theta):
    """Chebyshev center of theta: its minimum enclosing ball, which is
    centered in conv(theta) and so in the simplex (an uncut ball is its own).

    A core set grows (Badoiu & Clarkson 2003; Yildirim 2008): each round
    adds theta's farthest point from the support ball's center and solves
    that ball again exactly. Its radius^2 bounds theta's from below, the
    farthest distance^2 (radius_sq) from above; certified within GAP_TOL.
    """
    if isinstance(theta, Ball) and theta.is_uncut():
        return ChebyshevResult(Forecast(theta.center.probs), theta.radius**2, 0, True)
    first = theta.points[0] if isinstance(theta, FiniteSet) else theta.center.probs
    support, c, lower = first[None], first, 0.0
    for rounds in range(1, MAX_ROUNDS + 1):
        center = Forecast(c)
        far, upper = farthest_point(theta, center)
        if upper - lower <= GAP_TOL:
            return ChebyshevResult(center, upper, rounds, True)
        grown = _grow_support(support, far.probs)
        if grown is None:
            break
        support, c, lower = grown
    return ChebyshevResult(center, upper, rounds, False)


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
            x = rng.standard_exponential((m, n))
            x /= x.sum(axis=1, keepdims=True)
        np.clip(x, 0.0, None, out=x)
        x /= x.sum(axis=1, keepdims=True)
        if not from_ball:
            ok = members(ball, x)
        out[empty[ok]] = x[ok]
        empty = empty[~ok]
        if not len(empty):
            return out
    raise ResolutionTooLarge(f"ball of radius {r} on {n} states: "
                             f"no uniform draw in {MAX_PROPOSALS} proposals")
