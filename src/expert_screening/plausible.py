"""Plausible-forecast sets and their Chebyshev center/radius.

A plausible set is either a finite collection of forecasts or an L2 ball
implicitly intersected with the simplex. The Chebyshev center (the point
of the simplex minimizing the maximum squared distance to the set) drives
the uninformed expert's maxmin acceptance value.
"""

import math
from dataclasses import dataclass
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
    """Finite set of pairwise-distinct forecasts."""

    forecasts: tuple

    def __post_init__(self):
        fs = tuple(self.forecasts)
        if not fs:
            raise EmptySet("finite plausible set needs at least one forecast")
        n = fs[0].n
        if any(f.n != n for f in fs):
            raise LengthMismatch("forecasts live on different state spaces")
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                if l2_dist_sq(fs[i], fs[j]) <= DISTINCT_TOL**2:
                    raise ValueError(f"forecasts {i} and {j} are not distinct")
        object.__setattr__(self, "forecasts", fs)

    @property
    def n(self):
        return self.forecasts[0].n


@dataclass(frozen=True)
class Ball:
    """L2 ball around a forecast, implicitly clipped to the simplex."""

    center: Forecast
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

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
    """Closed-set membership with boundary tolerance MEMBERSHIP_TOL."""
    if isinstance(theta, FiniteSet):
        if theta.n != f.n:
            raise LengthMismatch("forecast length differs from set's")
        return any(l2_dist_sq(g, f) <= MEMBERSHIP_TOL**2 for g in theta.forecasts)
    if theta.n != f.n:
        raise LengthMismatch("forecast length differs from ball's")
    return math.sqrt(l2_dist_sq(theta.center, f)) <= theta.radius + MEMBERSHIP_TOL


def members(theta, points):
    """Membership mask of the rows of `points`: `contains` on each row."""
    tol = MEMBERSHIP_TOL
    if isinstance(theta, FiniteSet):
        mask = np.zeros(len(points), dtype=bool)
        for g in theta.forecasts:
            mask |= dist_sq_rows(points, g.probs) <= tol**2
        return mask
    return np.sqrt(dist_sq_rows(points, theta.center.probs)) <= theta.radius + tol


@lru_cache(maxsize=64)
def _ball_grid(ball):
    """Points of a (cut) ball, one read-only row each: the points of the
    finest simplex grid with at most BALL_GRID_POINTS points that fall inside
    it, surface points along coordinate-pair directions that stay on the
    simplex, and the center."""
    n = ball.n
    k = next(k for k in count(1) if math.comb(k + n, n - 1) > BALL_GRID_POINTS)
    grid = grid_enumerate(StateSpace(tuple(str(i) for i in range(n))), k)
    e = np.eye(n)
    pairs = (e[:, None] - e[None])[~np.eye(n, dtype=bool)]   # e_i - e_j, i != j
    p = ball.center.probs + ball.radius * pairs / math.sqrt(2.0)
    p = np.clip(p[p.min(axis=1) >= -1e-12], 0.0, None)
    out = np.vstack([grid[members(ball, grid)], p / p.sum(axis=1, keepdims=True),
                     ball.center.probs])
    out.flags.writeable = False
    return out


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


def farthest_point(theta, point):
    """Farthest element of theta from `point` (a Forecast), with distance^2.

    Ties on finite sets break to the lexicographically smallest forecast.
    On a ball B it is exact: a vertex of Δ inside B, or on a face F of Δ the
    point of the sphere B ∩ aff(F) opposite x (both points on an edge). The
    full face goes first; its antipode wins if it lies on the simplex.
    """
    if isinstance(theta, FiniteSet):
        best, best_d = None, -1.0
        for g in theta.forecasts:
            d = l2_dist_sq(g, point)
            if d > best_d + 1e-12 or (
                abs(d - best_d) <= 1e-12 and best is not None and g.key() < best.key()
            ):
                best, best_d = g, d
        return best, best_d
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
    """Maximum squared L2 distance between two points of the set."""
    if isinstance(theta, FiniteSet):
        fs = theta.forecasts
        return max(
            (l2_dist_sq(fs[i], fs[j]) for i in range(len(fs)) for j in range(i)),
            default=0.0,
        )
    if theta.is_uncut():
        return (2.0 * theta.radius) ** 2
    arr = _ball_grid(theta)
    sq = np.sum(arr**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (arr @ arr.T)
    return float(d2.max())


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
    first = theta.forecasts[0] if isinstance(theta, FiniteSet) else theta.center
    support, c, lower = first.probs[None], first.probs, 0.0
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
        rows = np.array([f.probs for f in theta.forecasts])
        out = rows[rng.integers(len(rows), size=k)]
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
