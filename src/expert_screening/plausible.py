"""Plausible-forecast sets and their Chebyshev center/radius.

A plausible set is either a finite collection of forecasts or an L2 ball
implicitly intersected with the simplex. The Chebyshev center (the point
of the simplex minimizing the maximum squared distance to the set) drives
the uninformed expert's maxmin acceptance value.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import EmptySet, LengthMismatch
from .simplex import (
    Forecast,
    StateSpace,
    dist_sq_rows,
    grid_enumerate,
    l2_dist_sq,
    project_to_simplex,
    sample_simplex_uniform,
)

MEMBERSHIP_TOL = 1e-9   # boundary tolerance for closed-set membership
DISTINCT_TOL = 1e-9     # minimum pairwise L2 distance in a finite set


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


def contains(theta, f, tol=MEMBERSHIP_TOL):
    """Closed-set membership with boundary tolerance."""
    if isinstance(theta, FiniteSet):
        if theta.n != f.n:
            raise LengthMismatch("forecast length differs from set's")
        return any(l2_dist_sq(g, f) <= tol**2 for g in theta.forecasts)
    if theta.n != f.n:
        raise LengthMismatch("forecast length differs from ball's")
    return math.sqrt(l2_dist_sq(theta.center, f)) <= theta.radius + tol


def _hyperplane_direction(n):
    """A unit vector in the sum-zero hyperplane."""
    d = np.zeros(n)
    d[0], d[1] = 1.0, -1.0
    return d / math.sqrt(2.0)


def _grid_resolution_for_budget(n, budget):
    k = 1
    while math.comb(k + n, n - 1) <= budget:
        k += 1
    return k


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
def _ball_grid(ball, budget=1500):
    """Points of a (cut) ball, one read-only row each: the simplex grid
    points inside it, surface points along coordinate-pair directions
    that stay on the simplex, and the center."""
    n = ball.n
    k = _grid_resolution_for_budget(n, budget)
    grid = grid_enumerate(StateSpace(tuple(str(i) for i in range(n))), k)
    pts = [grid[members(ball, grid)]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = np.zeros(n)
            d[i], d[j] = 1.0, -1.0
            p = ball.center.probs + ball.radius * d / math.sqrt(2.0)
            if p.min() >= -1e-12:
                pts.append(Forecast(np.clip(p, 0.0, None)).probs[None])
    pts.append(ball.center.probs[None])
    out = np.vstack(pts)
    out.flags.writeable = False
    return out


def farthest_point(theta, point):
    """Farthest element of theta from `point` (a Forecast), with distance^2.

    Ties on finite sets break to the lexicographically smallest forecast.
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
    # Ball: analytic farthest point is on the surface, opposite `point`
    c = theta.center.probs
    x = point.probs
    gap = c - x
    norm = math.sqrt(float(np.dot(gap, gap)))
    if norm < 1e-15:
        direction = _hyperplane_direction(theta.n)
    else:
        direction = gap / norm
    p = c + theta.radius * direction
    if p.min() >= -1e-12:
        far = Forecast(np.clip(p, 0.0, None))
        return far, (norm + theta.radius) ** 2
    # clipped ball: fall back to the densest feasible grid of the intersection
    pts = _ball_grid(theta)
    d = dist_sq_rows(pts, x)
    i = int(np.argmax(d))
    return Forecast.from_row(pts[i]), float(d[i])


def diameter_sq(theta, grid_budget=1500):
    """Maximum squared L2 distance between two points of the set."""
    if isinstance(theta, FiniteSet):
        fs = theta.forecasts
        return max(
            (l2_dist_sq(fs[i], fs[j]) for i in range(len(fs)) for j in range(i)),
            default=0.0,
        )
    if theta.is_uncut():
        return (2.0 * theta.radius) ** 2
    arr = _ball_grid(theta, grid_budget)
    sq = np.sum(arr**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (arr @ arr.T)
    return float(d2.max())


@dataclass(frozen=True)
class ChebyshevResult:
    center: Forecast
    radius_sq: float
    iterations: int
    certified: bool


def _initial_center(theta):
    if isinstance(theta, FiniteSet):
        return np.mean([f.probs for f in theta.forecasts], axis=0)
    return theta.center.probs.copy()


def chebyshev(theta, tol=1e-9, max_iter=20000):
    """Chebyshev center of theta over the simplex, by projected subgradient.

    Starts from the set's mean, steps 1/sqrt(t), tracks the best iterate,
    and certifies when the best radius stagnated below tol over the last
    10 iterations. Uncertified results are still returned (certified=False).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    c = _initial_center(theta)
    f_star, r = farthest_point(theta, Forecast(c))
    best_c, best_r = c, r
    history = [best_r]
    certified = False
    step0 = 0.5 * math.sqrt(max(best_r, 1e-12))
    iterations = 0
    for t in range(1, max_iter + 1):
        iterations = t
        grad = 2.0 * (c - f_star.probs)
        c = project_to_simplex(c - (step0 / math.sqrt(t)) * grad)
        f_star, r = farthest_point(theta, Forecast(c))
        if r < best_r:
            best_r, best_c = r, c
        history.append(best_r)
        if len(history) > 11:
            history.pop(0)
        if t >= 50 and len(history) == 11 and history[0] - history[-1] < tol:
            certified = True
            break
    return ChebyshevResult(Forecast(best_c), best_r, iterations, certified)


def sample_from(theta, rng, max_rejections=10**4):
    """Draw a forecast from theta: uniform over a finite set; for balls,
    rejection sampling of uniform simplex draws with a Gaussian fallback."""
    if isinstance(theta, FiniteSet):
        idx = int(rng.integers(len(theta.forecasts)))
        return theta.forecasts[idx]
    space = StateSpace(tuple(str(i) for i in range(theta.n)))
    for _ in range(max_rejections):
        f = sample_simplex_uniform(space, rng)
        if contains(theta, f):
            return f
    # fallback: project a Gaussian perturbation of the center, then pull
    # back inside the ball along the chord to the center (stays on simplex)
    g = project_to_simplex(
        theta.center.probs + rng.normal(scale=theta.radius / 2.0, size=theta.n)
    )
    f = Forecast(g)
    dist = math.sqrt(l2_dist_sq(f, theta.center))
    if dist > theta.radius:
        lam = theta.radius / dist
        f = Forecast(theta.center.probs + lam * (f.probs - theta.center.probs))
    return f
