"""Geometry and sampling primitives for the probability simplex.

Everything downstream (scoring, plausible sets, contracts, simulation)
works with the types defined here. All values are immutable and all
functions are pure; randomness enters only through explicitly passed
numpy Generators.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LengthMismatch,
    NegativeEntry,
    NotNormalized,
    ResolutionTooLarge,
)

SUM_TOL = 1e-9       # |sum - 1| allowed at construction
NEG_TOL = 1e-12      # entries below -NEG_TOL are rejected, above are clipped
GRID_CAP = 10**6     # default cap on grid_enumerate output size


@dataclass(frozen=True)
class StateSpace:
    """Ordered, distinct state labels; order defines vector indexing."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise ValueError("state space needs at least 2 states")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")

    @property
    def n(self):
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class Forecast:
    """A point on the probability simplex, stored renormalized."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("forecast must be a 1-d vector of length >= 2")
        if np.any(p < -NEG_TOL):
            raise NegativeEntry(f"negative entry {p.min()} in forecast")
        s = float(p.sum())
        if not abs(s - 1.0) <= SUM_TOL:
            raise NotNormalized(f"forecast sums to {s}, not 1")
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_row(cls, row):
        """A Forecast carrying the bits of `row`, a vector that is already a
        normalized forecast (a grid_enumerate row, or another Forecast's
        probs). The constructor would normalize it again, which can move
        its last bit."""
        f = object.__new__(cls)
        p = np.array(row, dtype=float)
        p.flags.writeable = False
        object.__setattr__(f, "probs", p)
        return f

    @property
    def n(self):
        return self.probs.size

    def __eq__(self, other):
        if not isinstance(other, Forecast):
            return NotImplemented
        return self.probs.shape == other.probs.shape and bool(
            np.all(self.probs == other.probs)
        )

    def __hash__(self):
        return hash(tuple(self.probs.tolist()))

    def __repr__(self):
        return f"Forecast({self.probs.tolist()})"


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Finitely-supported distribution over forecasts."""

    atoms: tuple  # of (Forecast, weight) pairs

    def __post_init__(self):
        atoms = tuple((f, float(w)) for f, w in self.atoms)
        if not atoms:
            raise ValueError("mixed strategy needs at least one atom")
        n = atoms[0][0].n
        if any(f.n != n for f, _ in atoms):
            raise LengthMismatch("atoms live on different state spaces")
        if any(not w > 0 for _, w in atoms):
            raise ValueError("atom weights must be positive")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > SUM_TOL:
            raise NotNormalized(f"atom weights sum to {total}, not 1")
        atoms = tuple((f, w / total) for f, w in atoms)
        object.__setattr__(self, "atoms", atoms)

    @property
    def n(self):
        return self.atoms[0][0].n


def _check_same_space(f, g):
    if f.n != g.n:
        raise LengthMismatch(f"forecast lengths differ: {f.n} vs {g.n}")


def validate_forecast(raw, space):
    """Validate a raw vector against a state space and return a Forecast.

    Never silently fixes negative entries or bad sums; raises instead.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size != space.n:
        raise LengthMismatch(
            f"expected vector of length {space.n}, got shape {raw.shape}"
        )
    return Forecast(raw)


def l2_dist_sq(f, g):
    """Squared L2 distance between two forecasts."""
    _check_same_space(f, g)
    d = f.probs - g.probs
    return float(np.dot(d, d))


def dist_sq_rows(points, x):
    """Squared L2 distance from each row of `points` to the vector `x`; the
    two broadcast, so dist_sq_rows(P[:, None], Q) is the pairwise matrix.

    A batched dot product, so each entry has the bits of l2_dist_sq on
    that row; a sum of squares rounds differently.
    """
    d = points - x
    return np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0]


def mixed_mean(xi):
    """Barycenter of a mixed strategy; lies on the simplex by convexity."""
    acc = np.zeros(xi.n)
    for f, w in xi.atoms:
        acc += w * f.probs
    return Forecast(acc)


def sample_simplex_uniform(space, rng):
    """Uniform draw from the simplex: normalized standard exponentials."""
    e = rng.standard_exponential(space.n)
    return Forecast(e / e.sum())


def grid_enumerate(space, resolution, cap=GRID_CAP):
    """All forecasts with entries in {0, 1/k, ..., 1}, lexicographic order.

    Returns a (C(k + n - 1, n - 1), n) float array, one forecast per row,
    normalized once the way Forecast normalizes; raises ResolutionTooLarge
    past `cap` before allocating anything. Rows are built from their prefix
    sums 0 <= s_0 <= ... <= s_{n-2} <= k, one column at a time: each row so
    far is repeated once for every value from its last sum up to k, which
    keeps the rows in lexicographic order; the counts are the differences
    of consecutive sums.
    """
    k = int(resolution)
    if k < 1:
        raise ValueError("resolution must be >= 1")
    n = space.n
    count = math.comb(k + n - 1, n - 1)
    if count > cap:
        raise ResolutionTooLarge(
            f"grid would have {count} points, exceeding cap {cap}"
        )
    s = np.arange(k + 1)[:, None]
    for _ in range(n - 2):
        last = s[:, -1]
        reps = k + 1 - last
        start = np.cumsum(reps) - reps
        s = np.repeat(s, reps, axis=0)
        nxt = np.arange(len(s)) - np.repeat(start - last, reps)
        s = np.column_stack((s, nxt))
    p = np.diff(s, axis=1, prepend=0, append=k) / k
    p /= p.sum(axis=1, keepdims=True)
    return p


def project_to_simplex(v):
    """Euclidean projection of a real vector onto the simplex (sort method)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    rho = np.count_nonzero(u - css / ind > 0)
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)
