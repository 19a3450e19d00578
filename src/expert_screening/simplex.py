"""Geometry and sampling primitives for the probability simplex.

Everything downstream (scoring, plausible sets, contracts, simulation)
works with the types defined here. All values are immutable and all
functions are pure; randomness enters only through explicitly passed
numpy Generators.
"""

import math
import numbers
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
GRID_CAP = 10**6     # cap on grid_enumerate output size


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
        if np.logical_or.reduce(p < -NEG_TOL):
            raise NegativeEntry(f"negative entry {p.min()} in forecast")
        s = float(np.add.reduce(p))
        if not abs(s - 1.0) <= SUM_TOL:
            raise NotNormalized(f"forecast sums to {s}, not 1")
        p = renormalized(p)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_row(cls, row):
        """A Forecast carrying the bits of `row`, a vector that is already
        renormalized (a grid_enumerate row, a solver's row, or another
        Forecast's probs). The constructor would renormalize it again, which
        can move its last bit."""
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


def renormalized(p):
    """Rows of p clipped at 0 and divided by their sums, unchecked: Forecast's rule."""
    p = np.maximum(p, 0.0)
    return np.divide(p, np.add.reduce(p, axis=-1, keepdims=True), out=p)


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


def sample_simplex_uniform(space, rng):
    """Uniform draw from the simplex: normalized standard exponentials."""
    e = rng.standard_exponential(space.n)
    return Forecast(e / e.sum())


def _resolution(k):
    """k as an int if it is an integer >= 1, numpy's included; a bool, a
    float or a string raises ValueError rather than being truncated."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"resolution must be an integer >= 1, got {k!r}")
    return int(k)


def grid_enumerate(space, resolution):
    """All forecasts with entries in {0, 1/k, ..., 1}, lexicographic order.

    Returns a (C(k + n - 1, n - 1), n) float array of renormalized rows;
    raises ResolutionTooLarge past GRID_CAP rows, read at call time, before
    allocating anything. Rows are built from their prefix sums 0 <= s_0 <=
    ... <= s_{n-2} <= k, one column at a time: each row so far is repeated
    once for every value from its last sum up to k, which keeps the rows in
    lexicographic order; the counts are the differences of consecutive sums.
    """
    k = _resolution(resolution)
    n = space.n
    count = math.comb(k + n - 1, n - 1)
    if count > GRID_CAP:
        raise ResolutionTooLarge(
            f"grid would have {count} points, exceeding cap {GRID_CAP}"
        )
    s = np.arange(k + 1)[:, None]
    for _ in range(n - 2):
        last = s[:, -1]
        reps = k + 1 - last
        start = np.cumsum(reps) - reps
        s = np.repeat(s, reps, axis=0)
        nxt = np.arange(len(s)) - np.repeat(start - last, reps)
        s = np.column_stack((s, nxt))
    return renormalized(np.diff(s, axis=1, prepend=0, append=k) / k)


def project_to_simplex(v):
    """Euclidean projection of a real vector onto the simplex (sort method)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    rho = np.count_nonzero(u - css / ind > 0)
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)
