"""Acceptance analysis: informed guarantees, the uninformed maxmin value
via the Chebyshev reduction, and an independent brute-force oracle.

The exact path is the product; the oracle is the auditor. Both return the
same report type so callers can diff them.
"""

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .plausible import FiniteSet, _ball_grid, chebyshev, farthest_point, lex_farthest, members
from .errors import ResolutionTooLarge
from .simplex import (
    Forecast,
    MixedStrategy,
    StateSpace,
    grid_enumerate,
    l2_dist_sq,
)

ACCEPT = "accept"
REJECT = "reject"
BLOCK_ENTRIES = 2**16   # oracle: candidate x grid entries per reduction block,
                        # and the largest cached strategy grid


@dataclass
class MaxminReport:
    value: float
    optimal_strategy: MixedStrategy
    worst_case_truth: Forecast
    decision: str
    method: str  # "exact" | "oracle"
    certified: bool = True
    details: dict = field(default_factory=dict)


def informed_guarantee(c, truth=None):
    """Worst-case expected payoff of a truthful informed expert.

    The minimizing rival is the truth itself, so the guarantee is the
    contract margin regardless of the truth.
    """
    return c.margin


def truth_telling_gap(truth, report):
    """Expected-payoff loss from misreporting; rival-independent and equal
    to the squared L2 distance between truth and report."""
    return l2_dist_sq(truth, report)


def uninformed_maxmin(theta, c):
    """Exact maxmin value: margin minus the squared Chebyshev radius.

    The adversary's best reply is a point mass at the worst-case truth;
    point-mass strategies dominate mixtures (the variance term in the
    bias-variance decomposition is pure loss); the best point mass is the
    Chebyshev center of theta over the simplex.
    """
    res = chebyshev(theta)
    value = c.margin - res.radius_sq
    worst, _ = farthest_point(theta, res.center)
    return MaxminReport(
        value=value,
        optimal_strategy=MixedStrategy(((res.center, 1.0),)),
        worst_case_truth=worst,
        decision=ACCEPT if value > 0 else REJECT,
        method="exact",
        certified=res.certified,
        details={
            "margin": c.margin,
            "chebyshev_radius_sq": res.radius_sq,
            "chebyshev_iterations": res.iterations,
        },
    )


def _adversary_candidates(theta, grid):
    """Truths available to the oracle adversary, one row each: theta's own
    exact points (witnesses / extremes) plus grid points falling inside
    theta. A point may appear twice, which changes neither a column maximum
    nor the lex_farthest worst truth."""
    own = theta.points if isinstance(theta, FiniteSet) else _ball_grid(theta)
    return np.vstack([own, grid[members(theta, grid)]])


def _build_grid(n, k):
    """The simplex grid at resolution k on n states and its rows' squared
    norms, both read-only: (G, sq_g)."""
    G = grid_enumerate(StateSpace(tuple(str(i) for i in range(n))), k)
    sq_g = np.sum(G**2, axis=1)
    G.flags.writeable = sq_g.flags.writeable = False
    return G, sq_g


_cached_grid = lru_cache(maxsize=16)(_build_grid)


def _grid(n, k):
    """`_build_grid(n, k)`. A grid of at most BLOCK_ENTRIES entries (512 KiB)
    is built once per process and then shared, by threads too; a larger one
    is built for the call and not kept, and one past GRID_CAP raises
    ResolutionTooLarge before anything is allocated."""
    k = int(k)
    if k >= 1 and math.comb(k + n - 1, n - 1) * n <= BLOCK_ENTRIES:
        return _cached_grid(n, k)
    return _build_grid(n, k)


_scratch = threading.local()


def _block_buffers(rows, cols):
    """Two (rows, cols) arrays for `_column_max_dist_sq`. When a block fits
    in BLOCK_ENTRIES entries they are views of one array of 2 * BLOCK_ENTRIES
    floats (1 MiB) kept per thread, so successive calls write the same pages
    instead of faulting in fresh ones; a larger block (rows of more than
    BLOCK_ENTRIES / 2 grid points) is allocated for the call."""
    size = rows * cols
    if size > BLOCK_ENTRIES:
        return np.empty((rows, cols)), np.empty((rows, cols))
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.shape[1] != BLOCK_ENTRIES:
        buf = _scratch.buf = np.empty((2, BLOCK_ENTRIES))
    return buf[0, :size].reshape(rows, cols), buf[1, :size].reshape(rows, cols)


def _column_max_dist_sq(A, sq_a, G, sq_g):
    """max over the rows a of A of ||a - g||^2 for each row g of G, clipped
    at 0; sq_a, sq_g are the rows' squared norms. Walks A in blocks of
    BLOCK_ENTRIES // len(G) rows, at least 2, through the two buffers of
    `_block_buffers`, so memory is linear in len(G). Every block is full:
    the last one ends at len(A) and overlaps its predecessor, which leaves
    the maxima as they are; a one-row product would go to gemv, which
    rounds unlike the full matrix's gemm. Clipping is monotone, so it
    commutes with the max.

    When there is more than one block, the rows are walked farthest first
    from their centroid m, and the walk stops once
    out > (rho + |g - m|)^2 + 1e-12 in every column g, where rho is the
    next unread row's distance from m. Every later row a has
    ||a - g|| <= |a - m| + |g - m| <= rho + |g - m|, so none can reach the
    max; the slack covers the gemm formula's rounding (about 1e-15 on the
    simplex), and |g - m| is taken from the norms with 1e-12 under the
    root, so it is never below the true distance. Time thus scales with
    grid points x rows read; every value read is the full walk's, so the
    result is the same bit for bit."""
    rows = min(len(A), max(2, BLOCK_ENTRIES // len(G)))
    if rows < len(A):
        m = A.mean(axis=0)
        rho = np.sqrt(np.sum((A - m) ** 2, axis=1))
        order = np.argsort(-rho, kind="stable")
        A, sq_a, rho = A[order], sq_a[order], rho[order]
        g_m = np.sqrt(sq_g - 2.0 * (G @ m) + (m @ m + 1e-12))
    d, p = _block_buffers(rows, len(G))
    out = np.full(len(G), -np.inf)
    for start in range(0, len(A), rows):
        lo = min(start, len(A) - rows)
        np.add(sq_a[lo : lo + rows, None], sq_g, out=d)
        np.matmul(A[lo : lo + rows], G.T, out=p)
        p *= 2.0
        d -= p
        np.maximum(out, d.max(axis=0), out=out)
        if lo + rows < len(A) and np.all(out > (rho[lo + rows] + g_m) ** 2 + 1e-12):
            break
    return np.clip(out, 0.0, None, out=out)


def oracle_maxmin(theta, c, grid_k=50, mixture_pairs=False):
    """Brute-force maxmin over grid strategies and adversary truths.

    Strategies are point masses on the simplex grid of C(grid_k+n-1, n-1)
    points, at most GRID_CAP (plus, optionally, two-point mixtures with
    weights 0.1..0.9). For each strategy the adversary picks the worst truth
    in theta with the rival forecasting it; the best point mass's worst truth
    follows lex_farthest, the tie rule of farthest_point. All grid rivals are
    also scanned to confirm that deviating from the truth never helps the
    adversary. The point-mass scan streams the candidate x grid distances in
    blocks, farthest candidates from their centroid first, and stops once a
    triangle-inequality bound shows that no unread candidate can raise a
    column's max; so memory is linear in the grid size and time scales with
    grid points x candidates read. The mixture scan builds the full matrix
    behind its own budget cap. The grid G and its squared norms come from
    `_grid`, which keeps each grid of up to BLOCK_ENTRIES entries read-only
    for the rest of the process, so repeated calls at one (n, grid_k) build
    it once.
    """
    G, sq_g = _grid(theta.n, grid_k)                 # (num_grid, n), (num_grid,)
    A = _adversary_candidates(theta, G)              # (num_cand, n)
    sq_a = np.sum(A**2, axis=1)

    worst_per_pm = _column_max_dist_sq(A, sq_a, G, sq_g)  # worst-case loss per point mass
    pm_values = c.margin - worst_per_pm
    best_j = int(np.argmax(pm_values))               # first occurrence: deterministic
    best_value = float(pm_values[best_j])
    best_strategy = MixedStrategy(((Forecast.from_row(G[best_j]), 1.0),))

    details = {"grid_k": grid_k, "margin": c.margin, "best_point_mass_value": best_value}

    if mixture_pairs:
        budget = 9 * len(G) * len(G) * len(A)
        if budget > 5 * 10**7:
            raise ResolutionTooLarge(
                f"two-point mixture scan needs {budget} evaluations; lower grid_k"
            )
        D = np.clip(sq_a[:, None] + sq_g[None, :] - 2.0 * (A @ G.T), 0.0, None)
        best_mix = -np.inf
        weights = [w / 10.0 for w in range(1, 10)]
        for i in range(len(G)):
            col_i = D[:, i : i + 1]
            for w in weights:
                mixed = w * col_i + (1.0 - w) * D   # (num_cand, num_grid)
                vals = c.margin - mixed.max(axis=0)
                m = float(vals.max())
                if m > best_mix:
                    best_mix = m
        details["best_mixture_value"] = best_mix
        best_value = max(best_value, best_mix)

    # worst truth for the best point mass
    col = np.clip(sq_a + sq_g[best_j] - 2.0 * (A @ G[best_j : best_j + 1].T)[:, 0], 0.0, None)
    worst_truth = Forecast.from_row(A[lex_farthest(A, col)])

    # rival-deviation audit: the minimizing grid rival should coincide with
    # the worst truth (rival = truth is the adversary's best reply)
    diffs = G - worst_truth.probs
    d = diffs[int(np.argmin(np.sum(diffs**2, axis=1)))]
    details["reduction_rival_matches_truth_dist_sq"] = float(np.dot(d, d))

    return MaxminReport(
        value=best_value,
        optimal_strategy=best_strategy,
        worst_case_truth=worst_truth,
        decision=ACCEPT if best_value > 0 else REJECT,
        method="oracle",
        certified=True,
        details=details,
    )
