"""Acceptance analysis: informed guarantees, the uninformed maxmin value
via the Chebyshev reduction, and an independent brute-force oracle.

The exact path is the product; the oracle is the auditor. Both return the
same report type so callers can diff them.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .plausible import (
    NORM_SLACK,
    FiniteSet,
    _ball_grid,
    _grid_members,
    chebyshev,
    farthest_point,  # unused here; bench/tracing.py rebinds it
    lex_farthest,
)
from .errors import ResolutionTooLarge
from .simplex import (
    Forecast,
    StateSpace,
    _resolution,
    grid_enumerate,
    l2_dist_sq,
)

ACCEPT = "accept"
REJECT = "reject"
BLOCK_ENTRIES = 2**16   # oracle: most candidate x grid entries in one block of
                        # the column reduction (512 KiB, made per block), and
                        # the largest cached strategy grid


@dataclass
class MaxminReport:
    """A maxmin analysis. optimal_strategy is a point mass, the one forecast
    announced, which is optimal by Lemma 1: the variance of a mixture only
    adds to the adversary's payoff."""

    value: float
    optimal_strategy: Forecast
    worst_case_truth: Forecast
    decision: str
    method: str  # "exact" | "oracle"
    certified: bool = True
    details: dict = field(default_factory=dict)


def informed_guarantee(c):
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
    return MaxminReport(
        value=value,
        optimal_strategy=res.center,
        worst_case_truth=res.farthest,
        decision=ACCEPT if value > 0 else REJECT,
        method="exact",
        certified=res.certified,
        details={
            "margin": c.margin,
            "chebyshev_radius_sq": res.radius_sq,
            "chebyshev_iterations": res.iterations,
        },
    )


def _adversary_candidates(theta, G, sq_g, d=None):
    """Truths available to the oracle adversary and their squared norms,
    (A, sq_a): theta's own exact points (witnesses / extremes) plus the rows
    of the grid G (squared norms sq_g) that fall inside theta, with d passed
    on to `_grid_members`. A point may appear twice, which changes neither a
    column maximum nor the lex_farthest worst truth. The grid rows' norms
    are read from sq_g and `_ball_grid`'s: a row's sum along axis 1 has the
    same bits in any array."""
    if isinstance(theta, FiniteSet):
        own, sq_own = [theta.points], [np.add.reduce(theta.points**2, axis=1)]
    else:
        own, sq_own = _ball_grid(theta)
    inside = _grid_members(theta, G, sq_g, d)
    return np.concatenate([*own, G[inside]]), np.concatenate([*sq_own, sq_g[inside]])


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
    ResolutionTooLarge before anything is allocated; a k that is no integer
    >= 1 raises grid_enumerate's ValueError before anything is built."""
    k = _resolution(k)
    if math.comb(k + n - 1, n - 1) * n <= BLOCK_ENTRIES:
        return _cached_grid(n, k)
    return _build_grid(n, k)


def _column_max_dist_sq(A, sq_a, G, sq_g):
    """max over the rows a of A of ||a - g||^2 for each row g of G, clipped
    at 0; sq_a, sq_g are the rows' squared norms. Walks every row of A in
    blocks of BLOCK_ENTRIES // len(G) rows, at least 2; each block is one
    array made for it and dropped after it, so memory is linear in len(G)
    and nothing outlives the call. Every block is full: the last one ends
    at len(A) and overlaps its predecessor, which leaves the maxima as they
    are; a one-row product would go to gemv, which rounds unlike the full
    matrix's gemm. Clipping is monotone, so it commutes with the max. A
    block 64 or more times taller than wide takes each column's maximum on
    its own: the reduction along axis 0 would cost about as much per row as
    a wide one does, and a maximum is exact, so the bits are the same.
    The walk may run on any subset of G's rows, as `_winning_columns` has
    it do, but a subset's gemm need not give a column its bits in the full
    matrix: under OpenBLAS, 2- and 3-column subsets matched in 120 random
    products each, while 78 of 120 random 801-column subsets differed in
    some entry, by up to 1.1e-16, and 5 in a column maximum. Tests pinning
    the report to the full matrix: test_early_exit_equals_full_matrix,
    test_near_ties_equal_full_matrix and TestOneProductPerCall."""
    rows = min(len(A), max(2, BLOCK_ENTRIES // len(G)))
    out = np.zeros(len(G)) - np.inf
    for start in range(0, len(A), rows):
        lo = min(start, len(A) - rows)
        d = sq_a[lo : lo + rows, None] + sq_g - 2.0 * (A[lo : lo + rows] @ G.T)
        if rows >= 64 * len(G):
            col_max = np.array([np.maximum.reduce(d[:, j]) for j in range(len(G))])
        else:
            col_max = np.maximum.reduce(d, axis=0)
        np.maximum(out, col_max, out=out)
    return np.maximum(out, 0.0, out=out)


def _winning_columns(A, sq_a, G, sq_g):
    """(keep, f_keep): the ascending indices of the rows of G that can hold
    the first minimum of f = _column_max_dist_sq(A, sq_a, G, sq_g), at least
    two of them, and f on them when they are the two seed columns below,
    else None; (None, None) (every row) when A has at most 2n rows, where
    the exact pass costs no more than a bound would, or G at most two.

    Two lower bounds on f prune the columns; both come from the candidates
    alone, never from the exact path's Chebyshev center. The mean bound is
    the bias-variance identity applied to the candidates, with mean m and
    mean squared spread V: f(g) >= mean over a of ||a - g||^2 = e(g) + V,
    where e(g) = ||g - m||^2 is taken from the norms, |g|^2 - 2 g.m + |m|^2
    (one gemv), and V = mean |a|^2 - |m|^2. f* = min f over the two columns
    of smallest e, read exactly, is at least the minimum f_best, so every
    column with f <= f_best + NORM_SLACK has e + V <= f* + NORM_SLACK and
    is kept. On the survivors the pivot bound LB(g) = max over P of
    ||p - g||^2 <= f(g), the column-side bound of Hamerly's k-means, prunes
    again with the same test. Its 2n pivots P are the candidates at each
    coordinate's minimum and maximum, so they lie on both sides of m in
    every coordinate, and finding them needs no sort.

    Rounding: e + V is |g|^2 - 2 g.m + mean |a|^2, the mean of the column,
    and an m off by rounding moves it by about 1e-16, as the rounding of e,
    V and LB does; NORM_SLACK is 1e-12. So a column left out has f > f_best
    + NORM_SLACK and cannot tie margin - f_best after the subtraction. The
    two seed columns are always kept: a one-column product goes to gemv,
    which rounds unlike gemm, and two-column subsets matched the full
    matrix in every random product measured (`_column_max_dist_sq`; wider
    subsets can round 1e-16 apart from it). f* comes from the seed
    columns' exact maxima; when they alone survive, those maxima are
    f_keep, the values the scan would read again in the same call."""
    n = A.shape[1]
    if len(A) <= 2 * n or len(G) <= 2:
        return None, None
    m = (np.zeros(len(A)) + 1.0 / len(A)) @ A
    V = np.add.reduce(sq_a) / len(sq_a) - m @ m
    e = sq_g - 2.0 * (G @ m) + m @ m
    first = int(e.argmin())
    e_first, e[first] = e[first], np.inf
    two = np.array(sorted((first, int(e.argmin()))))
    e[first] = e_first
    f_two = _column_max_dist_sq(A, sq_a, G[two], sq_g[two])
    bound = np.minimum.reduce(f_two) + NORM_SLACK
    keep = e + V <= bound
    keep[two] = True
    keep = keep.nonzero()[0]
    if len(keep) > 2:
        P = np.concatenate([A.argmin(axis=0), A.argmax(axis=0)])
        ok = _column_max_dist_sq(A[P], sq_a[P], G[keep], sq_g[keep]) <= bound
        ok[keep.searchsorted(two)] = True
        keep = keep[ok]
    return keep, (f_two if len(keep) == 2 else None)


def oracle_maxmin(theta, c, grid_k=50, mixture_pairs=False):
    """Brute-force maxmin over grid strategies and adversary truths.

    Strategies are point masses on the simplex grid of C(grid_k+n-1, n-1)
    points, at most GRID_CAP. For each strategy the adversary picks the
    worst truth in theta with the rival forecasting it; the best point
    mass's worst truth follows lex_farthest, the tie rule of farthest_point.
    All grid rivals are also scanned to confirm that deviating from the
    truth never helps the adversary. The point-mass scan reads the
    candidate x grid distances exactly only in the grid columns that can
    win (`_winning_columns`: the candidates' mean bound, then a bound from
    the candidates at each coordinate's extremes), in blocks, so memory is
    linear in the grid size.
    A column subset's product can round 1e-16 apart from the full matrix
    (`_column_max_dist_sq`), so the full scan's bits for the winner and its
    value are not proved but tested; they matched on all 1 480 audit sets
    at seeds 100-139 and in the tests named there. On balls at n = 4 and 5
    with grids of 39 711 and 316 251 points, two to twenty columns are read
    exactly; when only the two seed columns survive, the scan takes their
    maxima from `_winning_columns`. Grid membership and
    the rival scan start from the grid's squared norms, one gemv per point,
    and decide again exactly the rows within rounding of a threshold or a
    minimum. A finite set whose rows fit one block of the scan takes all
    three from one product instead, its distance block D to the grid:
    membership from D's column minima, the scan's one block from D itself
    when no grid row joins the candidates (the same expression, so the same
    bits), and the rival scan's distances from D's row at the worst truth.
    With mixture_pairs, details["best_mixture_value"] audits Lemma 1 outside
    the value: the best mixture w g + (1 - w) j of grid points, w = 0.1..0.9,
    one pass per g, in M and two (9, num_cand, num_grid) arrays under the
    budget of 9 num_grid^2 num_cand evaluations. The grid
    G and its squared norms come from `_grid`, which keeps each grid of up
    to BLOCK_ENTRIES entries read-only for the rest of the process, so
    repeated calls at one (n, grid_k) build it once.
    """
    G, sq_g = _grid(theta.n, grid_k)                 # (num_grid, n), (num_grid,)
    D = None
    if isinstance(theta, FiniteSet) and len(theta.points) <= max(2, BLOCK_ENTRIES // len(G)):
        X = theta.points
        D = np.add.reduce(X**2, axis=1)[:, None] + sq_g - 2.0 * (X @ G.T)  # (m, num_grid)
    A, sq_a = _adversary_candidates(
        theta, G, sq_g, None if D is None else np.minimum.reduce(D, axis=0))
    if D is not None and len(A) > len(D):            # a grid row joined: scan in blocks
        D = None

    keep, f = _winning_columns(A, sq_a, G, sq_g)     # A: (num_cand, n)
    if f is None:
        cols = slice(None) if keep is None else keep
        f = (_column_max_dist_sq(A, sq_a, G[cols], sq_g[cols]) if D is None
             else np.maximum(np.maximum.reduce(D[:, cols], axis=0), 0.0))
    pm_values = c.margin - f                         # per point mass
    i = int(pm_values.argmax())                      # first occurrence: deterministic
    best_j = i if keep is None else int(keep[i])
    best_value = float(pm_values[i])

    details = {"grid_k": grid_k, "margin": c.margin, "best_point_mass_value": best_value}

    if mixture_pairs:
        budget = 9 * len(G) * len(G) * len(A)
        if budget > 5 * 10**7:
            raise ResolutionTooLarge(
                f"two-point mixture scan needs {budget} evaluations; lower grid_k"
            )
        M = np.maximum(sq_a[:, None] + sq_g[None, :] - 2.0 * (A @ G.T), 0.0)
        weights = np.arange(1, 10)[:, None, None] / 10.0   # (9, 1, 1): 0.1..0.9
        rest = (1.0 - weights) * M                   # (9, num_cand, num_grid)
        worst = min(np.minimum.reduce(np.maximum.reduce(weights * M[:, g, None] + rest, axis=1),
                                      axis=None) for g in range(len(G)))  # over g, w and j
        details["best_mixture_value"] = float(c.margin - worst)

    # worst truth for the best point mass
    col = np.maximum(sq_a + sq_g[best_j] - 2.0 * (A @ G[best_j : best_j + 1].T)[:, 0], 0.0)
    j = lex_farthest(A, col)
    worst_truth = Forecast.from_row(A[j])

    # rival-deviation audit: the minimizing grid rival should coincide with
    # the worst truth (rival = truth is the adversary's best reply); the
    # rows within rounding of the norms' minimum are measured again
    w = worst_truth.probs
    e = sq_g - 2.0 * (G @ w) + w @ w if D is None else D[j]
    near = (e <= np.minimum.reduce(e) + NORM_SLACK).nonzero()[0]
    diffs = G[near] - w
    d = diffs[int(np.add.reduce(diffs**2, axis=1).argmin())]
    details["reduction_rival_matches_truth_dist_sq"] = float(np.dot(d, d))

    return MaxminReport(
        value=best_value,
        optimal_strategy=Forecast.from_row(G[best_j]),
        worst_case_truth=worst_truth,
        decision=ACCEPT if best_value > 0 else REJECT,
        method="oracle",
        certified=True,
        details=details,
    )
