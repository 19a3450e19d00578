"""Reference values the benchmark checks the package against.

Nothing here imports expert_screening: every formula is computed from the
raw scenario numbers with numpy alone, so a defect in the package cannot
hide itself by also corrupting its reference.
"""

import math
from itertools import combinations

import numpy as np

ENCLOSE_TOL = 1e-12  # relative slack when testing that a ball encloses a point


def brier(p, s):
    """Brier score 2 p[s] - |p|^2 - 1 of forecast p at state s."""
    p = np.asarray(p, dtype=float)
    return 2.0 * p[s] - float(p @ p) - 1.0


def safe_margin(fx, fy):
    """Margin of the `safe` policy: an eighth of the squared witness distance."""
    d = np.asarray(fx, dtype=float) - np.asarray(fy, dtype=float)
    return float(d @ d) / 8.0


def _circumcenter(Q):
    """Center and radius^2 of the smallest sphere through all rows of Q whose
    center lies in their convex hull; None if Q is affinely dependent or the
    center falls outside conv(Q)."""
    p0 = Q[0]
    if len(Q) == 1:
        return p0.copy(), 0.0
    A = Q[1:] - p0
    G = A @ A.T
    if np.linalg.matrix_rank(G, tol=1e-14 * max(1.0, float(np.trace(G)))) < len(A):
        return None
    alpha = np.linalg.solve(G, 0.5 * np.diag(G))
    if alpha.min() < -1e-12 or alpha.sum() > 1.0 + 1e-12:
        return None
    c = p0 + alpha @ A
    return c, float((c - p0) @ (c - p0))


def _encloses(P, c, r2):
    d2 = np.sum((P - c) ** 2, axis=1)
    return float(d2.max()) <= r2 + ENCLOSE_TOL * max(1.0, r2)


def meb_support_enumeration(P, must=None):
    """Exact minimum enclosing ball of the rows of P by support enumeration.

    The minimum enclosing ball is the circumball of some affinely
    independent subset whose circumcenter lies in the subset's hull, and it
    is the smallest such ball that encloses every point. With `must`, only
    subsets containing that row index are tried (the point is known to lie
    on the boundary). Returns (center, radius^2).
    """
    P = np.asarray(P, dtype=float)
    m, dim = P.shape
    others = [i for i in range(m) if i != must]
    best = None
    for size in range(1, min(m, dim) + 1):
        if must is None:
            subsets = combinations(range(m), size)
        else:
            subsets = ((must,) + s for s in combinations(others, size - 1))
        for S in subsets:
            cc = _circumcenter(P[list(S)])
            if cc is None:
                continue
            c, r2 = cc
            if (best is None or r2 < best[1]) and _encloses(P, c, r2):
                best = (c, r2)
    if best is None:
        raise ArithmeticError("no enclosing circumball found")
    return best


def meb(P):
    """Exact minimum enclosing ball of many points (rows of P).

    Active-set iteration: solve exactly on a small set by support
    enumeration, add the farthest violator, keep only the new support plus
    that point. The violator lies on the boundary of the next ball, so the
    radius grows strictly and the loop ends; on exit the ball encloses
    every row of P. Returns (center, radius^2).
    """
    P = np.asarray(P, dtype=float)
    if len(P) <= 8:
        return meb_support_enumeration(P)
    active = [0]
    c, r2 = P[0].copy(), 0.0
    while True:
        d2 = np.sum((P - c) ** 2, axis=1)
        j = int(np.argmax(d2))
        if d2[j] <= r2 + ENCLOSE_TOL * max(1.0, r2):
            return c, r2
        Q = P[active + [j]]
        c, r2 = meb_support_enumeration(Q, must=len(active))
        d2q = np.sum((Q - c) ** 2, axis=1)
        on_sphere = d2q >= r2 - 1e-9 * max(1.0, r2)
        active = [i for i, keep in zip(active + [j], on_sphere) if keep]


def sum_zero_unit(v):
    """Project v onto the sum-zero hyperplane and normalize."""
    v = np.asarray(v, dtype=float)
    v = v - v.mean(axis=-1, keepdims=True)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def clipped_ball_boundary_sample(center, radius, rng, rays=4000):
    """Points on the boundary of B(center, radius) ∩ simplex.

    Rays leave the center in random sum-zero directions, along every edge
    direction e_i - e_j and toward every vertex; each stops at the sphere
    or at the first face of the simplex, whichever comes first. Every
    point is in B ∩ simplex, and the farthest point of that convex set
    from any center lies on this boundary.
    """
    c = np.asarray(center, dtype=float)
    n = c.size
    dirs = [sum_zero_unit(rng.standard_normal((rays, n)))]
    eye = np.eye(n)
    edges = np.array([eye[i] - eye[j] for i in range(n) for j in range(n) if i != j])
    dirs.append(edges / math.sqrt(2.0))
    to_vertex = eye - c
    keep = np.linalg.norm(to_vertex, axis=1) > 1e-12
    dirs.append(sum_zero_unit(to_vertex[keep]))
    D = np.concatenate(dirs)
    with np.errstate(divide="ignore", invalid="ignore"):
        hit = np.where(D < 0, c / -D, np.inf)
    t = np.minimum(radius, hit.min(axis=1))
    pts = c + t[:, None] * D
    return np.clip(pts, 0.0, None)


def clipped_ball_brackets(center, radius, reported_center, reported_r2, rng):
    """One-sided checks of a reported Chebyshev solution of B ∩ simplex.

    Returns (sample_r2, sample_far2): the exact enclosing radius^2 of a
    dense boundary sample (a lower bound on the true radius^2) and the
    sample's farthest squared distance from the reported center (which a
    correct solution never exceeds).
    """
    S = clipped_ball_boundary_sample(center, radius, rng)
    _, sample_r2 = meb(S)
    far2 = float(np.sum((S - np.asarray(reported_center)) ** 2, axis=1).max())
    return sample_r2, far2


def uniform_ball_sq_moments(n):
    """Mean and variance of |X - c|^2 / r^2 for X uniform in an (n-1)-ball."""
    d = n - 1
    mean = d / (d + 2)
    return mean, d / (d + 4) - mean**2


def uniform_nature_sq_dist(n, a):
    """E |t - a|^2 for t uniform on the n-simplex (Dirichlet(1,...,1))."""
    a = np.asarray(a, dtype=float)
    return 2.0 / (n + 1) - 2.0 / n * float(a.sum()) + float(a @ a)


def expected_sq_dist(nature, n, ann):
    """E d^2(t, announcement) for a nature spec and an announcement spec.

    nature: ("fixed", t) or ("uniform",). ann: ("truth",), ("point", a) or
    ("ball", c, r) for a draw uniform in an uncut ball, which adds
    r^2 (n-1)/(n+1) because the draw is independent of t with mean c.
    """
    if ann[0] == "truth":
        return 0.0
    a = np.asarray(ann[1], dtype=float)
    if nature[0] == "uniform":
        base = uniform_nature_sq_dist(n, a)
    else:
        d = np.asarray(nature[1], dtype=float) - a
        base = float(d @ d)
    if ann[0] == "ball":
        base += ann[2] ** 2 * uniform_ball_sq_moments(n)[0]
    return base


def expected_payoff(margin, nature, n, own, rival):
    """Expected payoff margin + E d^2(t, rival) - E d^2(t, own)."""
    return margin + expected_sq_dist(nature, n, rival) - expected_sq_dist(nature, n, own)
