import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expert_screening import (
    Forecast,
    StateSpace,
    grid_enumerate,
    l2_dist_sq,
    project_to_simplex,
    sample_simplex_uniform,
    simplex,
    validate_forecast,
)
from expert_screening.errors import (
    LengthMismatch,
    NegativeEntry,
    NotNormalized,
    ResolutionTooLarge,
)
from expert_screening.verify import _space

SPACE2 = StateSpace(("a", "b"))
SPACE3 = StateSpace(("a", "b", "c"))


class TestStateSpace:
    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            StateSpace(("only",))

    def test_requires_unique_labels(self):
        with pytest.raises(ValueError):
            StateSpace(("a", "a"))

    def test_n(self):
        assert SPACE3.n == 3


class TestValidateForecast:
    def test_uniform(self):
        f = validate_forecast([0.5, 0.5], SPACE2)
        assert f.probs.tolist() == [0.5, 0.5]

    def test_vertex(self):
        f = validate_forecast([1.0, 0.0], SPACE2)
        assert f.probs.tolist() == [1.0, 0.0]

    def test_not_normalized(self):
        for raw in ([0.5, 0.4], [math.nan, 0.5]):
            with pytest.raises(NotNormalized):
                validate_forecast(raw, SPACE2)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_forecast([1.5, -0.5], SPACE2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_forecast([0.5, 0.5], SPACE3)

    def test_tiny_negative_is_clipped(self):
        f = validate_forecast([1.0 + 1e-13, -1e-13], SPACE2)
        assert f.probs.min() >= 0.0

    def test_renormalized_sum_is_one(self):
        f = validate_forecast([0.3 + 3e-10, 0.7], SPACE2)
        assert f.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_immutable(self):
        f = validate_forecast([0.5, 0.5], SPACE2)
        with pytest.raises(ValueError):
            f.probs[0] = 0.9

    @pytest.mark.parametrize("raw", [[[0.5, 0.5]], [1.0], 1.0, []])
    def test_forecast_is_a_vector_of_at_least_two(self, raw):
        with pytest.raises(ValueError, match=r"^forecast must be a 1-d vector of length >= 2$"):
            Forecast(raw)


@st.composite
def _near_forecast_rows(draw):
    """Rows that Forecast accepts but must still clip and divide: entries
    down to -NEG_TOL and sums off 1 by up to SUM_TOL."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False))
    raw = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                 min_size=m, max_size=m)))
    raw[:, 0] += 1.0  # a positive sum to divide by
    p = raw / raw.sum(axis=1, keepdims=True)
    off = draw(st.lists(st.floats(-0.5, 0.5), min_size=m, max_size=m))
    p *= 1.0 + np.array(off)[:, None] * simplex.SUM_TOL
    # zero entries become 0, -0 or negatives down to -NEG_TOL
    tiny = draw(st.lists(st.sampled_from([0.0, -0.0, -0.5, -1.0]), min_size=m * n,
                         max_size=m * n))
    return np.where(p == 0.0, np.array(tiny).reshape(m, n) * simplex.NEG_TOL, p)


class TestRenormalized:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rows=_near_forecast_rows())
    def test_has_the_bits_of_forecast(self, rows):
        out = simplex.renormalized(rows)
        for row, got in zip(rows, out):
            want = Forecast(row).probs.tobytes()
            assert got.tobytes() == want
            assert simplex.renormalized(row).tobytes() == want
            # the rule spelled out on the one row
            clipped = np.clip(row, 0.0, None)
            assert (clipped / clipped.sum()).tobytes() == want

    def test_leaves_its_input_alone(self):
        p = np.array([0.5 + 1e-10, -1e-13, 0.5])
        before = p.tobytes()
        simplex.renormalized(p)
        assert p.tobytes() == before


class TestL2DistSq:
    def test_opposite_vertices(self):
        assert l2_dist_sq(Forecast([1, 0]), Forecast([0, 1])) == 2.0

    def test_identity(self):
        f = Forecast([0.3, 0.7])
        assert l2_dist_sq(f, f) == 0.0

    def test_hand_value(self):
        assert l2_dist_sq(Forecast([0.8, 0.2]), Forecast([0.5, 0.5])) == pytest.approx(
            0.18, abs=1e-15
        )

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            space = StateSpace(tuple(str(i) for i in range(n)))
            f = sample_simplex_uniform(space, rng)
            g = sample_simplex_uniform(space, rng)
            assert l2_dist_sq(f, g) == l2_dist_sq(g, f)
            assert 0.0 <= l2_dist_sq(f, g) <= 2.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            l2_dist_sq(Forecast([0.5, 0.5]), Forecast([0.2, 0.3, 0.5]))


class TestSampleSimplexUniform:
    def test_deterministic_given_seed(self):
        a = sample_simplex_uniform(SPACE2, np.random.default_rng(42))
        b = sample_simplex_uniform(SPACE2, np.random.default_rng(42))
        assert a == b

    def test_membership(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            f = sample_simplex_uniform(SPACE3, rng)
            assert f.probs.min() >= 0.0
            assert f.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_near_uniform(self):
        rng = np.random.default_rng(6)
        acc = np.zeros(3)
        n_samples = 10**5
        for _ in range(n_samples):
            acc += sample_simplex_uniform(SPACE3, rng).probs
        assert np.all(np.abs(acc / n_samples - 1 / 3) < 0.01)


def _reference_grid(n, k):
    """Grid by brute force: count vectors of `itertools.product` summing
    to k, in lexicographic order, each normalized as Forecast does."""
    rows = []
    for c in itertools.product(range(k + 1), repeat=n):
        if sum(c) == k:
            p = np.asarray(c, dtype=float) / k
            rows.append(p / p.sum())
    return np.array(rows)


def _combinations_grid(n, k):
    """Grid by stars and bars: each choice of n - 1 bar positions among
    k + n - 1 slots, in `itertools.combinations` order, gives the counts
    between consecutive bars. Fast enough for the oracle's grid sizes."""
    count = math.comb(k + n - 1, n - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(k + n - 1), n - 1)),
        dtype=np.intp,
        count=count * (n - 1),
    ).reshape(count, n - 1)
    p = (np.diff(bars, axis=1, prepend=-1, append=k + n - 1) - 1) / k
    p /= p.sum(axis=1, keepdims=True)
    return p


class TestGridEnumerate:
    def test_n2_k2(self):
        assert grid_enumerate(SPACE2, 2).tolist() == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]

    def test_n2_k1(self):
        assert grid_enumerate(SPACE2, 1).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_n3_k2_count(self):
        assert grid_enumerate(SPACE3, 2).shape == (6, 3)

    def test_counts_match_binomial(self):
        for n, k in [(2, 7), (3, 5), (4, 4)]:
            space = _space(n)
            assert len(grid_enumerate(space, k)) == math.comb(k + n - 1, n - 1)

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 9), (3, 7), (4, 6), (5, 4), (8, 3)])
    def test_matches_reference(self, n, k, monkeypatch):
        space = _space(n)
        ref = _reference_grid(n, k)
        grid = grid_enumerate(space, k)
        assert grid.shape == ref.shape == (math.comb(k + n - 1, n - 1), n)
        # same order and the same bits
        assert np.array_equal(grid.view(np.uint64), ref.view(np.uint64))
        monkeypatch.setattr(simplex, "GRID_CAP", len(ref) - 1)
        with pytest.raises(ResolutionTooLarge):
            grid_enumerate(space, k)
        monkeypatch.setattr(simplex, "GRID_CAP", len(ref))
        assert len(grid_enumerate(space, k)) == len(ref)

    # the oracle's grids at n = 2..8 (about 3000 points each), a ball grid's
    # size (3, 53), and k = 1, whose rows are the vertices
    @pytest.mark.parametrize(
        "n,k",
        [(2, 3000), (3, 76), (4, 25), (5, 14), (6, 10), (7, 8), (8, 7), (3, 53),
         (2, 1), (3, 1), (8, 1)],
    )
    def test_matches_combinations(self, n, k):
        ref = _combinations_grid(n, k)
        grid = grid_enumerate(_space(n), k)
        assert grid.shape == ref.shape
        assert np.array_equal(grid.view(np.uint64), ref.view(np.uint64))

    def test_points_distinct_and_valid(self):
        pts = grid_enumerate(SPACE3, 4)
        assert len({tuple(p) for p in pts.tolist()}) == len(pts)
        for p in pts:
            validate_forecast(p, SPACE3)

    def test_resolution_cap(self):
        with pytest.raises(ResolutionTooLarge):
            grid_enumerate(SPACE3, 10**5)


class TestProjectToSimplex:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.8])
        assert np.allclose(project_to_simplex(v), v)

    def test_projection_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = rng.normal(size=int(rng.integers(2, 6)))
            p = project_to_simplex(v)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
