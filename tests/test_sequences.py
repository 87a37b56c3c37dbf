"""Subset-sum verification, minimal-M search and the audit report."""

from __future__ import annotations

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gray_first_collision_by_dict, random_sequence, subset_total
from dsslab import (
    SEARCH_LIMITS,
    BudgetExceededError,
    Collision,
    VectorSequence,
    baseline_construction,
    bound_vs_search_report,
    iter_gray_subset_sums,
    min_m_search,
    verify_distinct,
)
from dsslab.moments import signed_sum_distribution
from dsslab.sequences import (
    _bruteforce_level,
    _gray_first_collision,
    _mixed_radix,
    _NodeBudget,
    _search_level,
    _zero_sum_signs,
)


def test_sequence_validation():
    with pytest.raises(ValueError):
        VectorSequence(2, 1, 3, ((1,), (4,)))
    with pytest.raises(ValueError):
        VectorSequence(2, 2, 3, ((1, 0), (1,)))
    with pytest.raises(ValueError):
        VectorSequence(3, 1, 3, ((1,), (2,)))
    with pytest.raises(ValueError):
        VectorSequence(1, 1, 3, ((-1,),))


def test_sequence_text_round_trip():
    seq = VectorSequence(3, 2, 5, ((0, 1), (5, 2), (3, 3)))
    again = VectorSequence.from_text(seq.to_text())
    assert again == seq

    parsed = VectorSequence.from_text("3 1 4\n1\n2\n4\n")
    assert parsed == VectorSequence(3, 1, 4, ((1,), (2,), (4,)))


def test_sequence_from_text_rejects_malformed_input():
    with pytest.raises(ValueError):
        VectorSequence.from_text("2 1 4\n1\n")
    with pytest.raises(ValueError):
        VectorSequence.from_text("2 1 4\n1 2\n3 4\n")
    with pytest.raises(ValueError):
        VectorSequence.from_text("2 1 4\n1\n2\n1\n")
    with pytest.raises(ValueError):
        VectorSequence.from_text("")


def test_verify_examples():
    assert verify_distinct(VectorSequence(3, 1, 4, ((1,), (2,), (4,)))) is None

    c = verify_distinct(VectorSequence(3, 1, 3, ((1,), (2,), (3,))))
    assert c is not None
    assert {frozenset(c.first), frozenset(c.second)} == {frozenset({0, 1}), frozenset({2})}
    assert c.total == (3,)

    c = verify_distinct(VectorSequence(3, 2, 1, ((1, 0), (0, 1), (1, 1))))
    assert c is not None
    assert {frozenset(c.first), frozenset(c.second)} == {frozenset({0, 1}), frozenset({2})}
    assert c.total == (1, 1)


def test_verify_zero_vector_collides_with_empty_set():
    c = verify_distinct(VectorSequence(2, 2, 3, ((0, 0), (1, 2))))
    assert c is not None
    assert {frozenset(c.first), frozenset(c.second)} == {frozenset(), frozenset({0})}
    assert c.total == (0, 0)


def test_gray_walk_structure():
    seq = VectorSequence(5, 2, 7, ((1, 0), (0, 3), (2, 5), (7, 1), (4, 4)))
    masks = [mask for mask, _ in iter_gray_subset_sums(seq)]
    assert len(masks) == 32
    assert masks[0] == 0
    assert sorted(masks) == list(range(32))
    for a, b in zip(masks, masks[1:]):
        diff = a ^ b
        assert diff and diff & (diff - 1) == 0  # exactly one bit flips


def test_gray_walk_sums_match_direct_recomputation():
    rng = np.random.default_rng(7)
    seq = random_sequence(rng, 11, 3, 6)
    walk = list(iter_gray_subset_sums(seq))
    base = seq.n * seq.bound + 1
    probe = rng.integers(0, len(walk), size=1000)
    for step in probe:
        mask, packed = walk[int(step)]
        total = subset_total(seq, [i for i in range(seq.n) if mask >> i & 1])
        expect = 0
        for coord in reversed(total):
            expect = expect * base + coord
        assert packed == expect


def _check_witness(seq, witness):
    assert set(witness.first) != set(witness.second)
    assert subset_total(seq, witness.first) == subset_total(seq, witness.second)
    assert subset_total(seq, witness.first) == witness.total


def test_pair_count_matches_gray_walk_on_randoms():
    # The pair count is called directly: most of these inputs are below the
    # pigeonhole limit, where verify_distinct would only run the walk.
    rng = np.random.default_rng(12345)
    for trial in range(120):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, 4))
        seq = random_sequence(rng, n, k, int(rng.integers(1, 7)))
        walk = _gray_first_collision(seq)
        assert (_zero_sum_signs(seq) == 1) == (walk is None), seq
        assert verify_distinct(seq) == walk
        if walk is not None:
            _check_witness(seq, walk)


def test_verifier_finds_planted_collision():
    rng = np.random.default_rng(99)
    for trial in range(60):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, 4))
        seq = random_sequence(rng, n, k, int(rng.integers(1, 7)))
        # Overwrite one vector with the sum of two others, which forces
        # {i} to collide with {j, l} whatever else the draw produced.
        i, j, l = rng.choice(n, size=3, replace=False)
        planted = list(seq.vectors)
        planted[i] = tuple(a + b for a, b in zip(seq.vectors[j], seq.vectors[l]))
        bound = max(max(v) for v in planted)
        seq = VectorSequence(n, k, bound, tuple(planted))
        # eps = 0 and the planted +-(e_i - e_j - e_l) at least
        assert _zero_sum_signs(seq) >= 3
        witness = verify_distinct(seq)
        assert witness is not None and witness == _gray_first_collision(seq)
        _check_witness(seq, witness)


def test_zero_sum_signs_examples():
    # eps = 0, and +-(1, 1, -1)
    assert _zero_sum_signs(VectorSequence(3, 1, 3, ((1,), (2,), (3,)))) == 3
    # a zero vector may take any of the three signs
    assert _zero_sum_signs(VectorSequence(2, 2, 2, ((0, 0), (1, 2)))) == 3
    assert _zero_sum_signs(VectorSequence(3, 1, 4, ((1,), (2,), (4,)))) == 1
    assert _zero_sum_signs(VectorSequence(0, 2, 0, ())) == 1
    # the radix separates coordinates: 1 - 2 + 1 = 0 in coordinate 0 only,
    # and 4 * 1 = 4 cannot cancel a coordinate-1 digit of at most 3
    assert _zero_sum_signs(VectorSequence(3, 2, 2, ((1, 0), (2, 1), (1, 2)))) == 1
    assert _zero_sum_signs(VectorSequence(3, 2, 4, ((4, 0), (0, 1), (0, 2)))) == 1


@st.composite
def _small_sequences(draw, max_n):
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(1, 3))
    # Narrow components collide below the pigeonhole limit; wide ones are
    # almost always distinct and make the walk enumerate every sum. The
    # widest, 2^(40 // k), still packs into int64 at n = 16.
    hi = draw(st.sampled_from((1, 3, 12, 200, 1 << 40 // k)))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, hi)] * k), min_size=n, max_size=n))
    bound = max((c for vec in vectors for c in vec), default=0)
    return VectorSequence(n, k, bound, tuple(vectors))


@settings(max_examples=60)
@given(_small_sequences(16))
def test_pair_count_decision_matches_walk(seq):
    assert (_zero_sum_signs(seq) == 1) == (_gray_first_collision(seq) is None)


@settings(max_examples=150)
@given(_small_sequences(12))
def test_verify_distinct_is_walks_first_collision(seq):
    # Both routes: pigeonhole-gated inputs go straight to the walk, the
    # rest are decided by the pair count first.
    assert verify_distinct(seq) == _gray_first_collision(seq)


@settings(max_examples=60)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.tuples(*[st.integers(0, 1 << 64)] * k), min_size=1, max_size=10
        )
    ),
    st.integers(0, 9),
)
def test_wide_packing_verifies_through_walk(vectors, where):
    # A vector of 2^63 components makes the radix prod_j (S_j + 1) pass
    # 2^63, past what int64 can pack; such inputs are decided by the walk.
    vectors[where % len(vectors)] = (1 << 63,) * len(vectors[0])
    bound = max(c for vec in vectors for c in vec)
    seq = VectorSequence(len(vectors), len(vectors[0]), bound, tuple(vectors))
    with mock.patch("dsslab.sequences._zero_sum_signs", side_effect=AssertionError):
        assert verify_distinct(seq) == _gray_first_collision(seq)


def test_pigeonhole_gated_inputs_skip_the_pair_count():
    # prod_j (S_j + 1) = 4 < 2^3: a collision is certain.
    seq = VectorSequence(3, 1, 1, ((1,), (1,), (1,)))
    with mock.patch("dsslab.sequences._zero_sum_signs", side_effect=AssertionError):
        assert verify_distinct(seq) == _gray_first_collision(seq) is not None


def test_gray_walk_budget_bounds_the_first_repeat():
    # The 2^7 subset sums of 1, 2, ..., 64 are distinct, and the walk
    # reaches the 3 only after all of them: its first repeat, 64 + 3 =
    # 1 + 2 + 64, is the (2^7 + 1)-th sum it sees.
    values = (1, 2, 4, 8, 16, 32, 64, 3)
    seq = VectorSequence(8, 1, 64, tuple((v,) for v in values))
    need = (1 << 7) + 1
    collision = Collision(first=(0, 1, 6), second=(6, 7), total=(67,))
    assert _gray_first_collision(seq, budget=need) == collision
    assert verify_distinct(seq) == collision
    with pytest.raises(BudgetExceededError) as err:
        _gray_first_collision(seq, budget=need - 1)
    assert (err.value.needed, err.value.budget) == (None, need - 1)


def test_gray_walk_budget_covers_a_distinct_walk():
    # A distinct input needs all 2^n sums: refused one short of them.
    seq = VectorSequence(4, 1, 8, ((1,), (2,), (4,), (8,)))
    assert _gray_first_collision(seq, budget=16) is None
    with pytest.raises(BudgetExceededError) as err:
        _gray_first_collision(seq, budget=15)
    assert (err.value.needed, err.value.budget) == (None, 15)


def _gray_step(mask: int) -> int:
    """The step at which the Gray walk visits subset `mask`: the inverse Gray code."""
    step = 0
    while mask:
        step ^= mask
        mask >>= 1
    return step


def _walk_outcome(walk, seq, budget):
    """The walk's Collision or None, or its refusal as (message, needed, budget)."""
    try:
        return walk(seq, budget)
    except BudgetExceededError as err:
        return str(err), err.needed, err.budget


def _first_repeat_need(seq) -> int:
    """The fewest sums the walk must see to return: up to its first repeat, else all 2^n."""
    first = gray_first_collision_by_dict(seq, 1 << seq.n)
    if first is None:
        return 1 << seq.n
    return _gray_step(sum(1 << i for i in first.second)) + 1


@st.composite
def _colliding_sequences(draw):
    # Components of at most 6 make repeats common well below 2^n.
    n = draw(st.integers(0, 16))
    k = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 6)] * k), min_size=n, max_size=n))
    bound = max((c for vec in vectors for c in vec), default=0)
    return VectorSequence(n, k, bound, tuple(vectors))


def _zero_sum_signs_full(seq):
    # The pair count over every v of the left half, not only v >= 0.
    packed = [0] * seq.n
    scale = 1
    for j in range(seq.k):
        column = [vec[j] for vec in seq.vectors]
        packed = [acc + c * scale for acc, c in zip(packed, column)]
        scale *= sum(column) + 1
    half = seq.n // 2
    left, right = (
        signed_sum_distribution(part, signs=(-1, 0, 1)) for part in (packed[:half], packed[half:])
    )
    at = np.minimum(right.values.searchsorted(left.values), len(right.values) - 1)
    shared = right.values[at] == left.values
    return int(np.dot(left.counts[shared], right.counts[at[shared]]))


@settings(max_examples=100)
@given(_small_sequences(16) | _colliding_sequences())
def test_pair_count_over_nonnegative_values_matches_full_count(seq):
    # Narrow components collide and wide ones are mostly distinct, so both
    # a count of 1 and larger counts are drawn.
    assert _zero_sum_signs(seq) == _zero_sum_signs_full(seq)


@settings(max_examples=300)
@given(_colliding_sequences(), st.data())
def test_gray_walk_matches_dict_oracle(seq, data):
    need = _first_repeat_need(seq)
    budget = data.draw(st.sampled_from((need - 1, need, need + 1)) | st.integers(0, 2 * need))
    outcome = _walk_outcome(_gray_first_collision, seq, budget)
    assert outcome == _walk_outcome(gray_first_collision_by_dict, seq, budget)
    assert isinstance(outcome, tuple) == (budget < need)


def test_gray_walk_object_path_matches_dict_oracle():
    # A 2^63 component puts the radix prod_j (S_j + 1) past 2^63: the walk
    # keeps Python ints.
    rng = random.Random(63)
    wide = []
    for trial in range(40):
        n, k = rng.randint(1, 12), rng.randint(1, 3)
        vectors = [tuple(rng.choice((0, 1, 2, 5, 1 << 63)) for _ in range(k)) for _ in range(n)]
        vectors[rng.randrange(n)] = (1 << 63,) * k
        wide.append(VectorSequence(n, k, 1 << 63, tuple(vectors)))
    # Coordinate 0 up to 2^40, the others at most 6, and v_i = v_j + v_l
    # planted: the radix stays below 2^63 <= (n*M + 1)^k, so the walk runs
    # in int64 where a packing in base n*M + 1 would need Python ints.
    rng = random.Random(40)
    narrow = []
    for trial in range(40):
        n, k = rng.randint(3, 12), rng.randint(2, 3)
        vectors = [
            (rng.randint(0, 1 << 40), *(rng.randint(0, 6) for _ in range(k - 1))) for _ in range(n)
        ]
        i, j, l = rng.sample(range(n), 3)
        vectors[i] = tuple(a + b for a, b in zip(vectors[j], vectors[l]))
        seq = VectorSequence(n, k, max(map(max, vectors)), tuple(vectors))
        assert _mixed_radix(seq)[1] < 1 << 63 <= (n * seq.bound + 1) ** k, seq
        narrow.append(seq)
    for seq in wide + narrow:
        need = _first_repeat_need(seq)
        for budget in (need - 1, need, 1 << 22):
            outcome = _walk_outcome(_gray_first_collision, seq, budget)
            assert outcome == _walk_outcome(gray_first_collision_by_dict, seq, budget), seq


def test_gray_walk_matches_dict_oracle_at_the_pigeonhole_limit():
    # n = 24 with M the largest bound for which (n*M + 1)^k < 2^24, for
    # k = 1 and 2: every input collides, most of them after 2^10 to 2^15 sums.
    rng = np.random.default_rng(24)
    for trial in range(20):
        k = 1 + trial % 2
        seq = random_sequence(rng, 24, k, {1: 699_050, 2: 170}[k])
        walk = _gray_first_collision(seq)
        assert walk is not None
        assert walk == gray_first_collision_by_dict(seq, 1 << 22) == verify_distinct(seq)


def test_bruteforce_oracle_runs_the_walk_only():
    with (
        mock.patch("dsslab.sequences._zero_sum_signs", side_effect=AssertionError),
        mock.patch("dsslab.sequences._gray_first_collision", side_effect=AssertionError),
    ):
        assert _bruteforce_level(4, 1, 7, _NodeBudget(10**6)) is not None
        assert _bruteforce_level(3, 2, 1, _NodeBudget(10**6)) is None


def test_verify_default_budget_limits():
    rng = random.Random(26)
    generic = [(rng.randint(0, 1 << 40),) for _ in range(27)]
    # n = 26 is the longest generic input whose halves (3^13 entries) fit.
    assert verify_distinct(VectorSequence(26, 1, 1 << 40, tuple(generic[:26]))) is None
    # At n = 27 the larger half needs 3^14 entries, and is refused; the walk
    # then sees 2^22 sums without a repeat, and the half's refusal stands.
    with pytest.raises(BudgetExceededError) as err:
        verify_distinct(VectorSequence(27, 1, 1 << 40, tuple(generic)))
    assert (err.value.needed, err.value.budget) == (3**14, 1 << 22)
    # With v2 = v0 + v1 planted among 27 such entries the pair count is
    # refused alike, and the walk names {2} against {0, 1} at its 8th sum.
    rng = random.Random(5)
    planted = [rng.randint(1, 1 << 40) for _ in range(27)]
    planted[2] = planted[0] + planted[1]
    seq = VectorSequence(27, 1, max(planted), tuple((v,) for v in planted))
    with pytest.raises(BudgetExceededError) as err:
        _zero_sum_signs(seq)
    assert (err.value.needed, err.value.budget) == (3**14, 1 << 22)
    assert verify_distinct(seq) == Collision(first=(0, 1), second=(2,), total=(planted[2],))
    # A folding input passes at VERIFY_MAX_N.
    for k in (1, 2, 3):
        assert verify_distinct(baseline_construction(30, k)) is None


@settings(max_examples=300)
@given(_small_sequences(12) | _colliding_sequences(), st.sampled_from((1, 9, 81)))
def test_verify_with_refused_halves_is_walks_first_collision(seq, budget):
    # A pair count budget of 1, 9 or 81 refuses halves of more than 0, 2 or
    # 4 generic entries; the walk keeps its own budget and decides them.
    with mock.patch("dsslab.sequences.DEFAULT_TABLE_BUDGET", budget):
        assert verify_distinct(seq) == _gray_first_collision(seq)


def test_verify_budget_cap():
    seq = VectorSequence(31, 1, 1, ((1,),) * 31)
    with pytest.raises(BudgetExceededError):
        verify_distinct(seq)


def test_search_known_values():
    expected = {(1, 1): 1, (2, 1): 2, (3, 1): 4, (4, 1): 7, (3, 2): 2}
    for (n, k), m in expected.items():
        out = min_m_search(n, k)
        assert out.m_min == m, (n, k, out)
        assert out.exhaustive
        # every M strictly below the minimum was refuted
        assert out.refuted_below == m
        assert out.witness.bound == m
        assert out.witness.n == n
        assert verify_distinct(out.witness) is None


def test_search_trivial_empty_sequence():
    out = min_m_search(0, 2)
    assert out.m_min == 0
    assert out.exhaustive
    assert out.witness.vectors == ()


# Cells that the pruning-free oracle finishes in well under a second, with
# their minima, up to the largest cells SEARCH_LIMITS admits for k = 2, 3, 4.
ORACLE_CELLS = {
    (1, 1): 1, (2, 1): 2, (3, 1): 4, (3, 2): 2, (2, 2): 1,
    (6, 2): 4, (5, 3): 2, (6, 3): 2, (7, 3): 2, (4, 4): 1, (5, 4): 1, (6, 4): 2,
}


def test_search_matches_bruteforce_oracle():
    for (n, k), m in ORACLE_CELLS.items():
        pruned = min_m_search(n, k)
        brute = min_m_search(n, k, prune=False)
        assert pruned.m_min == brute.m_min == m, (n, k)
        assert pruned.exhaustive and brute.exhaustive
        assert verify_distinct(pruned.witness) is None
        assert verify_distinct(brute.witness) is None


# (m_min, nodes, witness) of every cell of the benchmark's search sweep,
# pinned from the earlier set-based search: any change to the collision test
# must walk the same tree in the same order.
SWEEP_PINNED = {
    (1, 1): (1, 1, ((1,),)),
    (2, 1): (2, 2, ((1,), (2,))),
    (3, 1): (4, 7, ((1,), (2,), (4,))),
    (4, 1): (7, 93, ((3,), (5,), (6,), (7,))),
    (5, 1): (13, 2010, ((3,), (6,), (11,), (12,), (13,))),
    (6, 1): (24, 135264, ((11,), (17,), (20,), (22,), (23,), (24,))),
    (1, 2): (1, 1, ((0, 1),)),
    (2, 2): (1, 2, ((0, 1), (1, 0))),
    (3, 2): (2, 6, ((0, 1), (0, 2), (1, 0))),
    (4, 2): (2, 6, ((0, 1), (0, 2), (1, 0), (2, 0))),
    (5, 2): (3, 138, ((0, 1), (0, 2), (1, 1), (2, 3), (3, 0))),
    (1, 3): (1, 1, ((0, 0, 1),)),
    (2, 3): (1, 2, ((0, 0, 1), (0, 1, 0))),
    (3, 3): (1, 4, ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
    (4, 3): (1, 19, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))),
    (1, 4): (1, 1, ((0, 0, 0, 1),)),
    (2, 4): (1, 2, ((0, 0, 0, 1), (0, 0, 1, 0))),
    (3, 4): (1, 4, ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0))),
}


def test_search_sweep_walks_pinned_tree():
    for (n, k), (m, nodes, vectors) in SWEEP_PINNED.items():
        out = min_m_search(n, k)
        assert (out.m_min, out.nodes, out.witness.vectors) == (m, nodes, vectors), (n, k)
        assert out.exhaustive and out.refuted_below == m


# min_m_search(5, 1, budget=b) trips at level refuted_below after exactly b
# nodes; these are the first budgets at which each level is reached (levels
# 1..4 hold no increasing 5-sequence, so they cost no node).
BUDGET_TRIPS_5_1 = ((1, 5), (3, 6), (14, 7), (41, 8), (98, 9), (212, 10))


def test_search_budget_trip_points_are_pinned():
    for b in range(1, 301):
        level = max(m for first, m in BUDGET_TRIPS_5_1 if first <= b)
        out = min_m_search(5, 1, budget=b)
        assert (out.refuted_below, out.nodes, out.exhaustive) == (level, b, False), b
        assert out.m_min is None and out.witness is None


# Lunnon's minima for k = 1 (Math. Comp. 50, 1988), n = 1..7.
LUNNON_K1 = (1, 2, 4, 7, 13, 24, 44)


def test_search_reproduces_lunnon_minima():
    for n, m in enumerate(LUNNON_K1[:-1], start=1):
        assert min_m_search(n, 1).m_min == m, n


def test_search_frontier_cell_7_1():
    out = min_m_search(7, 1)
    assert out.m_min == LUNNON_K1[6] == 44
    assert out.exhaustive and out.refuted_below == 44
    assert out.nodes == 18_083_382
    assert out.witness.vectors == ((20,), (31,), (37,), (40,), (42,), (43,), (44,))
    assert verify_distinct(out.witness) is None


@settings(max_examples=200)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))
def test_level_search_agrees_with_bruteforce(n, k, m):
    # One level at a time: both must agree on whether [0, m]^k holds a
    # distinct-sum n-sequence, whatever the levels below would say.
    pruned = _search_level(n, k, m, _NodeBudget(10**6))
    brute = _bruteforce_level(n, k, m, _NodeBudget(10**6))
    assert (pruned is None) == (brute is None)
    for found in (pruned, brute):
        if found is not None:
            indices, candidates = found
            vectors = tuple(candidates[i] for i in indices)
            assert verify_distinct(VectorSequence(n, k, m, vectors)) is None


def test_search_witness_is_permutation_canonical():
    out = min_m_search(3, 2)
    assert out.witness.vectors == ((0, 1), (0, 2), (1, 0))
    vecs = out.witness.vectors
    for perm in itertools.permutations(range(2)):
        permuted = tuple(sorted(tuple(v[j] for j in perm) for v in vecs))
        assert tuple(sorted(vecs)) <= permuted


def test_search_budget_gives_partial_outcome():
    out = min_m_search(5, 1, budget=50)
    assert not out.exhaustive
    assert out.m_min is None
    assert out.witness is None
    assert out.refuted_below >= 1
    assert out.nodes <= 50


def test_search_validation():
    assert SEARCH_LIMITS == {1: 7, 2: 6, 3: 7, 4: 6}
    for k, limit in SEARCH_LIMITS.items():
        with pytest.raises(ValueError):
            min_m_search(limit + 1, k)
    with pytest.raises(ValueError):
        min_m_search(2, 5)
    with pytest.raises(ValueError):
        min_m_search(-1, 1)


def test_baseline_examples():
    assert baseline_construction(3, 1).vectors == ((1,), (2,), (4,))
    assert baseline_construction(4, 2) == VectorSequence(
        4, 2, 2, ((1, 0), (0, 1), (2, 0), (0, 2))
    )
    assert baseline_construction(5, 2).bound == 4


def test_baseline_always_verifies():
    for n in range(1, 11):
        for k in range(1, 5):
            seq = baseline_construction(n, k)
            assert seq.bound == 2 ** (-(-n // k) - 1)
            assert verify_distinct(seq) is None, (n, k)


def test_bound_vs_search_report_no_violation_case():
    report = bound_vs_search_report(3, 1)
    assert {row.method for row in report.rows} == {
        "first_moment",
        "third_moment",
        "variance",
    }
    assert all(row.m_min == 4 for row in report.rows)
    assert not report.any_violation
    for row in report.rows:
        if row.finite_bound is not None:
            assert row.finite_bound <= row.m_min


def test_bound_vs_search_report_flags_base_case():
    # At n = k = 1 the exhaustive answer is 1 while the third-moment
    # finite form evaluates to 2^(1/3); the audit must say so honestly.
    report = bound_vs_search_report(1, 1)
    flagged = [row.method for row in report.rows if row.finite_violation]
    assert flagged == ["third_moment"]
    assert report.any_violation
    first = next(r for r in report.rows if r.method == "first_moment")
    assert first.finite_bound == 1.0
    assert first.m_min == 1
