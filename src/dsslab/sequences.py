"""Distinct-subset-sum verification and exhaustive minimal-M search in Z^k.

A sequence of n vectors with components in [0, M] has the distinctness
property when all 2^n subset sums differ, that is, when eps = 0 is the
only eps in {-1, 0, 1}^n with sum eps_i a_i = 0. The verifier decides
this by meet-in-the-middle (Horowitz-Sahni): it packs the vectors into
integers in mixed radix S_j + 1, S_j being coordinate j's sum, builds
one exact {-1, 0, +1} signed-sum distribution per half of them, and
counts the pairs of half sums that cancel, in O(3^(n/2)). The sums are
distinct exactly when that count is 1. Before the count,
block-structured inputs are proved distinct coordinate by coordinate:
grouped by their last nonzero coordinate, the vectors have distinct sums
when every group's values on its coordinate do, which a superincreasing
group shows at once; a group that is not superincreasing decides nothing
and leaves the input to the full count. Only to name a collision does
it walk subsets in Gray-code order, to the first repeat and within the
DP's budget of 2^22 sums. The walk doubles its walked prefix level by
level: the next 2^j packed sums, in the same radix, are the first 2^j
in reverse, shifted by vector j, and they are looked up block by block
in the walked sums kept sorted, 16 bytes per walked sum. The walk also
settles the inputs that pigeonhole already condemns, those too wide to
pack into int64 (on Python ints) and those whose halves pass the DP's
budget.

The searcher iterates M upward and runs a depth-first search over
canonical candidate sequences per level, refuting each M below the
answer. The same packing turns the subset sums of a chosen prefix into
the set bits of one Python integer, so a candidate's collision test is a
shift and an AND. Lunnon's (7, 1) cell, M = 44 after 18,083,382 nodes,
takes seconds. For k >= 2, SEARCH_LIMITS stops at the last cells that the
pruning-free oracle also finishes in under a second. Desk scale only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .bounds import METHOD_TOKENS, lower_bound
from .errors import BudgetExceededError
from .moments import _INT64_MAX, DEFAULT_TABLE_BUDGET, _halves

__all__ = [
    "VERIFY_MAX_N",
    "DEFAULT_NODE_BUDGET",
    "SEARCH_LIMITS",
    "VectorSequence",
    "Collision",
    "iter_gray_subset_sums",
    "verify_distinct",
    "SearchOutcome",
    "min_m_search",
    "baseline_construction",
    "BoundSearchRow",
    "BoundSearchReport",
    "bound_vs_search_report",
]

# Largest n verify_distinct counts or walks. An input whose vectors,
# grouped by their last nonzero coordinate, are superincreasing group by
# group is decided by peeling (_peeled_distinct) at any n, as
# baseline_construction(n, k) and block-triangular inputs are; past this n
# every other input is refused. Up to it, others go to the pair count,
# whose half supports obey the DP's budget of 2^22 entries: every input up
# to n = 26 fits (3^13 entries a half), and longer ones fit when their half
# sums fold. The rest go to the Gray walk, and are refused unless it finds
# a repeat within its budget: it looks at no more than 2^22 sums. It holds
# at most 2^21 of them, in int64, in step order and sorted (32 MB), and a
# full 2^22-sum walk peaks 57 MB above the interpreter while merging its
# last level.
VERIFY_MAX_N = 30

# Search nodes are candidate vector placements; one node per attempt.
DEFAULT_NODE_BUDGET = 10**8

# Exhaustive-search desk limits on n per dimension. One past them, the
# pruning-free oracle takes 22 s at (7, 2), 1.9 s at (7, 4) and 112 s at
# (8, 3), on 2 shared vCPUs.
SEARCH_LIMITS = {1: 7, 2: 6, 3: 7, 4: 6}

# New Gray-walk sums looked up per numpy call while a level is searched
# for its first repeat.
_PROBE_BLOCK = 2048


@dataclass(frozen=True)
class VectorSequence:
    """n integer vectors in [0, bound]^k with a declared component bound."""

    n: int
    k: int
    bound: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0 or self.k < 1 or self.bound < 0:
            raise ValueError(f"bad shape: n={self.n}, k={self.k}, bound={self.bound}")
        if len(self.vectors) != self.n:
            raise ValueError(f"expected {self.n} vectors, got {len(self.vectors)}")
        for vec in self.vectors:
            if len(vec) != self.k:
                raise ValueError(f"vector {vec} has length {len(vec)}, expected {self.k}")
            for c in vec:
                if not (0 <= c <= self.bound):
                    raise ValueError(f"component {c} of {vec} outside [0, {self.bound}]")

    def to_text(self) -> str:
        """Serialize in the sequence file format: `n k M`, then one vector per line."""
        lines = [f"{self.n} {self.k} {self.bound}"]
        for vec in self.vectors:
            lines.append(" ".join(str(c) for c in vec))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "VectorSequence":
        """Parse the sequence file format; blank lines are skipped.

        A token that is not an integer raises ValueError naming it and its
        line, counted as in the file, blank lines included.
        """
        rows = [
            (number, line.split())
            for number, line in enumerate(text.splitlines(), start=1)
            if line.strip()
        ]
        if not rows or len(rows[0][1]) != 3:
            raise ValueError("first line must be `n k M`")
        (n, k, bound), *vectors = (_integers(number, tokens) for number, tokens in rows)
        if len(vectors) != n:
            raise ValueError(f"expected {n} vector lines, found {len(vectors)}")
        return cls(n=n, k=k, bound=bound, vectors=tuple(vectors))


def _integers(number: int, tokens: list[str]) -> tuple[int, ...]:
    """The tokens of line `number` as ints, or a ValueError naming the first that is not one."""
    row = []
    for token in tokens:
        try:
            row.append(int(token))
        except ValueError:
            raise ValueError(f"line {number}: {token!r} is not an integer") from None
    return tuple(row)


@dataclass(frozen=True)
class Collision:
    """Two distinct index subsets with equal vector sum (indices zero-based)."""

    first: tuple[int, ...]
    second: tuple[int, ...]
    total: tuple[int, ...]


def _mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _subset_total(seq: VectorSequence, mask: int) -> tuple[int, ...]:
    total = [0] * seq.k
    for i in _mask_indices(mask):
        for j, c in enumerate(seq.vectors[i]):
            total[j] += c
    return tuple(total)


def _pack(vec: tuple[int, ...], base: int) -> int:
    """One vector as a mixed-radix integer, first coordinate least significant."""
    acc = 0
    for c in reversed(vec):
        acc = acc * base + c
    return acc


def _mixed_radix(seq: VectorSequence) -> tuple[list[int], int]:
    """The vectors packed in mixed radix S_j + 1, S_j coordinate j's sum, and prod_j (S_j + 1).

    Coordinate j of a subset sum lies in [0, S_j], so packed subset sums
    never carry: they are equal exactly when the vector sums are, and all
    lie below the returned radix product.
    """
    packed = [0] * seq.n
    scale = 1
    for column in zip(*seq.vectors):
        packed = [acc + c * scale for acc, c in zip(packed, column)]
        scale *= sum(column) + 1
    return packed, scale


def iter_gray_subset_sums(seq: VectorSequence) -> Iterator[tuple[int, int]]:
    """Yield (subset mask, packed subset sum) over all 2^n subsets.

    Subsets follow the reflected Gray code, so consecutive masks differ in
    one bit and the packed sum updates by one addition or subtraction.
    """
    # Base n*M + 1, apart from _mixed_radix: this is the oracles' route
    # (_bruteforce_level, the tests' dict walk), independent of the walk.
    packed = [_pack(vec, seq.n * seq.bound + 1) for vec in seq.vectors]
    current = 0
    yield 0, 0
    for step in range(1, 1 << seq.n):
        bit = (step & -step).bit_length() - 1
        gray = step ^ (step >> 1)
        if (gray >> bit) & 1:
            current += packed[bit]
        else:
            current -= packed[bit]
        yield gray, current


def _gray_first_collision(
    seq: VectorSequence, budget: int = DEFAULT_TABLE_BUDGET
) -> Collision | None:
    """The first repeated sum of the Gray-code walk, or None after all 2^n sums.

    The first 2^(j+1) steps of the reflected Gray code are the first 2^j
    steps, then the same subsets in reverse order with vector j added. So
    with `walk` the packed sums of steps 0..2^j-1 (all distinct, or the
    walk would have stopped), the next 2^j sums are walk[::-1] + a_j, and
    these are distinct among themselves. The first repeat of the level is
    therefore the first of them found among the earlier sums, and its
    partner is the one earlier step with that sum: each block of
    _PROBE_BLOCK new sums, in step order, is looked up in the earlier sums
    kept sorted. Only a clean level is appended to `walk`, and its
    sorted sums, the old ones shifted by a_j, are merged in by a stable
    sort of the two sorted runs. That holds 16 bytes per walked sum. The
    sums, packed by _mixed_radix, are int64 while the radix product is
    below 2^63 and Python ints from there on.

    At most budget steps are looked at; when the budget runs out before a
    repeat or the end of the walk, BudgetExceededError is raised.
    """
    packed, radix = _mixed_radix(seq)
    limit = min(budget, 1 << seq.n)
    walk = ordered = np.zeros(1, dtype=object if radix > _INT64_MAX else np.int64)
    for j, vec in enumerate(packed):
        half = 1 << j
        back = walk[::-1]
        for lo in range(0, min(half, limit - half), _PROBE_BLOCK):
            sums = back[lo : min(lo + _PROBE_BLOCK, limit - half)] + vec
            found = ordered[np.minimum(ordered.searchsorted(sums), half - 1)] == sums
            if found.any():
                t = int(found.argmax())
                earlier = int(np.flatnonzero(walk == sums[t])[0])
                first, second = (step ^ step >> 1 for step in (earlier, half + lo + t))
                return Collision(
                    first=_mask_indices(first),
                    second=_mask_indices(second),
                    total=_subset_total(seq, second),
                )
        if 2 * half >= limit:
            break
        walk = np.concatenate((walk, back + vec))
        ordered = np.concatenate((ordered, ordered + vec))
        ordered.sort(kind="stable")
    if budget < 1 << seq.n:
        raise BudgetExceededError(f"Gray walk saw {budget} subset sums and no repeat", None, budget)
    return None


def _zero_sum_signs(seq: VectorSequence) -> int:
    """The number of eps in {-1, 0, 1}^n with sum eps_i a_i = 0, by meet-in-the-middle.

    Coordinate j's signed sums d_j lie in [-S_j, S_j]. Packed by
    _mixed_radix, a signed sum is 0 exactly when every d_j is: the lowest
    nonzero d_j would have to be a multiple of S_j + 1. _halves splits the
    packed vectors, in their order, into two three-sign distributions, and
    a zero total pairs y in one with -y in the other. Both are symmetric,
    so the count is sum w_y c(y) over _halves' ys >= 0 and weights w_y,
    c(y) being the inner (second) half's count of y; the count of pairs
    does not depend on which half is inner. One searchsorted finds the ys
    inner holds, and an int64 dot product sums their products: the count
    is at most 3^n < 2^63, since n <= VERIFY_MAX_N. It is 1, eps = 0
    alone, exactly when the 2^n subset sums are distinct. Each half's
    support is held to the DP's default budget.
    """
    ys, weights, inner = _halves(_mixed_radix(seq)[0], DEFAULT_TABLE_BUDGET, (-1, 0, 1))
    at = np.minimum(inner.values.searchsorted(ys), len(inner.values) - 1)
    shared = inner.values[at] == ys
    return int(np.dot(weights[shared], inner.counts[at[shared]]))


def _peeled_distinct(seq: VectorSequence) -> bool:
    """True when the vectors' blocks prove all 2^n subset sums distinct.

    Each vector goes to the group of its last nonzero coordinate c, with
    its value on c. Two different subsets differ in some highest group;
    on that group's coordinate the groups below are zero and the groups
    above agree, so the two sums differ when that group's values have
    distinct subset sums. A group whose sorted values are superincreasing,
    each above the sum of those before it, has them, so superincreasing
    groups make a distinct sequence. False decides nothing: it comes of a
    zero vector or of a group that is not superincreasing.
    """
    groups: dict[int, list[int]] = {}
    for vec in seq.vectors:
        c = next((j for j in reversed(range(seq.k)) if vec[j]), None)
        if c is None:
            return False
        groups.setdefault(c, []).append(vec[c])
    for values in groups.values():
        values.sort()
        if any(v <= s for v, s in zip(values, itertools.accumulate(values, initial=0))):
            return False
    return True


def verify_distinct(seq: VectorSequence) -> Collision | None:
    """None when all 2^n subset sums are distinct, else the first collision.

    "First" means first in the Gray-code walk; the returned pair is the
    earlier subset and the colliding one, both as sorted index tuples. The
    pair count of _zero_sum_signs decides, and the walk runs only to name a
    collision. The packed radix prod_j (S_j + 1) sends two kinds of input to
    the walk alone: below 2^n, pigeonhole forces a collision, and from 2^63
    on, the packed sums do not fit in int64. Past the pigeonhole gate, and
    before either, _peeled_distinct may prove the sums distinct from
    superincreasing blocks, at any radix and any n; None is returned then,
    and otherwise it decides nothing, so every collision and refusal comes
    from the routes after it. Past VERIFY_MAX_N, an input it leaves
    undecided is refused, before any count or walk. A half whose support
    passes the DP budget sends the input to the walk as well, and when the
    walk sees DEFAULT_TABLE_BUDGET sums, fewer than 2^n, without a repeat,
    the half's refusal is raised; a walk that runs out on its own raises
    its own. Both are BudgetExceededError.
    """
    radix = _mixed_radix(seq)[1]
    if radix >= 1 << seq.n and _peeled_distinct(seq):
        return None
    if seq.n > VERIFY_MAX_N:
        raise BudgetExceededError("subset enumeration", 1 << seq.n, 1 << VERIFY_MAX_N)
    if 1 << seq.n <= radix <= _INT64_MAX:
        try:
            if _zero_sum_signs(seq) == 1:
                return None
        except BudgetExceededError as refusal:
            try:
                return _gray_first_collision(seq)
            except BudgetExceededError:
                raise refusal from None
    return _gray_first_collision(seq)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of the minimal-M search.

    exhaustive means every canonical sequence at every M < m_min was
    refuted. When the node budget runs out mid-level, m_min and witness
    are None and refuted_below reports how far refutation is complete
    (every M < refuted_below is impossible).
    """

    n: int
    k: int
    m_min: int | None
    witness: VectorSequence | None
    exhaustive: bool
    refuted_below: int
    nodes: int


def _canonical_permuted(vectors: tuple[tuple[int, ...], ...], k: int) -> tuple:
    """Lexicographically least coordinate permutation of a sorted sequence."""
    return min(
        tuple(sorted(tuple(vec[j] for j in perm) for vec in vectors))
        for perm in itertools.permutations(range(k))
    )


def _search_level(n: int, k: int, m: int, tick: Callable[[], None]) -> tuple | None:
    """DFS for one distinct-sum sequence with components in [0, m].

    Candidates are the nonzero vectors of [0, m]^k in lexicographic order;
    sequences are strictly increasing, which loses nothing because a
    repeated vector collides immediately. For k >= 2 the root is further
    restricted to vectors with nondecreasing coordinates: the lex-least
    coordinate permutation of any sorted sequence starts with such a
    vector, so at least one representative per symmetry class survives.

    The chosen prefix is held as one integer bitset `reach`: bit s is set
    when s is a packed subset sum of the prefix. Packing never carries, so
    a candidate w collides exactly when `(reach << w) & reach` is nonzero,
    and the child receives `reach | reach << w`, which leaves nothing to
    undo on backtracking. It calls tick once per attempted placement,
    before its collision test.

    Returns the sequence's vectors, or None when refuted; tick's
    BudgetExceededError passes through.
    """
    candidates = [vec for vec in itertools.product(range(m + 1), repeat=k) if any(vec)]
    # Base n*m + 1, not _mixed_radix: the sums of the sequences to come
    # are not known yet, and none passes n*m.
    packed = [_pack(vec, n * m + 1) for vec in candidates]
    roots = [
        idx
        for idx in range(len(candidates) - n + 1)
        if all(a <= b for a, b in zip(candidates[idx], candidates[idx][1:]))
    ]

    def extend(placements: Iterable[int], depth: int, reach: int) -> tuple | None:
        """The vectors for places depth.. after the prefix `reach`, or None."""
        if depth == n:
            return ()
        for idx in placements:
            tick()
            shifted = reach << packed[idx]
            if shifted & reach:
                continue
            # the child's range leaves a candidate for each of the
            # n - depth - 2 places after its own
            later = range(idx + 1, len(candidates) - n + depth + 2)
            rest = extend(later, depth + 1, reach | shifted)
            if rest is not None:
                return (candidates[idx], *rest)
        return None

    return extend(roots, 0, 1)


def _bruteforce_level(n: int, k: int, m: int, tick: Callable[[], None]) -> tuple | None:
    """Pruning-free reference: try every increasing sequence, and keep the
    first whose Gray-walk sums never repeat, by a set of the sums seen.
    It calls tick once per attempted sequence."""
    candidates = [vec for vec in itertools.product(range(m + 1), repeat=k) if any(vec)]
    for vectors in itertools.combinations(candidates, n):
        tick()
        seq = VectorSequence(n=n, k=k, bound=m, vectors=vectors)
        seen = set()
        for _, packed in iter_gray_subset_sums(seq):
            if packed in seen:
                break
            seen.add(packed)
        else:
            return vectors
    return None


def min_m_search(
    n: int, k: int, budget: int = DEFAULT_NODE_BUDGET, prune: bool = True
) -> SearchOutcome:
    """Smallest M admitting a length-n distinct-sum sequence in [0, M]^k.

    Iterates M = 1, 2, ... and refutes each level exhaustively before
    moving on; feasibility is monotone in M, so the first feasible level
    is the answer. The empty sequence (n = 0) is found at M = 0 with no
    search. A found level and a node budget that trips mid-level end the
    loop alike, and one SearchOutcome reports either: on the trip, m_min
    and witness are None and refuted_below is the level left unfinished.
    prune=False switches to the pruning-free brute-force
    reference path (same canonical ordering, no prefix pruning, no root
    symmetry break), used to certify the pruned search in tests.

    The witness is canonicalized to the lexicographically least among its
    coordinate-permuted variants.
    """
    if k not in SEARCH_LIMITS:
        raise ValueError(f"search supports k in {sorted(SEARCH_LIMITS)}, got {k}")
    if n < 0 or n > SEARCH_LIMITS[k]:
        raise ValueError(f"search supports 0 <= n <= {SEARCH_LIMITS[k]} for k={k}, got {n}")
    spent = 0

    def tick() -> None:
        """Count one search node, or raise BudgetExceededError past the budget."""
        nonlocal spent
        if spent >= budget:
            raise BudgetExceededError("search nodes", spent + 1, budget)
        spent += 1

    level = _search_level if prune else _bruteforce_level
    # The empty sequence fits M = 0; any other starts the search at M = 1.
    m, found = (0, ()) if n == 0 else (1, None)
    try:
        while found is None:
            found = level(n, k, m, tick)
            if found is None:
                m += 1
    except BudgetExceededError:
        pass
    witness = None
    if found is not None:
        witness = VectorSequence(n=n, k=k, bound=m, vectors=_canonical_permuted(found, k))
    return SearchOutcome(
        n=n,
        k=k,
        m_min=None if witness is None else m,
        witness=witness,
        exhaustive=witness is not None,
        refuted_below=m,
        nodes=spent,
    )


def baseline_construction(n: int, k: int) -> VectorSequence:
    """Round-robin powers of two: index i gets value 2^(i // k) in coordinate i mod k.

    Always passes verification (each coordinate is an independent binary
    construction), with bound M = 2^(ceil(n/k) - 1). Serves as the sanity
    upper bound next to searched and bounded values of M.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    vectors = []
    for i in range(n):
        vec = [0] * k
        vec[i % k] = 1 << (i // k)
        vectors.append(tuple(vec))
    bound = 1 << (math.ceil(n / k) - 1)
    return VectorSequence(n=n, k=k, bound=bound, vectors=tuple(vectors))


@dataclass(frozen=True)
class BoundSearchRow:
    """One method's bounds next to the searched minimum.

    finite_violation marks a finite-form bound exceeding the true minimum,
    which refutes the finite chain at this size. asymptotic_exceeds is
    informational only: the asymptotic form drops a (1 + o(1)) factor, so
    exceeding the minimum at tiny n refutes nothing.
    """

    method: str
    finite_bound: float | None
    asymptotic_bound: float
    m_min: int
    baseline_m: int
    finite_violation: bool
    asymptotic_exceeds: bool


@dataclass(frozen=True)
class BoundSearchReport:
    """Every method's BoundSearchRow at one (n, k), beside the minimum.

    exhaustive is always True on return: bound_vs_search_report raises
    BudgetExceededError when the search ends with no minimum.
    """

    n: int
    k: int
    m_min: int
    baseline_m: int
    exhaustive: bool
    rows: tuple[BoundSearchRow, ...]

    @property
    def any_violation(self) -> bool:
        return any(row.finite_violation for row in self.rows)


def bound_vs_search_report(n: int, k: int, budget: int = DEFAULT_NODE_BUDGET) -> BoundSearchReport:
    """Audit every lower bound against the exhaustively searched minimum."""
    outcome = min_m_search(n, k, budget=budget)
    if outcome.m_min is None:
        raise BudgetExceededError(
            f"bound audit search spent {outcome.nodes} nodes, every M < "
            f"{outcome.refuted_below} is refuted, no minimum yet",
            None,
            budget,
        )
    baseline = baseline_construction(n, k)
    rows = []
    for method in METHOD_TOKENS:
        report = lower_bound(n, k, method)
        finite = report.finite_bound
        rows.append(
            BoundSearchRow(
                method=method,
                finite_bound=finite,
                asymptotic_bound=report.asymptotic_bound,
                m_min=outcome.m_min,
                baseline_m=baseline.bound,
                finite_violation=finite is not None and finite > outcome.m_min,
                asymptotic_exceeds=report.asymptotic_bound > outcome.m_min,
            )
        )
    return BoundSearchReport(
        n=n,
        k=k,
        m_min=outcome.m_min,
        baseline_m=baseline.bound,
        exhaustive=outcome.exhaustive,
        rows=tuple(rows),
    )
