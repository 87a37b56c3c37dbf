"""Seeded inputs of the four benchmark workloads.

Nothing here imports dsslab: the worker turns these inputs into program
calls, and the checks rebuild the same inputs from the same seed to judge
the outputs apart from the program.

A workload is a list of rounds; a round is a fixed list of jobs, and a run
always completes whole rounds. Round r of a run uses pool entry
r % len(pool), so inputs repeat only after the pool is used up.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("certify", "screen", "shell")

# certify: n = 20 candidates; one round certifies one candidate per k.
CERTIFY_N = 20
CERTIFY_ROUND_KS = (2, 3, 4, 1)
CERTIFY_POOL_ROUNDS = 4
CERTIFY_MC_SAMPLES = 100_000

# screen: n = 24 candidates at the pigeonhole limit, the largest M with
# (n*M + 1)^k < 2^n, so every candidate must collide. Two k = 1 jobs per
# k = 2 job keep the median inside one mixture rather than between two.
SCREEN_N = 24
SCREEN_LIMITS = {1: 699_050, 2: 170}
SCREEN_ROUND_KS = (1, 1, 2)
SCREEN_POOL_ROUNDS = 1000

# The search sweep of the shell round: every (n, k) that SEARCH_LIMITS =
# {1: 7, 2: 5, 3: 4, 4: 3} admitted when the benchmark was defined, except
# (7, 1), which alone takes 80 s. Pinned here so that a change to the
# limits does not change the work.
SEARCH_CELLS = tuple(
    (n, k) for k, limit in ((1, 6), (2, 5), (3, 4), (4, 3)) for n in range(1, limit + 1)
)

# shell: max_enumerable_n(k, p) at the default budget of 2^22 candidate
# points, pinned so that the lattice-check jobs need not run it first.
SHELL_N_MAX = {
    (1, 1): 21, (1, 2): 21, (1, 3): 21,
    (2, 1): 20, (2, 2): 21, (2, 3): 21,
    (3, 1): 19, (3, 2): 20, (3, 3): 21,
}
SHELL_CROSSOVER_K = (1, 200)
SHELL_GRID_SIZE = 32
SHELL_GRID_N = (1, 48)
SHELL_GRID_K = (1, 12)


def _rng(workload: str, seed: int, *tags) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across hosts.
    return random.Random(":".join(str(x) for x in (workload, seed, *tags)))


def conway_guy(n: int) -> list[int]:
    """The Conway-Guy set {u_n - u_{n-i} : 1 <= i <= n}, distinct sums for every n (Bohman 1996)."""
    u = [0, 1]
    for m in range(1, n):
        u.append(2 * u[m] - u[m - round(math.sqrt(2 * m))])
    return [u[n] - u[n - i] for i in range(1, n + 1)]


def _block_triangular(rng: random.Random, n: int, k: int):
    """Group g holds powers of two on coordinate g and seeded values below it.

    Coordinate k-1 is reached by group k-1 alone, so it fixes that group's
    subset; peeling groups from the top fixes every subset, hence all 2^n
    sums are distinct.
    """
    sizes = [n // k + (g < n % k) for g in range(k)]
    bound = 1 << (max(sizes) - 1)
    vectors = []
    for g, size in enumerate(sizes):
        for j in range(size):
            low = [rng.randint(0, bound) for _ in range(g)]
            vectors.append(tuple(low + [1 << j] + [0] * (k - g - 1)))
    rng.shuffle(vectors)
    return bound, tuple(vectors)


def certify_candidate(seed: int, index: int):
    """(k, bound, vectors) of certify candidate `index` of the pool."""
    k = CERTIFY_ROUND_KS[index % len(CERTIFY_ROUND_KS)]
    rng = _rng("certify", seed, index)
    if k >= 2:
        bound, vectors = _block_triangular(rng, CERTIFY_N, k)
        return k, bound, vectors
    scale = rng.randint(1, 3)
    values = [scale * v for v in conway_guy(CERTIFY_N)]
    rng.shuffle(values)
    return 1, max(values), tuple((v,) for v in values)


def certify_mc_seed(seed: int, index: int) -> int:
    return _rng("certify-mc", seed, index).getrandbits(63)


def screen_candidates(seed: int):
    """All (k, bound, vectors) of the screen pool, round by round."""
    rng = _rng("screen", seed)
    pool = []
    for _ in range(SCREEN_POOL_ROUNDS):
        for k in SCREEN_ROUND_KS:
            bound = SCREEN_LIMITS[k]
            vectors = tuple(
                tuple(rng.randint(0, bound) for _ in range(k)) for _ in range(SCREEN_N)
            )
            pool.append((k, bound, vectors))
    return pool


def search_order(seed: int):
    cells = list(SEARCH_CELLS)
    _rng("search", seed).shuffle(cells)
    return cells


def shell_round(seed: int):
    """The jobs of one shell round as (kind, args).

    The seed draws the bounds grid and the order of the search cells
    within the sweep. The order of the jobs is fixed: peak RSS depends on
    which enumeration follows which (two levels, 224 and 240 MB, with a
    seeded order), and a fixed order keeps that out of the comparison
    between runs.
    """
    jobs = [("lattice", (k, p, n)) for (k, p), n in SHELL_N_MAX.items()]
    jobs += [("max_n", (k, p)) for k, p in SHELL_N_MAX]
    rng = _rng("shell", seed)
    grid = tuple(
        (rng.randint(*SHELL_GRID_N), rng.randint(*SHELL_GRID_K)) for _ in range(SHELL_GRID_SIZE)
    )
    jobs.append(("table", grid))
    jobs.append(("sweep", tuple(search_order(seed))))
    return jobs


def round_keys(workload: str, seed: int, r: int):
    """Keys of the jobs of round r; a key names a job's input for the checks."""
    if workload == "certify":
        base = (r % CERTIFY_POOL_ROUNDS) * len(CERTIFY_ROUND_KS)
        return [("certify", base + i) for i in range(len(CERTIFY_ROUND_KS))]
    if workload == "screen":
        base = (r % SCREEN_POOL_ROUNDS) * len(SCREEN_ROUND_KS)
        return [("screen", base + i) for i in range(len(SCREEN_ROUND_KS))]
    if workload == "shell":
        return [(kind, *args) if kind in ("lattice", "max_n") else (kind,)
                for kind, args in shell_round(seed)]
    raise ValueError(f"unknown workload {workload!r}")
