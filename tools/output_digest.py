"""Digest of dsslab's library outputs, for checking that a change keeps them byte-identical.

Usage: python tools/output_digest.py TREE

Imports dsslab from TREE/src, and the benchmark's input builders from
perfbench/workloads.py in this tool's own checkout, and prints
`<records> <sha256>`: the number of records and one hash over all of
them. A record is the repr of one seeded call's result, or of its
refusal: (what, needed, budget) for a budget, the message for a
ValueError or an OverflowError. Arrays enter by their length and the
hash of their int64 bytes. The calls:

- signed_sum_distribution with both sign sets, at budgets 1..64 and
  2^8, 2^12, 2^16, 2^20 and 2^22 (the default), including inputs the
  default budget refuses;
- verify_distinct for n <= 22, on sequences that collide and that do not,
  and on block-structured ones (baseline_construction's for n <= 26,
  seeded block-triangular and Conway-Guy block-diagonal for n <= 24),
  each also with one component changed so that it collides; and past
  n = 30, on baseline_construction's for n = 31..40 and k = 2..6 and on
  one input whose blocks decide nothing;
- exact_moment for p = 1, 2, 3, at the default budget and at small ones;
- lattice_shell_enumerate for k <= 8, p <= 5 and every n up to one past
  max_enumerable_n, at budgets 2^22 and 2^16;
- lower_bound on a grid of (n, k, method);
- gamma_fn and gamma_root on every half-integer of GAMMA_DOMAIN and on
  a seeded sample of it;
- ball_volume and radius_for_count on a (k, p, n) grid, and
  lattice_count_check at a few radii;
- crossover_table(1, 200);
- min_m_search on its cheap cells (n <= 3, n = 0 included) with both
  search paths and small budgets;
- cli.run on lattice-check in both modes and every format, with p given
  as 2 and as 2.0;
- mc_estimate at p = 1, 2, 3 and 2.5 with 1, 2 and 4,097 samples (one
  more than a block), on seeded sequences and on entries above 2^53,
  2^63 and the float range of a cube;
- bound_vs_search_report, extremal_moment and variance_identity_check
  on small grids, and one seeded convexity_probe;
- cli.run on every case of TREE/tests/data/cli_golden.json: all seven
  commands in every format, with their pass, collision, budget and
  audit exits.

Two trees print the same line exactly when every record matches. Uses
the standard library and numpy only; a run takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np


def _records(dsslab, workloads, tree: Path):
    """Yield one (label, result) pair per call, a refusal standing in for its result."""
    from dsslab import SEARCH_LIMITS, BudgetExceededError, VectorSequence
    from dsslab.cli import RunConfig, build_config, run

    def call(label, fn, *args, **kwargs):
        try:
            return label, fn(*args, **kwargs)
        except BudgetExceededError as err:
            return label, ("refused", err.what, err.needed, err.budget)
        except (ValueError, OverflowError) as err:
            return label, (type(err).__name__, str(err))

    def sequence(rng, n, k, bound):
        vectors = tuple(tuple(int(c) for c in row) for row in rng.integers(0, bound + 1, size=(n, k)))
        return VectorSequence(n, k, bound, vectors)

    rng = np.random.default_rng(2300)
    for signs in ((-1, 1), (-1, 0, 1)):
        for trial in range(1500):
            n = int(rng.integers(0, 11 if len(signs) == 2 else 8))
            coords = [int(c) for c in rng.integers(0, (8, 10**6)[trial % 2] + 1, size=n)]
            budget = int(rng.integers(1, 65))
            yield call(("dist", signs, coords, budget), dsslab.signed_sum_distribution,
                       coords, budget=budget, signs=signs)
        # Wide, repeating and zero-heavy entries, and powers of 3, from well
        # below to past the default budget.
        for budget in (1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 22):
            for n, hi in ((20, 10**6), (18, 100), (13, 10**7), (22, 3), (40, 1)):
                size = n if len(signs) == 2 else n * 2 // 3
                coords = [int(c) for c in rng.integers(0, hi + 1, size=size)]
                yield call(("dist", signs, coords, budget), dsslab.signed_sum_distribution,
                           coords, budget=budget, signs=signs)
            for n in (10, 11, 12, 14):
                yield call(("dist", signs, "powers of 3", n, budget), dsslab.signed_sum_distribution,
                           [3**i for i in range(n)], budget=budget, signs=signs)
    yield call(("dist", "powers of two"), dsslab.signed_sum_distribution, [1 << i for i in range(23)])
    generic = [int(c) for c in rng.integers(0, 1 << 40, size=14)]
    yield call(("dist", "generic half", generic), dsslab.signed_sum_distribution,
               generic, signs=(-1, 0, 1))

    # The widest bound keeps the packed radix below 2^63, so the pair count
    # decides rather than a walk over all 2^n subset sums.
    for n in range(1, 23):
        for k in (1, 2, 3):
            for bound in (3, 1 << (n // k + 2), int(2 ** (62 / k)) // n):
                for _ in range(2):
                    seq = sequence(rng, n, k, bound)
                    yield call(("verify", seq), dsslab.verify_distinct, seq)
    for seq in _block_inputs(dsslab, workloads):
        yield call(("verify blocks", seq), dsslab.verify_distinct, seq)
    # Past VERIFY_MAX_N the peel decides baseline_construction's inputs, and
    # the rest are refused: sorted, 2, 3, 4, ..., 2^30 is not superincreasing.
    for n in range(31, 41):
        for k in range(2, 7):
            seq = dsslab.baseline_construction(n, k)
            yield call(("verify long", seq), dsslab.verify_distinct, seq)
    seq = VectorSequence(31, 1, 1 << 30, tuple((v,) for v in [1 << i for i in range(1, 31)] + [3]))
    yield call(("verify long", seq), dsslab.verify_distinct, seq)

    for trial in range(300):
        n, k = int(rng.integers(0, 27)), int(rng.integers(1, 4))
        seq = sequence(rng, n, k, (4, 1000, 10**12)[trial % 3])
        for p in (1, 2, 3):
            yield call(("moment", seq, p), dsslab.exact_moment, seq, p)
            yield call(("moment", seq, p, 100), dsslab.exact_moment, seq, p, budget=100)

    for budget in (1 << 22, 1 << 16):
        for k in range(1, 9):
            for p in range(1, 6):
                label, top = call(("max n", k, p, budget), dsslab.max_enumerable_n, k, p, budget)
                yield label, top
                for n in range(top + 2 if isinstance(top, int) else 1):
                    yield call(("shell", n, k, p, budget), dsslab.lattice_shell_enumerate,
                               n, k, p, budget=budget)

    for method in dsslab.METHOD_TOKENS:
        for k in range(1, 9):
            for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 500, 1023, 1024, 4096, 9000):
                yield call(("bound", n, k, method), dsslab.lower_bound, n, k, method)

    lo, hi = dsslab.pnorm.GAMMA_DOMAIN
    sample = np.random.default_rng(2500).uniform(lo, hi, size=2000).tolist()
    for x in [twice / 2 for twice in range(1, int(2 * hi) + 1)] + sample:
        yield call(("gamma", x), dsslab.gamma_fn, x)
        for r in (1, 2, 3, 10):
            yield call(("gamma root", x, r), dsslab.gamma_root, x, r)

    for k in range(0, 13):
        for p in range(0, 7):
            for r in (0.5, 1.0, 2.5, 10.0):
                yield call(("volume", k, p, r), dsslab.ball_volume, k, p, r)
            for n in range(-1, 65):
                yield call(("radius", n, k, p), dsslab.radius_for_count, n, k, p)
    for k in range(1, 5):
        for p in (1, 2, 3):
            for r in (0.5, 1.0, 2.5, 7.5, 20.0, 50.0):
                yield call(("count check", k, p, r), dsslab.lattice_count_check, k, p, r)

    yield call(("crossover", 1, 200), lambda: tuple(dsslab.crossover_table(1, 200)))

    for k in SEARCH_LIMITS:
        for n in range(4):
            for prune in (True, False):
                for budget in (0, 1, 2, 5, 17, 100, 1000):
                    yield call(("search", n, k, prune, budget), dsslab.min_m_search,
                               n, k, budget=budget, prune=prune)

    for mode in ({"n": 0}, {"n": 6}, {"radius": 7.5}):
        for fmt in ("text", "csv", "json"):
            for p in (2, 2.0):
                config = RunConfig(command="lattice-check", fmt=fmt, k=2, p=p, **mode)
                yield call(("cli", config), run, config)

    rng = np.random.default_rng(2800)
    wide = [
        VectorSequence(3, 2, (1 << 53) + 5, (((1 << 53) + 5, 1), (7, 0), (3, (1 << 53) + 1))),
        VectorSequence(2, 1, (1 << 64) + 3, (((1 << 64) + 3,), (5,))),
        VectorSequence(2, 2, 1 << 400, ((1 << 400, 0), (1, 2))),
    ]
    shapes = ((1, 1, 3), (5, 2, 1000), (9, 1, 1 << 40), (20, 3, 10**6), (17, 4, 1 << 50))
    for seed, seq in enumerate([sequence(rng, *shape) for shape in shapes] + wide):
        for p in (1, 2, 3, 2.5):
            for samples in (1, 2, 4097):
                yield call(("mc", seq, p, samples, seed), dsslab.mc_estimate, seq, p, samples, seed)
    for p, samples in ((0, 5), (2, 0), (float("inf"), 5), (1, dsslab.moments.MC_MAX_SAMPLES + 1)):
        yield call(("mc", p, samples), dsslab.mc_estimate, wide[0], p, samples, 0)

    for k in SEARCH_LIMITS:
        for n in range(4):
            yield call(("report", n, k), dsslab.bound_vs_search_report, n, k)
    yield call(("report", 5, 1, 50), dsslab.bound_vs_search_report, 5, 1, budget=50)
    for n in (0, 1, 2, 3, 10, 64, 200):
        for k in (1, 3):
            for bound in (0, 1, 7, 1 << 40):
                for p in (1, 2, 3):
                    yield call(("extremal", n, k, bound, p), dsslab.extremal_moment, n, k, bound, p)
    for trial in range(60):
        seq = sequence(rng, int(rng.integers(0, 13)), int(rng.integers(1, 4)), (3, 1000, 10**12)[trial % 3])
        yield call(("variance", seq), dsslab.variance_identity_check, seq)
    yield call(("convexity", 8, 20, 40, 2801), dsslab.convexity_probe, 8, 20, 40, 2801)

    golden = json.loads((tree / "tests" / "data" / "cli_golden.json").read_text())
    with tempfile.TemporaryDirectory() as folder:
        paths = {}
        for name, text in golden["files"].items():
            paths[name] = Path(folder) / f"{name}.seq"
            paths[name].write_text(text)
        # The label is the argv before the input paths are filled in, which
        # differ from run to run; no output names its input's path.
        for argv, _, _ in golden["cases"]:
            config = build_config([a.format(**paths) for a in argv])
            yield call(("cli golden", tuple(argv)), run, config)


def _block_inputs(dsslab, workloads):
    """Block-structured sequences, each followed by its colliding variant if it has one.

    baseline_construction's vectors for n <= 26 and k <= 6, and seeded
    block-triangular inputs (the certify benchmark's builder: group g holds
    2^j on coordinate g and seeded values below it) and Conway-Guy
    block-diagonal inputs for n <= 24. The variant sets the third vector
    that is nonzero on one coordinate c alone to the sum of the first two,
    so that it collides with them.
    """

    def triangular(rng, n, k):
        bound, vectors = workloads._block_triangular(rng, n, k)
        return dsslab.VectorSequence(n, k, bound, vectors)

    def diagonal(rng, n, k):
        # Group g holds the Conway-Guy set of its size on coordinate g alone.
        sizes = [n // k + (g < n % k) for g in range(k)]
        vectors = [
            tuple(v if t == g else 0 for t in range(k))
            for g, size in enumerate(sizes)
            for v in workloads.conway_guy(size)
        ]
        rng.shuffle(vectors)
        return dsslab.VectorSequence(n, k, max(map(max, vectors)), tuple(vectors))

    def with_variant(seq):
        yield seq
        n, k, vectors = seq.n, seq.k, seq.vectors
        for c in range(k):
            pure = [i for i, vec in enumerate(vectors) if vec[c] and vec.count(0) == k - 1]
            if len(pure) >= 3:
                i, j, l = pure[:3]
                changed = list(vectors)
                changed[l] = tuple(vectors[i][c] + vectors[j][c] if t == c else 0 for t in range(k))
                yield dsslab.VectorSequence(n, k, max(map(max, changed)), tuple(changed))
                return

    for n in range(1, 27):
        for k in range(1, 7):
            yield from with_variant(dsslab.baseline_construction(n, k))
    rng = random.Random(2900)
    for blocks in (triangular, diagonal):
        for n in (6, 10, 14, 18, 21, 24):
            for k in (1, 2, 3, 4):
                for _ in range(2):
                    yield from with_variant(blocks(rng, n, k))


def _encode(value) -> str:
    """A repr of value in which each numpy array stands as its length and a hash of its bytes."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value, dtype="<i8").tobytes()
        return f"array({len(value)}, {hashlib.sha256(data).hexdigest()})"
    if dataclasses.is_dataclass(value):
        fields = ", ".join(f"{f.name}={_encode(getattr(value, f.name))}" for f in dataclasses.fields(value))
        return f"{type(value).__name__}({fields})"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_encode, value)) + ")"
    return repr(value)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    tree = Path(argv[1]).resolve()
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import dsslab
    import workloads

    digest, records = hashlib.sha256(), 0
    for label, result in _records(dsslab, workloads, tree):
        digest.update(f"{_encode(label)} -> {_encode(result)}\n".encode())
        records += 1
    print(records, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
