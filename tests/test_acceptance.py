"""Release acceptance suite.

One test per criterion, in order. Every test prints a single
"criterion N: PASS/FAIL" line (shown under -s, or in the failure report)
and then asserts the same boolean, so a plain ``pytest -v`` run reads as
one verdict line per criterion.

Two criteria are stated with care, because the obvious statement is
false; the README discusses both:

* criterion 3: the lattice-shell ratio converges to 1 but not
  monotonically. The signed deviation ratio - 1 changes sign as n grows
  (a boundary-shell effect of the Gauss-circle kind; the integer sums are
  exact), so |ratio - 1| dips near each zero crossing and then rises
  again. The criterion therefore checks the envelope: at every (k, p) the
  largest |ratio - 1| over the last three enumerable n must be strictly
  below the largest over the three n before them, next to the 0.05 cap.
* criterion 6: the finite forms are heuristic, and at n = k = 1 the
  third-moment form is 2^(1/3) > 1 = M_min, a real violation that the
  audit must report (the CLI exits 1 on it). The criterion checks the
  audit itself: M_min matches the pinned search results, each finite
  bound matches the dsslab-free 30-digit recomputation of
  perfbench/checks.py, each violation flag equals finite_bound > M_min,
  and the violations are exactly that one case.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from conftest import random_sequence, subset_total
from dsslab import (
    METHOD_FIRST,
    METHOD_THIRD,
    METHOD_VARIANCE,
    VectorSequence,
    baseline_construction,
    best_method,
    bound_vs_search_report,
    closed_form_sum,
    coeff,
    convexity_probe,
    crossover_table,
    exact_moment,
    extremal_moment,
    lattice_shell_enumerate,
    max_enumerable_n,
    mc_estimate,
    min_m_search,
    scaled_abs_moment_sum,
    variance_identity_check,
    verify_distinct,
)
from dsslab.cli import build_config, run
from dsslab.sequences import _gray_first_collision, _zero_sum_signs

pytest.importorskip("mpmath")
checks = pytest.importorskip("checks")


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_01_exact_identity_suite():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 65):
        if closed_form_sum(n, 1) != scaled_abs_moment_sum(n, 1):
            bad.append((n, 1))
        if closed_form_sum(n, 3) != scaled_abs_moment_sum(n, 3):
            bad.append((n, 3))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    line = _verdict(1, ok, f"T_1/T_3 closed forms exact for n <= 64 ({elapsed:.2f}s)")
    assert ok, f"{line}; mismatches={bad}"


def test_criterion_02_shell_exactness_at_k_p_one():
    t0 = time.perf_counter()
    ratios = [lattice_shell_enumerate(n, 1, 1).continuum_ratio for n in range(1, 17)]
    elapsed = time.perf_counter() - t0
    ok = all(r == 1.0 for r in ratios) and elapsed < 1.0
    line = _verdict(2, ok, f"k=p=1 shell ratio is exactly 1.0 for n <= 16 ({elapsed:.2f}s)")
    assert ok, f"{line}; ratios={ratios}"


def test_criterion_03_shell_convergence():
    # |ratio - 1| dips near each sign change of ratio - 1, so convergence is
    # checked on three-n window maxima, not pointwise (see module docstring).
    t0 = time.perf_counter()
    rows = []
    for k in (2, 3):
        for p in (1, 2, 3):
            n_max = max_enumerable_n(k, p)
            devs = {
                n: abs(lattice_shell_enumerate(n, k, p).continuum_ratio - 1.0)
                for n in range(n_max - 5, n_max + 1)
            }
            early = max(devs[n] for n in range(n_max - 5, n_max - 2))
            late = max(devs[n] for n in range(n_max - 2, n_max + 1))
            rows.append(
                {
                    "k": k,
                    "p": p,
                    "n_max": n_max,
                    "early": early,
                    "late": late,
                    "big_enough": 2**n_max >= 2**14,
                    "small": devs[n_max] <= 0.05,
                    "shrinking": late < early,
                }
            )
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0 and all(r["big_enough"] and r["small"] and r["shrinking"] for r in rows)
    summary = [
        f"(k={r['k']},p={r['p']}) n_max={r['n_max']} "
        f"max|dev| n_max-5..n_max-3={r['early']:.3e} n_max-2..n_max={r['late']:.3e}"
        + ("" if r["big_enough"] else " below 2^14 points")
        + ("" if r["small"] else " above 0.05")
        + ("" if r["shrinking"] else " not shrinking")
        for r in rows
    ]
    line = _verdict(
        3,
        ok,
        f"shell deviation <= 0.05 and its three-n envelope shrinks ({elapsed:.1f}s)",
    )
    assert ok, f"{line}; " + "; ".join(summary)


def test_criterion_04_crossover_reproduction():
    t0 = time.perf_counter()
    rows = crossover_table(1, 30)
    again = crossover_table(1, 30)
    deterministic = rows == again

    argmax_ok = True
    for row in rows:
        ref = checks.coefficients(row.k)
        if row.argmax != max(ref, key=lambda m: ref[m]):
            argmax_ok = False

    cli = run(build_config(["crossover", "--k-min", "1", "--k-max", "30", "--format", "csv"]))
    survives_disagreement = cli.code == 0 and len(cli.notes) > 0

    anchors = (
        abs(coeff(1, 1) - 0.6266571) <= 1e-7
        and abs(coeff(2, 1) - 3.0 ** -0.5) <= 1e-7
    )
    elapsed = time.perf_counter() - t0
    ok = deterministic and argmax_ok and survives_disagreement and anchors and elapsed < 1.0
    line = _verdict(
        4,
        ok,
        f"crossover table deterministic, argmax re-verified, disagreement reported ({elapsed:.2f}s)",
    )
    assert ok, (
        f"{line}; deterministic={deterministic} argmax_ok={argmax_ok} "
        f"survives_disagreement={survives_disagreement} anchors={anchors}"
    )


SEARCH_EXPECTED = {(1, 1): 1, (2, 1): 2, (3, 1): 4, (4, 1): 7, (5, 1): 13, (3, 2): 2}


def test_criterion_05_search_oracle():
    t0 = time.perf_counter()
    mismatches = []
    for (n, k), expect in SEARCH_EXPECTED.items():
        pruned = min_m_search(n, k)
        brute = min_m_search(n, k, prune=False)
        if not (
            pruned.m_min == brute.m_min == expect
            and pruned.exhaustive
            and brute.exhaustive
            and verify_distinct(pruned.witness) is None
        ):
            mismatches.append((n, k, pruned.m_min, brute.m_min, expect))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120.0
    line = _verdict(5, ok, f"minimal M search matches brute-force oracle ({elapsed:.1f}s)")
    assert ok, f"{line}; mismatches={mismatches}"


# The one violation the audit must report. At n = k = 1 the third-moment form
# is (2^4 / (4 * T_3(1)))^(1/3) = 2^(1/3) > 1 = M_min: its lattice side uses the
# continuum term (k/(k+p)) 2^n R^p, which at k = 1, p = 3 exceeds the true
# minimum over 2^n points of Z + 1/2 by 2^(2n)/16, a factor 2 at n = 1.
EXPECTED_VIOLATIONS = {(1, 1, METHOD_THIRD): 2.0 ** (1.0 / 3.0)}


def test_criterion_06_bound_vs_search_audit():
    t0 = time.perf_counter()
    problems = []
    violations = {}
    for (n, k), expect in SEARCH_EXPECTED.items():
        report = bound_vs_search_report(n, k)
        if report.m_min != expect or not report.exhaustive:
            problems.append(
                f"(n={n},k={k}) M_min={report.m_min} exhaustive={report.exhaustive}, "
                f"expected {expect}"
            )
        for row in report.rows:
            alt = checks._finite_bounds(n, k)[row.method]
            if alt is None:
                agrees = row.finite_bound is None
            else:
                agrees = (
                    row.finite_bound is not None
                    and abs(row.finite_bound - alt) <= 1e-12 * alt
                )
            flagged = alt is not None and alt > expect
            if not agrees or row.m_min != expect or row.finite_violation != flagged:
                problems.append(
                    f"(n={n},k={k}) {row.method} finite={row.finite_bound} "
                    f"recomputed={alt} violation={row.finite_violation} expected={flagged}"
                )
            if row.finite_violation:
                violations[(n, k, row.method)] = row.finite_bound
    exact = violations.keys() == EXPECTED_VIOLATIONS.keys() and all(
        abs(violations[key] - value) <= 1e-12 for key, value in EXPECTED_VIOLATIONS.items()
    )
    elapsed = time.perf_counter() - t0
    ok = not problems and exact and elapsed < 10.0
    line = _verdict(
        6,
        ok,
        "audit matches recomputed finite bounds; only violation is "
        f"(1,1,third_moment) = 2^(1/3) ({elapsed:.1f}s)",
    )
    assert ok, f"{line}; problems={problems} violations={violations}"


def test_criterion_07_moment_oracle_equivalence():
    t0 = time.perf_counter()
    mismatch = []
    for n in range(1, 21):
        for k in (1, 2, 3):
            for m in (1, 3):
                seq = VectorSequence(n, k, m, ((m,) * k,) * n)
                for p in (1, 3):
                    if exact_moment(seq, p).value != extremal_moment(n, k, m, p).value:
                        mismatch.append((n, k, m, p))

    rng = np.random.default_rng(424242)
    variance_bad = 0
    for trial in range(200):
        seq = random_sequence(
            rng, int(rng.integers(1, 13)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
        )
        if variance_identity_check(seq) is not None:
            variance_bad += 1
    elapsed = time.perf_counter() - t0
    ok = not mismatch and variance_bad == 0 and elapsed < 30.0
    line = _verdict(
        7, ok, f"extremal closed forms and variance identity exact ({elapsed:.1f}s)"
    )
    assert ok, f"{line}; mismatch={mismatch} variance_bad={variance_bad}"


MC_FIXTURES = (
    VectorSequence(3, 1, 4, ((1,), (2,), (4,))),
    baseline_construction(8, 2),
    VectorSequence(
        10,
        3,
        9,
        (
            (1, 0, 0),
            (2, 3, 5),
            (3, 6, 1),
            (4, 2, 6),
            (5, 5, 2),
            (6, 1, 7),
            (7, 4, 3),
            (8, 0, 8),
            (0, 3, 4),
            (9, 6, 0),
        ),
    ),
)


def test_criterion_08_monte_carlo_acceptance():
    t0 = time.perf_counter()
    shortfalls = []
    for seq in MC_FIXTURES:
        for p in (1, 2, 3):
            exact = float(exact_moment(seq, p).value)
            hits = 0
            for seed in range(100):
                mv = mc_estimate(seq, p, samples=10**5, seed=seed)
                if abs(mv.value - exact) <= 3.0 * mv.stderr:
                    hits += 1
            if hits < 97:
                shortfalls.append((seq.n, seq.k, p, hits))
    elapsed = time.perf_counter() - t0
    ok = not shortfalls and elapsed < 60.0
    line = _verdict(
        8, ok, f"MC within 3 stderr on >= 97/100 seeds, all fixtures ({elapsed:.1f}s)"
    )
    assert ok, f"{line}; shortfalls={shortfalls}"


def test_criterion_09_convexity_probe():
    t0 = time.perf_counter()
    hits = [
        convexity_probe(4, 8, trials=200, seed=2026),
        convexity_probe(8, 5, trials=200, seed=816),
    ]
    elapsed = time.perf_counter() - t0
    ok = all(h is None for h in hits) and elapsed < 30.0
    line = _verdict(9, ok, f"no midpoint convexity counterexample found ({elapsed:.1f}s)")
    assert ok, f"{line}; hits={hits}"


def test_criterion_10_verifier_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    disagreements = 0
    bad_witness = 0
    for trial in range(500):
        n = int(rng.integers(3, 15))
        k = int(rng.integers(1, 4))
        seq = random_sequence(rng, n, k, int(rng.integers(1, 8)))
        if trial % 2:
            # plant {i} = {j} + {l} so a collision is guaranteed
            i, j, l = (int(x) for x in rng.choice(n, size=3, replace=False))
            vectors = list(seq.vectors)
            vectors[i] = tuple(a + b for a, b in zip(vectors[j], vectors[l]))
            bound = max(max(v) for v in vectors)
            seq = VectorSequence(n, k, bound, tuple(vectors))
        # The pair count is called directly: at k = 1 most of these inputs
        # are below the pigeonhole limit, where verify_distinct only walks.
        walk = _gray_first_collision(seq)
        if (_zero_sum_signs(seq) == 1) != (walk is None) or verify_distinct(seq) != walk:
            disagreements += 1
        if walk is not None:
            same_sum = subset_total(seq, walk.first) == subset_total(seq, walk.second)
            if not same_sum or set(walk.first) == set(walk.second):
                bad_witness += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and bad_witness == 0 and elapsed < 30.0
    line = _verdict(
        10, ok, f"pair-count verifier agrees with the Gray walk, 500 cases ({elapsed:.1f}s)"
    )
    assert ok, f"{line}; disagreements={disagreements} bad_witness={bad_witness}"
