"""Checks of every job output against computations made apart from dsslab.

Runs in the benchmark's parent process, which never imports dsslab, after
the timed loop has ended. Inputs are rebuilt from the seed by
`workloads`; references come from numpy enumerations, exact integer
arithmetic, closed forms from the literature and 30-digit mpmath values.
Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np

import workloads

mpmath.mp.dps = 30

# The default candidate-point budget of the lattice enumeration, 2^22.
ENUM_BUDGET = 1 << 22
# Minimal M for n = 1..6 in one dimension (Lunnon, Math. Comp. 1988).
LUNNON = {1: 1, 2: 2, 3: 4, 4: 7, 5: 13, 6: 24}
REL_TOL = 1e-12
MC_SIGMAS = 5.0


def _close(value, reference, tol=REL_TOL) -> bool:
    return value is not None and abs(value - reference) <= tol * abs(reference)


# ---------------------------------------------------------------- subset sums

def subset_sums(vectors) -> np.ndarray:
    """All 2^n subset sums as a (2^n, k) int64 array, by doubling."""
    k = len(vectors[0])
    sums = np.zeros((1, k), dtype=np.int64)
    for vec in vectors:
        sums = np.concatenate([sums, sums + np.asarray(vec, dtype=np.int64)])
    return sums


def distinct_rows(sums: np.ndarray) -> bool:
    """True when no two rows of a nonnegative (m, k) int64 array are equal."""
    base = int(sums.max()) + 1
    if base ** sums.shape[1] >= 1 << 62:
        return len(np.unique(sums, axis=0)) == len(sums)
    packed = sums @ (base ** np.arange(sums.shape[1], dtype=np.int64))
    return len(np.unique(packed)) == len(packed)


def _power_sum(values: np.ndarray, p: int) -> int:
    """Exact sum of values^p over nonnegative int64 values."""
    if int(values.max()) ** p * values.size < 1 << 62:
        return int((values ** p).sum())
    return sum(v ** p for v in values.tolist())


@functools.lru_cache(maxsize=None)
def certify_reference(seed: int, index: int):
    """(k, vectors, distinct, {p: E||X||_p^p}) of one certify candidate."""
    k, _, vectors = workloads.certify_candidate(seed, index)
    sums = subset_sums(vectors)
    totals = np.asarray(vectors, dtype=np.int64).sum(axis=0)
    n = len(vectors)
    # X = sum eps_i a_i with eps = +-1/2, so |X_j| = |2 S_j - T_j| / 2.
    doubled = np.abs(2 * sums - totals)
    moments = {
        p: Fraction(sum(_power_sum(doubled[:, j], p) for j in range(k)), (1 << n) * 2 ** p)
        for p in (1, 3)
    }
    moments[2] = Fraction(sum(c * c for vec in vectors for c in vec), 4)
    return k, vectors, distinct_rows(sums), moments


def check_certify(seed: int, key, output) -> list[str]:
    index = key[1]
    k, vectors, distinct, exact = certify_reference(seed, index)
    problems = []
    if len(output) != 5:
        return [f"candidate {index}: expected 5 outputs, got {len(output)}"]
    codes = [code for code, _ in output]
    if codes != [0] * 5:
        problems.append(f"candidate {index}: exit codes {codes}")
    verify, *moment_outputs = (json.loads(text) for _, text in output)
    if not distinct:
        problems.append(f"candidate {index}: independent enumeration found equal sums")
    if verify.get("status") != "pass" or (verify.get("n"), verify.get("k")) != (len(vectors), k):
        problems.append(f"candidate {index}: verify says {verify}")
    for p, payload in zip((1, 2, 3), moment_outputs):
        if payload.get("provenance") != "exact_dp" or payload.get("p") != p:
            problems.append(f"candidate {index}: p={p} payload {payload}")
        elif Fraction(payload["value"]) != exact[p]:
            problems.append(f"candidate {index}: p={p} value {payload['value']} != {exact[p]}")
    mc = moment_outputs[3]
    want_seed = workloads.certify_mc_seed(seed, index)
    if (mc.get("provenance") != "monte_carlo" or mc.get("samples") != workloads.CERTIFY_MC_SAMPLES
            or mc.get("seed") != want_seed or not mc.get("stderr")):
        problems.append(f"candidate {index}: Monte Carlo payload {mc}")
    elif abs(mc["value"] - float(exact[3])) > MC_SIGMAS * mc["stderr"]:
        problems.append(
            f"candidate {index}: Monte Carlo {mc['value']} is more than {MC_SIGMAS} standard"
            f" errors ({mc['stderr']}) from the exact {float(exact[3])}"
        )
    return problems


# --------------------------------------------------------------------- screen

@functools.lru_cache(maxsize=None)
def _screen_pool(seed: int):
    return workloads.screen_candidates(seed)


def check_screen(seed: int, key, output) -> list[str]:
    index = key[1]
    k, _, vectors = _screen_pool(seed)[index]
    n = len(vectors)
    if output is None:
        return [f"candidate {index}: no collision reported below the pigeonhole limit"]
    first, second, total = output
    problems = []
    for subset in (first, second):
        if subset != sorted(set(subset)) or any(not 0 <= i < n for i in subset):
            problems.append(f"candidate {index}: bad index set {subset}")
    if problems:
        return problems
    if first == second:
        problems.append(f"candidate {index}: the two subsets are the same, {first}")
    sum_first = [sum(vectors[i][j] for i in first) for j in range(k)]
    sum_second = [sum(vectors[i][j] for i in second) for j in range(k)]
    if not sum_first == sum_second == list(total):
        problems.append(
            f"candidate {index}: sums {sum_first} and {sum_second} against total {total}"
        )
    return problems


# ---------------------------------------------------------------------- search

@functools.lru_cache(maxsize=None)
def pinned_minima() -> dict[tuple[int, int], int]:
    """Minimal M for every search cell: Lunnon for k = 1, minima.json for k >= 2."""
    path = workloads.__file__.rsplit("/", 1)[0] + "/minima.json"
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    minima = {(row["n"], row["k"]): row["m_min"] for row in table["minima"]}
    minima.update({(n, 1): m for n, m in LUNNON.items()})
    return minima


def check_sweep(seed: int, output) -> list[str]:
    cells = workloads.search_order(seed)
    if len(output) != len(cells):
        return [f"sweep: {len(output)} outputs for {len(cells)} cells"]
    problems = []
    for (n, k), (code, text) in zip(cells, output):
        payload = json.loads(text)
        m = payload.get("m_min")
        witness = payload.get("witness") or {}
        vectors = [tuple(v) for v in witness.get("vectors", [])]
        where = f"search n={n} k={k}"
        if code != 0 or not payload.get("exhaustive") or (payload.get("n"), payload.get("k")) != (n, k):
            problems.append(f"{where}: code {code}, payload {payload}")
            continue
        if m != pinned_minima()[(n, k)]:
            problems.append(f"{where}: m_min {m}, expected {pinned_minima()[(n, k)]}")
        if (witness.get("n"), witness.get("k"), witness.get("bound")) != (n, k, m) or len(vectors) != n:
            problems.append(f"{where}: witness shape {witness}")
            continue
        if any(len(v) != k or not all(0 <= c <= m for c in v) for v in vectors):
            problems.append(f"{where}: witness {vectors} leaves [0, {m}]^{k}")
        elif not distinct_rows(subset_sums(vectors)):
            problems.append(f"{where}: witness {vectors} has equal subset sums")
        if (n * m + 1) ** k < 1 << n:
            problems.append(f"{where}: m_min {m} is below the pigeonhole limit")
    return problems


# ---------------------------------------------------------------------- shell

def radius(n: int, k: int, p: int):
    """R with V_{k,p}(R) = 2^n, as a 30-digit mpmath value (exact 2^(n-1) at k = 1)."""
    if k == 1:
        return mpmath.mpf(2) ** (n - 1)
    g = mpmath.gamma
    return mpmath.mpf(2) ** (mpmath.mpf(n) / k) * g(1 + mpmath.mpf(k) / p) ** (mpmath.mpf(1) / k) / (
        2 * g(1 + mpmath.mpf(1) / p)
    )


def _ball_count(t: int, k: int, p: int) -> int:
    """Points of Z^k with sum |x_i|^p <= t^p, counted one coordinate at a time."""
    if k == 1:
        return 2 * t + 1
    powers = np.arange(t + 1, dtype=np.int64) ** p
    side = np.abs(np.arange(-t, t + 1, dtype=np.int64)) ** p
    rest = side
    for _ in range(k - 2):
        rest = (rest[:, None] + side[None, :]).ravel()
    room = t ** p - rest
    last = np.searchsorted(powers, room, side="right")
    return int(np.where(room >= 0, 2 * last - 1, 0).sum())


def _box_sides(n: int, k: int, p: int):
    """The half-sides t of the boxes [-t, t]^k the documented rule examines.

    Boxes start at t = ceil(R) + 1 and grow by t // 2 (at least 1) until
    the ball of radius t holds 2^n points.
    """
    t = max(1, math.ceil(radius(n, k, p)) + 1)
    while True:
        yield t
        if _ball_count(t, k, p) >= 1 << n:
            return
        t += max(1, t // 2)


@functools.lru_cache(maxsize=None)
def enumeration_spend(n: int, k: int, p: int, budget: int | None = None):
    """(box points examined, raised) of lattice_shell_enumerate(n, k, p, budget).

    The budget counts box points cumulatively and is checked before each
    box is built.
    """
    budget = ENUM_BUDGET if budget is None else budget
    spent = 0
    for t in _box_sides(n, k, p):
        box = (2 * t + 1) ** k
        if spent + box > budget:
            return spent, True
        spent += box
    return spent, False


def lattice_points(n: int, k: int, p: int, budget: int | None) -> int:
    return enumeration_spend(n, k, p, budget)[0]


@functools.lru_cache(maxsize=None)
def shell_reference(n: int, k: int, p: int):
    """(exact sum of the 2^n smallest p-power norms, the largest of them)."""
    count = 1 << n
    if k == 1:
        # 0, +-1, ..., +-(m-1) and one of +-m, with m = 2^(n-1).
        m = count // 2
        faulhaber = {1: (m - 1) * m // 2, 2: (m - 1) * m * (2 * m - 1) // 6, 3: ((m - 1) * m // 2) ** 2}
        return 2 * faulhaber[p] + m ** p, m ** p
    *_, t = _box_sides(n, k, p)
    side = np.abs(np.arange(-t, t + 1, dtype=np.int64)) ** p
    norms = side
    for _ in range(k - 1):
        norms = (norms[:, None] + side[None, :]).ravel()
    values, tally = np.unique(norms[norms <= t ** p], return_counts=True)
    below = np.cumsum(tally)
    last = int(np.searchsorted(below, count))  # first norm value reaching the count
    vstar = int(values[last])
    taken = int(below[last - 1]) if last else 0
    total = sum(int(v) * int(c) for v, c in zip(values[:last], tally[:last]))
    return total + (count - taken) * vstar, vstar


def check_lattice(key, output) -> list[str]:
    _, k, p, n = key
    (code, text), = output
    payload = json.loads(text)
    where = f"lattice-check n={n} k={k} p={p}"
    if code != 0 or (payload.get("n"), payload.get("k"), payload.get("p")) != (n, k, p):
        return [f"{where}: code {code}, payload {payload}"]
    total, vstar = shell_reference(n, k, p)
    r = radius(n, k, p)
    problems = []
    if payload["count"] != 1 << n:
        problems.append(f"{where}: count {payload['count']} != 2^{n}")
    if payload["discrete_sum"] != total or payload["boundary_norm_power"] != vstar:
        problems.append(
            f"{where}: sum {payload['discrete_sum']}, boundary {payload['boundary_norm_power']};"
            f" independent tally gives {total}, {vstar}"
        )
    if not _close(payload["r_continuous"], float(r)):
        problems.append(f"{where}: r_continuous {payload['r_continuous']} != {r}")
    ratio = payload.get("continuum_ratio")
    want = float(total / (mpmath.mpf(k) / (k + p) * (1 << n) * r ** p))
    if ratio is None or abs(ratio - 1) > 0.05 or not _close(ratio, want, 1e-9):
        problems.append(f"{where}: continuum_ratio {ratio}, expected {want} within 0.05 of 1")
    return problems


def check_max_n(key, output) -> list[str]:
    _, k, p = key
    n = output
    where = f"max_enumerable_n({k}, {p}) = {n}"
    if not isinstance(n, int) or n < 0:
        return [f"{where}: not a count"]
    problems = []
    if enumeration_spend(n, k, p)[1]:
        problems.append(f"{where}: n does not fit the budget")
    if not enumeration_spend(n + 1, k, p)[1]:
        problems.append(f"{where}: n + 1 fits the budget too")
    return problems


def coefficients(k: int) -> dict[str, mpmath.mpf]:
    mp, g = mpmath.mpf, mpmath.gamma
    return {
        "first_moment": mpmath.sqrt(mpmath.pi / 2) * g(k + 1) ** (mp(1) / k) / (k + 1),
        "third_moment": (mpmath.pi / 8) ** (mp(1) / 6) * g(mp(k + 3) / 3) ** (mp(1) / k)
        / ((k + 3) ** (mp(1) / 3) * g(mp(4) / 3)),
        "variance": mpmath.sqrt(4 / (mpmath.pi * (k + 2))) * g(mp(k) / 2 + 1) ** (mp(1) / k),
    }


def published_regime(k: int) -> str:
    return "first_moment" if k <= 4 else "third_moment" if k <= 6 else "variance"


def _finite_bounds(n: int, k: int) -> dict:
    t3 = sum(math.comb(n, i) * abs(n - 2 * i) ** 3 for i in range(n + 1))
    first = radius(n, k, 1) * mpmath.mpf(2) ** n / ((k + 1) * n * math.comb(n - 1, (n - 1) // 2))
    third = radius(n, k, 3) * (mpmath.mpf(2) ** (n + 3) / ((k + 3) * t3)) ** (mpmath.mpf(1) / 3)
    return {"first_moment": first, "third_moment": third, "variance": None}


def check_table(seed: int, output) -> list[str]:
    grid = dict(workloads.shell_round(seed))["table"]
    if len(output) != 1 + len(grid) or any(code != 0 for code, _ in output):
        return [f"table: codes {[code for code, _ in output]}"]
    crossover, *bounds = (json.loads(text) for _, text in output)
    problems = []
    lo, hi = workloads.SHELL_CROSSOVER_K
    rows = crossover.get("rows", [])
    if [row["k"] for row in rows] != list(range(lo, hi + 1)):
        problems.append("crossover: rows do not cover k = 1..200")
    disagreements = []
    for row in rows:
        k = row["k"]
        want = coefficients(k)
        for method, column in (("first_moment", "c_first"), ("third_moment", "c_third"),
                               ("variance", "c_variance")):
            if not _close(row[column], want[method]):
                problems.append(f"crossover k={k}: {column} {row[column]} != {want[method]}")
        # Ties go to the lower moment order: first, variance, third.
        best = max(("first_moment", "variance", "third_moment"), key=lambda m: want[m])
        if row["argmax"] != best:
            problems.append(f"crossover k={k}: argmax {row['argmax']}, expected {best}")
        if best != published_regime(k):
            disagreements.append({"k": k, "computed": best, "published": published_regime(k)})
    if crossover.get("disagreements") != disagreements:
        problems.append(f"crossover: disagreements {crossover.get('disagreements')}")
    for (n, k), payload in zip(grid, bounds):
        where = f"bounds n={n} k={k}"
        coeff, finite = coefficients(k), _finite_bounds(n, k)
        methods = [row["method"] for row in payload.get("rows", [])]
        if (payload.get("n"), payload.get("k")) != (n, k) or methods != list(finite):
            problems.append(f"{where}: payload {payload}")
            continue
        for row in payload["rows"]:
            method = row["method"]
            asymptotic = coeff[method] * mpmath.mpf(2) ** (mpmath.mpf(n) / k) / mpmath.sqrt(n)
            ok = _close(row["coefficient"], coeff[method]) and _close(row["asymptotic_bound"], asymptotic)
            if finite[method] is None:
                ok = ok and row["finite_bound"] is None
            else:
                ok = ok and _close(row["finite_bound"], finite[method])
            if not ok:
                problems.append(f"{where}: {method} row {row}")
    return problems


# ---------------------------------------------------------------- all records

def check_record(workload: str, seed: int, key, output) -> list[str]:
    if workload == "certify":
        return check_certify(seed, key, output)
    if workload == "screen":
        return check_screen(seed, key, output)
    kind = key[0]
    if kind == "lattice":
        return check_lattice(key, output)
    if kind == "max_n":
        return check_max_n(key, output)
    if kind == "sweep":
        return check_sweep(seed, output)
    return check_table(seed, output)


def check_records(workload: str, seed: int, records) -> list[str]:
    """Problems over every job that did not fail; equal outputs are judged once."""
    verdicts: dict[str, list[str]] = {}
    problems = []
    for record in records:
        if not record["ok"]:
            continue
        memo = json.dumps([record["key"], record["output"]])
        if memo not in verdicts:
            verdicts[memo] = check_record(workload, seed, record["key"], record["output"])
        problems += verdicts[memo]
    return problems
