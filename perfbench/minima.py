"""Regenerate perfbench/minima.json, the k >= 2 minima the search checks pin.

    python3 perfbench/minima.py

Each minimum comes from the certifying path min_m_search(n, k,
prune=False): every increasing candidate sequence at every level below
the answer is verified whole, with no pruning and no symmetry break, so
the table does not lean on the pruned search it is used to check. The
k = 1 minima come from the literature (see checks.LUNNON) instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from dsslab import sequences  # noqa: E402


def main() -> int:
    rows = []
    for n, k in sorted(workloads.SEARCH_CELLS, key=lambda cell: (cell[1], cell[0])):
        if k == 1:
            continue
        outcome = sequences.min_m_search(n, k, prune=False)
        if not outcome.exhaustive:
            raise SystemExit(f"min_m_search({n}, {k}, prune=False) did not finish")
        rows.append({"n": n, "k": k, "m_min": outcome.m_min})
    table = {"source": "min_m_search(n, k, prune=False)", "minima": rows}
    path = HERE / "minima.json"
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} minima to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
