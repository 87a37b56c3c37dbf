"""The benchmark tracer's reads of dsslab's results and arguments.

perfbench/tracing.py notes, per traced call, a few facts read off its
arguments or its result. A change to a public function that breaks one
of those reads fails here, not only in a traced benchmark run.
"""

from __future__ import annotations

import tracing
from conftest import conway_guy
from dsslab import VectorSequence, moments, pnorm, sequences


def test_every_tracer_note_reads_a_real_call():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passed = sequences.verify_distinct(conway_guy(5))
        collided = sequences.verify_distinct(VectorSequence(2, 1, 1, ((1,), (1,))))
        search = sequences.min_m_search(3, 1)
        dist = moments.signed_sum_distribution((1, 2, 2))
        estimate = moments.mc_estimate(conway_guy(4), 2, samples=100, seed=1)
        pnorm.lattice_shell_enumerate(3, 2, 2)
        pnorm.lattice_shell_enumerate(3, 2, 2, budget=1 << 20)
    finally:
        tracer.uninstall()
    assert passed is None and collided is not None
    # The calls above, in order; the spans of calls they made are nested.
    outer = [(name, note) for name, _, _, parent, note, _ in tracer.spans if parent < 0]
    assert outer == [
        ("sequences.verify_distinct", [5, True]),
        ("sequences.verify_distinct", [2, False]),
        ("sequences.min_m_search", search.nodes),
        ("moments.signed_sum_distribution", 6),
        ("moments.mc_estimate", 100),
        ("pnorm.lattice_shell_enumerate", [3, 2, 2, None]),
        ("pnorm.lattice_shell_enumerate", [3, 2, 2, 1 << 20]),
    ]
    assert dist.values.size == 6 and estimate.samples == 100
    assert {name for name, _ in outer} == tracing._ARG_NOTES.keys() | tracing._RESULT_NOTES.keys()
    assert not any(span[5] for span in tracer.spans)
    # Uninstalling puts every original function back.
    assert not hasattr(sequences.verify_distinct, "__wrapped__")
