"""Memory guard for the array-backed pattern IR.

``circuit_to_pattern`` keeps a translated pattern as int32 CSR plus
flat angle and wire arrays, so what it retains grows by tens of bytes
per node, not by a Python dict or frozenset per node.  Measured with
tracemalloc on QFT-36 (3,834 nodes, CPython 3.11): ~90 B/node retained
and a ~1.5 MB traced peak, against ~1,090 B/node and ~5.0 MB when the
pattern was an ``nx.Graph`` plus per-node dicts of frozensets.  The
bounds leave ~2x headroom for other interpreter versions.
"""

import gc
import tracemalloc

from repro.circuit.benchmarks import qft
from repro.mbqc.translate import circuit_to_pattern

#: bytes per pattern node the translated pattern may keep alive
MAX_RETAINED_PER_NODE = 200
#: bytes the translate call may hold at once (its traced peak)
MAX_TRACED_PEAK = 2_500_000


def _traced_translate(circuit):
    """``(pattern, retained bytes, traced peak bytes)`` of one call."""
    circuit_to_pattern(qft(3))  # first-call caches stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        pattern = circuit_to_pattern(circuit)
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return pattern, current - base, peak - base


def test_qft36_pattern_memory_stays_array_sized():
    circuit = qft(36)
    pattern, retained, peak = _traced_translate(circuit)
    per_node = retained / pattern.num_nodes
    assert pattern.num_nodes == 3834
    assert per_node <= MAX_RETAINED_PER_NODE, f"{per_node:.0f} B/node retained"
    assert peak <= MAX_TRACED_PEAK, f"traced peak {peak} B"
