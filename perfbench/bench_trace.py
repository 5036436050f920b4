"""Traced runs: timing wrappers installed at the module attributes each
caller binds, spans kept in memory, per-layer metrics derived at the end.

Nothing inside ``src/`` is instrumented.  A wrapper replaces, for the
duration of one traced pass, the attribute a caller looks up at call
time — ``repro.core.compiler.partition_pattern`` for the compiler's
partition stage, a class attribute for a method — and restores the
original afterwards.  Counts come from the wrapped call's arguments and
return value (partitions, ``MappingResult``, ``ShuffleResult``,
``NoisySampleResult``).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

CountFn = Callable[[tuple, dict, Any], Dict[str, float]]


@dataclass
class Span:
    name: str
    parent: int
    pass_index: int
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on one thread, recorded only while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._pass_index = -1

    # -- span recording ------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, parent, self._pass_index, time.perf_counter())
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span opened by the benchmark itself (pass / operation)."""
        if not self._patches:  # not installed: record nothing
            yield Span(name, -1, self._pass_index, 0.0)
            return
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    # -- wrappers --------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        counts: Optional[CountFn] = None,
        reentrant: bool = True,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``reentrant=False`` passes nested calls of the same span name
        straight through, so a library calling itself is counted once.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            if not reentrant and stack and tracer.spans[stack[-1]].name == name:
                return original(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if counts is not None:
                tracer.spans[index].counts.update(counts(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, pass_index: int) -> Iterator["Tracer"]:
        """Install the layer wrappers for one traced pass."""
        self._pass_index = pass_index
        install_layer_wrappers(self)
        try:
            with self.span("pass"):
                yield self
        finally:
            self.remove()

    # -- analysis --------------------------------------------------------
    def self_seconds(self) -> List[float]:
        """Each span's duration minus the time its children cover."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.seconds
        return own

    def to_json(self) -> Dict[str, Any]:
        own = self.self_seconds()
        return {
            "spans": [
                {
                    "name": span.name,
                    "parent": span.parent,
                    "pass": span.pass_index,
                    "start": span.start,
                    "seconds": span.seconds,
                    "self_seconds": own[i],
                    "counts": span.counts,
                }
                for i, span in enumerate(self.spans)
            ]
        }


def _pairs_arg(args: tuple, kwargs: dict) -> int:
    pairs = kwargs["pairs"] if "pairs" in kwargs else args[0]
    return len(pairs)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every layer the workloads cross, at the binding its caller
    looks up: module attributes for functions, class attributes for
    methods (the class object is shared by every importer)."""
    import networkx

    import repro.core.compiler as compiler
    import repro.core.validate as validate
    import repro.hardware.degradation as degradation
    import repro.mbqc.translate as translate
    from repro.core.mapping import InLayerMapper
    from repro.sim.frame import PauliFrameSimulator
    from repro.sim.noisy import NoisySampler

    def pattern_nodes(args: tuple, kwargs: dict, pattern: Any) -> Dict[str, float]:
        return {"pattern_nodes": pattern.graph.number_of_nodes()}

    # the compiler binds circuit_to_pattern at import; the benchmark and
    # the sim layer look it up on repro.mbqc.translate at call time
    tracer.wrap(compiler, "circuit_to_pattern", "translate", pattern_nodes)
    tracer.wrap(translate, "circuit_to_pattern", "translate", pattern_nodes)
    tracer.wrap(compiler, "schedule_layers", "schedule")
    tracer.wrap(
        compiler, "partition_pattern", "partition",
        lambda a, k, parts: {"partitions": len(parts)},
    )
    # repro.core.planarity calls nx.check_planarity through the module
    tracer.wrap(networkx, "check_planarity", "planarity", reentrant=False)
    tracer.wrap(
        compiler, "build_fusion_graph", "fusion_graph",
        lambda a, k, fusion: {"resource_states": fusion.num_resource_states},
    )
    tracer.wrap(
        InLayerMapper, "map_fusion_graph", "map",
        lambda a, k, result: {
            "layers": len(result.layers),
            "routing_fusions": result.routing_fusions,
            "deferred_edges": len(result.deferred_edges),
        },
    )
    tracer.wrap(
        compiler, "connect_pairs", "shuffle",
        lambda a, k, result: {
            "pairs": _pairs_arg(a, k),
            "layers": result.num_layers,
            "fusions": result.fusions,
        },
    )
    tracer.wrap(validate, "validate_program", "validate")
    tracer.wrap(
        validate, "verify_pattern", "verify",
        lambda a, k, report: {f"method.{report.method}": 1},
    )
    tracer.wrap(validate, "estimate_yield", "estimate_yield")
    tracer.wrap(NoisySampler, "__init__", "sampler_init")
    tracer.wrap(
        NoisySampler, "run", "sample",
        lambda a, k, result: {
            "shots": result.shots, "executed": result.executed,
        },
    )
    tracer.wrap(PauliFrameSimulator, "__init__", "frame_build")
    tracer.wrap(degradation, "program_site_profile", "site_profile")


#: per-layer metrics derived from spans, with units (serve.* and
#: store.* come from response fields, trace.* from the pass log)
SPAN_METRICS: Dict[str, str] = {
    "translate.s": "s",
    "translate.pattern_nodes": "count",
    "schedule.s": "s",
    "partition.s": "s",
    "partition.partitions": "count",
    "partition.planarity_calls": "count",
    "partition.planarity_s": "s",
    "fusion_graph.s": "s",
    "fusion_graph.planarity_calls": "count",
    "fusion_graph.resource_states": "count",
    "map.s": "s",
    "map.layers": "count",
    "map.routing_fusions": "count",
    "map.deferred_edges": "count",
    "shuffle.s": "s",
    "shuffle.pairs": "count",
    "shuffle.layers": "count",
    "shuffle.fusions": "count",
    "validate.s": "s",
    "verify.s": "s",
    "verify.by_method.stabilizer": "count",
    "verify.by_method.statevector": "count",
    "verify.by_method.static": "count",
    "verify.by_method.skipped": "count",
    "sampler_init.s": "s",
    "frame_build.s": "s",
    "sample.s": "s",
    "sample.shots_per_s": "1/s",
    "sample.executed_frac": "frac",
    "site_profile.s": "s",
}

_TIMED = (
    "translate", "schedule", "partition", "fusion_graph", "map", "shuffle",
    "validate", "verify", "sampler_init", "frame_build", "sample",
    "site_profile",
)
_SUMMED = {
    "translate.pattern_nodes": ("translate", "pattern_nodes"),
    "partition.partitions": ("partition", "partitions"),
    "fusion_graph.resource_states": ("fusion_graph", "resource_states"),
    "map.layers": ("map", "layers"),
    "map.routing_fusions": ("map", "routing_fusions"),
    "map.deferred_edges": ("map", "deferred_edges"),
    "shuffle.pairs": ("shuffle", "pairs"),
    "shuffle.layers": ("shuffle", "layers"),
    "shuffle.fusions": ("shuffle", "fusions"),
}


def span_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Per-layer metrics per traced pass: self seconds of each layer's
    spans, counts summed from return values, planarity probes split by
    the layer (partition or fusion graph) that made them.  A layer the
    workload never crosses in-process reads 0."""
    passes = max(1, passes)
    own = tracer.self_seconds()
    totals: Dict[str, float] = {name: 0.0 for name in SPAN_METRICS}
    shots = 0.0
    executed = 0.0
    for i, span in enumerate(tracer.spans):
        if span.name in _TIMED:
            totals[f"{span.name}.s"] += own[i]
        if span.name == "planarity":
            owner = _owning_layer(tracer, span.parent)
            if owner in ("partition", "fusion_graph"):
                totals[f"{owner}.planarity_calls"] += 1
                if owner == "partition":
                    totals["partition.planarity_s"] += span.seconds
        if span.name == "verify":
            for key, value in span.counts.items():
                method = key.split(".", 1)[1]
                totals[f"verify.by_method.{method}"] += value
        if span.name == "sample":
            shots += span.counts.get("shots", 0)
            executed += span.counts.get("executed", 0)
    for metric, (name, key) in _SUMMED.items():
        totals[metric] = sum(
            span.counts.get(key, 0) for span in tracer.spans
            if span.name == name
        )
    metrics = {name: value / passes for name, value in totals.items()}
    metrics["sample.shots_per_s"] = (
        shots / totals["sample.s"] if totals["sample.s"] > 0 else 0.0
    )
    metrics["sample.executed_frac"] = executed / shots if shots else 0.0
    return metrics


def _owning_layer(tracer: Tracer, index: int) -> Optional[str]:
    while index >= 0:
        name = tracer.spans[index].name
        if name in _TIMED:
            return name
        index = tracer.spans[index].parent
    return None
