"""Critical path of an executed stage DAG.

The critical path is the longest dependency chain through the stage
graph, weighted by each task's *measured* span (execute + merge — the
latency a dependent actually waits for).  Its length bounds how fast any
schedule could finish the stage no matter how many lanes it had:
``total busy time / critical-path time`` is the concurrency the DAG
offers — what a future rank-level parallel design would have to exploit
(DESIGN.md, "One way to run a step").
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.observability.perfscope.lifecycle import StageTrace, TaskSpan


def span_weight(span: TaskSpan) -> float:
    """The latency a dependent waits on this task: lifecycle-inclusive."""
    return span.execute_s + span.merge_s


def critical_path(trace: StageTrace) -> Tuple[float, List[TaskSpan]]:
    """(seconds, spans on the path) of one stage's longest weighted chain.

    Dynamic programming over the DAG in sid order — edges only point
    backwards (the graph builder appends tasks after their
    dependencies), so a single forward sweep suffices.
    """
    spans = trace.spans
    if not spans:
        return 0.0, []
    base = spans[0].sid
    best: Dict[int, float] = {}      # sid -> chain length ending here
    prev: Dict[int, int] = {}        # sid -> predecessor on that chain
    for s in spans:
        w = span_weight(s)
        longest, arg = 0.0, None
        for d in s.deps:
            got = best.get(d, 0.0)
            if got > longest:
                longest, arg = got, d
        best[s.sid] = longest + w
        if arg is not None:
            prev[s.sid] = arg
    end = max(best, key=best.get)
    path: List[TaskSpan] = []
    sid = end
    while True:
        path.append(spans[sid - base])
        if sid not in prev:
            break
        sid = prev[sid]
    path.reverse()
    return best[end], path


def critical_path_tasks(traces: Sequence[StageTrace]) -> Dict[str, float]:
    """Aggregate critical-path membership across stages: name -> seconds.

    The per-name seconds are the weighted span contributions of every
    appearance on some stage's critical path — the tasks to shrink
    first when attacking the makespan.
    """
    out: Dict[str, float] = {}
    for trace in traces:
        _, path = critical_path(trace)
        for s in path:
            out[s.name] = out.get(s.name, 0.0) + span_weight(s)
    return out
