"""The benchmark's arithmetic, kept free of I/O so test_benchstats.py can pin it.

Spans are (lane, name, layer, start_s, end_s) tuples on one shared clock
(CLOCK_MONOTONIC seconds). A lane is one thread of one process; run.py
builds lanes as (pid, tid) from Chrome trace files and adds lanes of its
own for process lifetimes.
"""

import bisect
import math
from collections import namedtuple

Span = namedtuple("Span", "lane name layer start end")

# Wall attribution order: at each instant the wall clock goes to the first
# of these layers that has a span open anywhere (any lane, any process).
LAYER_PRIORITY = ("core", "graph", "io", "sweep", "scenario", "service")


def tail_percentile(samples, q=0.99, min_beyond=10):
    """The q-quantile when at least `min_beyond` samples lie above it.

    Returns (value, resolved): resolved is False when too few samples lie
    beyond the quantile, in which case value is the maximum instead.
    The quantile is the nearest-rank one (a sample value, never an
    interpolation).
    """
    if not samples:
        return 0.0, False
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for s in ordered if s > value)
    if beyond >= min_beyond:
        return value, True
    return ordered[-1], False


def failed_ratio(attempted, failed):
    return failed / attempted if attempted else 1.0


def _union_length(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def assign_parents(spans):
    """Returns each span's parent index (or None), as a list.

    A lane is (process, thread), and spans on one lane nest. The parent is
    the innermost span on the child's own lane that contains it. A span
    with no container on its own lane takes the innermost container on
    another lane of the same process, but only when exactly one lane
    offers the smallest one: an OpenMP team thread's trial belongs to the
    one cell attempt its process has open.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i].start, -spans[i].end))
    parents = [None] * len(spans)
    kids = {}        # index -> same-lane children, in start order
    roots = {}       # process -> lane -> same-lane roots, in start order
    stacks = {}
    for i in order:
        s = spans[i]
        stack = stacks.setdefault(s.lane, [])
        while stack and spans[stack[-1]].end < s.end:
            stack.pop()
        if stack:
            parents[i] = stack[-1]
            kids.setdefault(stack[-1], []).append(i)
        else:
            roots.setdefault(s.lane[0], {}).setdefault(s.lane, []).append(i)
        stack.append(i)

    starts = {}

    def innermost(ids, child):
        """Deepest span under `ids` (disjoint siblings) containing child."""
        found = None
        while ids:
            key = id(ids)
            if key not in starts:
                starts[key] = [spans[j].start for j in ids]
            k = bisect.bisect_right(starts[key], child.start) - 1
            if k < 0 or spans[ids[k]].end < child.end:
                break
            found = ids[k]
            ids = kids.get(found, [])
        return found

    for lanes in roots.values():
        for lane, ids in lanes.items():
            for i in ids:
                found = [j for other, other_ids in lanes.items() if other != lane
                         for j in [innermost(other_ids, spans[i])] if j is not None]
                if not found:
                    continue
                length = {j: spans[j].end - spans[j].start for j in found}
                smallest = min(length.values())
                best = [j for j in found if length[j] == smallest]
                if len(best) == 1:
                    parents[i] = best[0]
    return parents


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    parents = assign_parents(spans)
    children = {i: [] for i in range(len(spans))}
    for i, parent in enumerate(parents):
        if parent is not None:
            children[parent].append((spans[i].start, spans[i].end))
    return [s.end - s.start - _union_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def attribute_wall(spans, lo, hi):
    """Splits the window [lo, hi] among layers by LAYER_PRIORITY.

    Each instant goes to the highest-priority layer with a span open at it
    anywhere; instants no span covers are unattributed. The parts sum to
    hi - lo exactly. Returns (seconds_by_layer, unattributed_seconds).
    """
    edges = []
    for s in spans:
        a, b = max(s.start, lo), min(s.end, hi)
        if b > a:
            rank = LAYER_PRIORITY.index(s.layer)
            edges.append((a, 1, rank))
            edges.append((b, -1, rank))
    edges.sort()
    by_layer = {layer: 0.0 for layer in LAYER_PRIORITY}
    open_count = [0] * len(LAYER_PRIORITY)
    unattributed = 0.0
    prev = lo
    for t, delta, rank in edges + [(hi, 0, 0)]:
        if t > prev:
            active = next((r for r, c in enumerate(open_count) if c > 0), None)
            if active is None:
                unattributed += t - prev
            else:
                by_layer[LAYER_PRIORITY[active]] += t - prev
            prev = t
        open_count[rank] += delta
    return by_layer, unattributed
