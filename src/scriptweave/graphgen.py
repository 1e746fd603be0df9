"""Graph script induction from decoded paths.

Decoded paths are folded into a directed step graph: edge weight is the
fraction of paths containing that consecutive transition, low-weight
edges are pruned, and nodes cut off from the START-to-END flow are
removed. Surviving structure is labeled with step relations and can be
exported as DOT or JSON.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .corpus import StepLibrary
from .errors import EmptyInput
# read_json stays bound here: perfbench/spans.py traces it under this name.
from .jsonio import read_json, write_json  # noqa: F401
from .pathmodel import END, START
from .record import Record


class GraphEdge(NamedTuple):
    src: int
    dst: int
    weight: float
    count: int


class Relation(NamedTuple):
    """kind is sequential, interchangeable, or optional.

    steps holds (earlier, later) for sequential, the unordered pair
    (low id first) for interchangeable, and (before, optional, after)
    for optional.
    """

    kind: str
    steps: tuple[int, ...]


class GraphScript(Record):
    _fields = ("task_id", "nodes", "edges", "num_paths", "relations", "labels")

    def __init__(
        self, task_id: str, nodes: list[int], edges: list[GraphEdge], num_paths: int,
        relations: list[Relation], labels: dict[int, str],
    ):
        self.task_id, self.num_paths = task_id, num_paths
        self.nodes = nodes  # non-virtual step ids; START/END are implicit
        self.edges = edges
        self.relations, self.labels = relations, labels


def induce_graph(
    paths: Sequence[Sequence[int]], prune_threshold: float, library: StepLibrary
) -> GraphScript:
    """Accumulate paths into a pruned step graph.

    Each path is anchored as START -> s1 -> ... -> sn -> END. An edge's
    weight is its path count divided by the number of paths; edges with
    weight <= prune_threshold are removed, and afterwards any step not on
    a START-to-END route through surviving edges is dropped along with
    its edges. Each kept step is labelled with its library text.
    """
    paths = [list(path) for path in paths]
    if not paths:
        raise EmptyInput("graph induction needs at least one path")
    num_paths = len(paths)

    counts: Counter[tuple[int, int]] = Counter()
    for path in paths:
        tokens = [START] + path + [END]
        for a, b in zip(tokens, tokens[1:]):
            counts[(a, b)] += 1

    surviving = {
        edge: count for edge, count in counts.items() if count / num_paths > prune_threshold
    }
    forward = _reachable(surviving, START, reverse=False)
    backward = _reachable(surviving, END, reverse=True)
    kept_nodes = {
        node
        for edge in surviving
        for node in edge
        if node not in (START, END) and node in forward and node in backward
    }
    virtual_ok = kept_nodes | {START, END}
    edges = [
        GraphEdge(src, dst, count / num_paths, count)
        for (src, dst), count in sorted(surviving.items())
        if src in virtual_ok and dst in virtual_ok
    ]
    labels = {node: library.steps[node].normalized_text for node in sorted(kept_nodes)}
    return GraphScript(library.task_id, sorted(kept_nodes), edges, num_paths, [], labels)


def _reachable(edges, origin: int, reverse: bool) -> set[int]:
    adjacency: dict[int, list[int]] = {}
    for src, dst in edges:
        if reverse:
            src, dst = dst, src
        adjacency.setdefault(src, []).append(dst)
    seen = {origin}
    frontier = [origin]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def classify_relations(graph: GraphScript) -> GraphScript:
    """Label step relations from the surviving edge structure.

    A pair is interchangeable when both directions survive. A step j is
    optional between i and k when edges (i,j), (j,k), (i,k) all survive
    and none of the three belongs to an interchangeable pair; the skip
    edge (i,k) then expresses the optionality. Remaining step-to-step
    edges are sequential.
    """
    step_edges = {
        (e.src, e.dst) for e in graph.edges if e.src not in (START, END) and e.dst not in (START, END)
    }
    pair_edges = {(a, b) for a, b in step_edges if (b, a) in step_edges and a != b}
    interchangeable = {(a, b) for a, b in pair_edges if a < b}

    one_way = step_edges - pair_edges
    optional = [
        (i, j, k) for i, j in one_way for j2, k in one_way
        if j2 == j and k != i and (i, k) in one_way
    ]
    skip_edges = {(i, k) for i, _, k in optional}

    sequential = sorted(step_edges - pair_edges - skip_edges)
    relations = (
        [Relation("sequential", pair) for pair in sequential]
        + [Relation("interchangeable", pair) for pair in sorted(interchangeable)]
        + [Relation("optional", triple) for triple in sorted(optional)]
    )
    return GraphScript(
        graph.task_id, list(graph.nodes), list(graph.edges), graph.num_paths, relations, dict(graph.labels)
    )


def _node_key(node: int) -> int | str:
    """START and END by name, a step by its id."""
    return {START: "START", END: "END"}.get(node, node)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(graph: GraphScript) -> str:
    """Render as Graphviz DOT.

    Interchangeable pairs collapse to one double-headed edge, optional
    skip edges are dashed, everything else is a plain arrow.
    """
    pair_edges = {
        tuple(rel.steps) for rel in graph.relations if rel.kind == "interchangeable"
    }
    both = {(a, b) for a, b in pair_edges} | {(b, a) for a, b in pair_edges}
    skips = {(rel.steps[0], rel.steps[2]) for rel in graph.relations if rel.kind == "optional"}

    def name(node: int) -> str:
        return _quote(graph.labels.get(node, _node_key(node)))

    lines = ["digraph script {", "  rankdir=LR;"]
    lines.append('  "START" [shape=circle];')
    lines.append('  "END" [shape=doublecircle];')
    for node in graph.nodes:
        lines.append(f"  {name(node)} [shape=box];")
    emitted_pairs: set[tuple[int, int]] = set()
    for edge in graph.edges:
        src, dst = name(edge.src), name(edge.dst)
        attrs = [f'label="{edge.weight:.3f}"']
        key = (edge.src, edge.dst)
        if key in both:
            pair = tuple(sorted(key))
            if pair in emitted_pairs:
                continue
            emitted_pairs.add(pair)
            attrs.append("dir=both")
        elif key in skips:
            attrs.append("style=dashed")
        lines.append(f"  {src} -> {dst} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: GraphScript) -> dict:
    return {
        "task_id": graph.task_id,
        "num_paths": graph.num_paths,
        "nodes": [
            {"id": node, "label": graph.labels[node]} for node in graph.nodes
        ],
        "edges": [
            {
                "src": _node_key(e.src),
                "dst": _node_key(e.dst),
                "weight": e.weight,
                "count": e.count,
            }
            for e in graph.edges
        ],
        "relations": [{"kind": r.kind, "steps": list(r.steps)} for r in graph.relations],
    }


def save_graph(graph: GraphScript, path) -> None:
    write_json(graph_to_json(graph), path)
