"""Graph induction, relation labeling, and export."""

import pytest

from scriptweave.corpus import Step, StepLibrary
from scriptweave.errors import EmptyInput, UnknownStep
from scriptweave.graphgen import (
    GraphEdge,
    GraphScript,
    Relation,
    classify_relations,
    export_graph,
    graph_to_json,
    induce_graph,
)
from scriptweave.pathmodel import END, START


def make_library(texts):
    return StepLibrary("t1", [Step(i, t, t) for i, t in enumerate(texts)], [], [])


def induce(paths):
    """induce_graph at prune_threshold 0.175, each step i labelled "step i"."""
    size = max((step for path in paths for step in path), default=-1) + 1
    return induce_graph(paths, 0.175, make_library([f"step {i}" for i in range(size)]))


def edge_map(graph):
    return {(e.src, e.dst): e for e in graph.edges}


class TestInduceGraph:
    def test_weights_are_path_fractions(self):
        graph = induce([[0, 1], [0, 1], [0, 2], [0, 1, 2]])
        edges = edge_map(graph)
        assert edges[(START, 0)].weight == 1.0
        assert edges[(START, 0)].count == 4
        assert edges[(0, 1)].weight == 0.75
        assert edges[(0, 2)].weight == 0.25
        assert edges[(1, END)].weight == 0.5
        assert graph.num_paths == 4

    def test_weight_just_above_threshold_is_kept(self):
        paths = [[0, 1]] * 8 + [[0]] * 32  # edge (0, 1) at 8/40 = 0.2
        graph = induce(paths)
        assert (0, 1) in edge_map(graph)
        assert graph.nodes == [0, 1]

    def test_weight_exactly_at_threshold_is_pruned(self):
        paths = [[0, 1]] * 7 + [[0]] * 33  # edge (0, 1) at 7/40 = 0.175
        graph = induce(paths)
        assert (0, 1) not in edge_map(graph)
        assert graph.nodes == [0]

    def test_unreachable_steps_are_dropped_with_their_edges(self):
        # edge (2, 3) survives pruning at 0.25 but every route into step 2
        # is pruned away, so 2 and 3 must fall out of the graph entirely
        paths = [[0, 1]] * 18 + [[0, 2, 3]] * 3 + [[2, 3]] * 3
        graph = induce(paths)
        assert graph.nodes == [0, 1]
        assert set(edge_map(graph)) == {(START, 0), (0, 1), (1, END)}

    def test_step_not_reaching_end_is_dropped(self):
        # (0, 2) at 8/40 survives but both of step 2's outgoing edges sit
        # at 4/40 and are pruned, leaving step 2 with no route to END
        graph = induce([[0, 1]] * 32 + [[0, 2, 1]] * 4 + [[0, 2, 3]] * 4)
        assert graph.nodes == [0, 1]
        assert (0, 2) not in edge_map(graph)

    def test_empty_path_contributes_start_to_end_edge(self):
        graph = induce([[]])
        assert graph.nodes == []
        assert set(edge_map(graph)) == {(START, END)}
        assert edge_map(graph)[(START, END)].weight == 1.0

    def test_edges_sorted_by_endpoint_ids(self):
        graph = induce([[0, 1, 2], [0, 2, 1]])
        keys = [(e.src, e.dst) for e in graph.edges]
        assert keys == sorted(keys)

    def test_labels_come_from_library(self):
        library = make_library(["boil water", "serve"])
        graph = induce_graph([[0, 1]], 0.175, library)
        assert graph.labels == {0: "boil water", 1: "serve"}
        assert graph.task_id == "t1"

    def test_no_paths_rejected(self):
        with pytest.raises(EmptyInput):
            induce([])

    @pytest.mark.parametrize(
        "path, bad", [([999], 999), ([-5], -5), ([START, 0], START), ([0, END], END)],
        ids=["999", "minus-5", "start", "end"],
    )
    def test_step_outside_library_rejected(self, path, bad):
        # -5 would index the library from its end; START and END would join the virtual nodes
        library = make_library(["boil water", "serve"])
        with pytest.raises(UnknownStep, match=f"step id {bad} "):
            induce_graph([[0, 1], path], 0.175, library)


class TestClassifyRelations:
    def test_interchangeable_pair_from_both_directions(self):
        graph = classify_relations(induce([[0, 1, 2, 3], [0, 2, 1, 3]]))
        kinds = {r.kind: [] for r in graph.relations}
        for r in graph.relations:
            kinds[r.kind].append(r.steps)
        assert kinds["interchangeable"] == [(1, 2)]
        assert sorted(kinds["sequential"]) == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert "optional" not in kinds

    def test_optional_step_from_skip_edge(self):
        graph = classify_relations(induce([[0, 1, 2], [0, 2]]))
        by_kind = {}
        for r in graph.relations:
            by_kind.setdefault(r.kind, []).append(r.steps)
        assert by_kind["optional"] == [(0, 1, 2)]
        assert sorted(by_kind["sequential"]) == [(0, 1), (1, 2)]

    def test_interchangeable_pairs_are_never_optional(self):
        # 0 and 1 swap order freely; the 0 -> 2 edge must not be read as
        # "1 is optional" because (0, 1) is an interchangeable pair
        graph = classify_relations(induce([[0, 1, 2], [1, 0, 2], [0, 2]]))
        kinds = [r.kind for r in graph.relations]
        assert "optional" not in kinds
        assert Relation("interchangeable", (0, 1)) in graph.relations

    def test_relations_are_grouped_and_sorted(self):
        graph = classify_relations(induce([[0, 1, 2, 3], [0, 2, 1, 3], [0, 1, 2, 3]]))
        kinds = [r.kind for r in graph.relations]
        assert kinds == sorted(kinds, key=["sequential", "interchangeable", "optional"].index)
        for kind in set(kinds):
            steps = [r.steps for r in graph.relations if r.kind == kind]
            assert steps == sorted(steps)

    def test_virtual_edges_are_ignored(self):
        graph = classify_relations(induce([[0]]))
        assert graph.relations == []


class TestDotExport:
    def test_exact_rendering_with_optional_skip(self):
        library = make_library(["boil water", "add salt", "serve"])
        graph = classify_relations(
            induce_graph([[0, 1, 2], [0, 2]], 0.175, library)
        )
        assert export_graph(graph) == (
            "digraph script {\n"
            "  rankdir=LR;\n"
            '  "START" [shape=circle];\n'
            '  "END" [shape=doublecircle];\n'
            '  "boil water" [shape=box];\n'
            '  "add salt" [shape=box];\n'
            '  "serve" [shape=box];\n'
            '  "START" -> "boil water" [label="1.000"];\n'
            '  "boil water" -> "add salt" [label="0.500"];\n'
            '  "boil water" -> "serve" [label="0.500", style=dashed];\n'
            '  "add salt" -> "serve" [label="0.500"];\n'
            '  "serve" -> "END" [label="1.000"];\n'
            "}\n"
        )

    def test_interchangeable_pair_renders_once_with_both_heads(self):
        graph = classify_relations(induce([[0, 1, 2, 3], [0, 2, 1, 3]]))
        dot = export_graph(graph)
        assert dot.count("dir=both") == 1
        assert '"step 1" -> "step 2" [label="0.500", dir=both];' in dot
        assert '"step 2" -> "step 1"' not in dot

    def test_quotes_and_backslashes_escaped(self):
        library = make_library(['say "hi"'])
        graph = induce_graph([[0]], 0.175, library)
        dot = export_graph(graph)
        assert '"say \\"hi\\"" [shape=box];' in dot


class TestJsonExport:
    def make_graph(self):
        library = make_library(["a", "b", "c"])
        return classify_relations(
            induce_graph([[0, 1, 2], [0, 2]], 0.175, library)
        )

    def test_virtual_nodes_serialized_by_name(self):
        data = graph_to_json(self.make_graph())
        srcs = {e["src"] for e in data["edges"]}
        dsts = {e["dst"] for e in data["edges"]}
        assert "START" in srcs
        assert "END" in dsts
        assert all(isinstance(n["id"], int) for n in data["nodes"])
