"""The package's records: NamedTuple value records and plain mutable classes.

They replace dataclasses, so these tests pin what callers relied on:
equality, round trips, immutability of the value records, constructor
errors, and no mutable default shared between instances.
"""

import ast
from pathlib import Path

import pytest

import scriptweave
from scriptweave.cli import SETTINGS, PipelineConfig
from scriptweave.corpus import (
    CorpusStats,
    RawSequenceRecord,
    SequenceItem,
    Step,
    StepLibrary,
    TaskSpec,
    library_from_json,
    library_to_json,
)
from scriptweave.errors import BadConfig, EmptySequence
from scriptweave.evalharness import EvalExample, EvalSplit
from scriptweave.graphgen import GraphEdge, GraphScript, Relation
from scriptweave.grounding import GroundedSequence, grounded_from_json, grounded_to_json
from scriptweave.pathmodel import PathModel, model_from_json, model_to_json
from scriptweave.pathmodel import train_path_model


def make_library():
    texts = ["peel fruit", "slice fruit", "add sugar", "serve"]
    return StepLibrary(
        "demo", [Step(i, t.upper(), t) for i, t in enumerate(texts)], [("doc", 0.5)], [[0, 1, 3]]
    )


def make_sequences():
    return [
        GroundedSequence(f"v{i}", "demo", path, [0.5] * len(path), dropped=i)
        for i, path in enumerate([[0, 1, 2, 3], [0, 1, 3], [1, 0, 2, 3]])
    ]


# Each class built with its fields as empty as it allows.
DEFAULT_BUILT = [
    lambda: StepLibrary("t", [], [], []),
    lambda: RawSequenceRecord("v", "t", "labelled", [], None),
    lambda: GroundedSequence("v", "t", [0], [1.0], 0),
    lambda: PathModel(make_library(), 2, 0.1, {}),
    lambda: EvalExample((0,), set(), set()),
    lambda: EvalSplit([], []),
    lambda: GraphScript("t", [], [], 0, [], {}),
    lambda: PipelineConfig(),
]


class TestValueRecords:
    VALUES = [
        TaskSpec("t1", "make lemonade"),
        Step(0, "Peel", "peel"),
        SequenceItem("stir", 1.0, 2.0),
        CorpusStats(0.5, 1.0, 0.5, 10),
        GraphEdge(0, 1, 0.5, 2),
        Relation("sequential", (0, 1)),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_assignment_raises_attribute_error(self, value):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_unpack_compare_and_hash_like_tuples(self, value):
        fields = [getattr(value, name) for name in value._fields]
        assert list(value) == fields
        assert value == tuple(fields)
        assert type(value)(*fields) == value
        assert hash(type(value)(*fields)) == hash(value)

    def test_missing_arguments_raise_type_error(self):
        with pytest.raises(TypeError):
            SequenceItem("x")
        with pytest.raises(TypeError):
            TaskSpec("t")
        with pytest.raises(TypeError):
            Step(0, "a")
        with pytest.raises(TypeError):
            GraphEdge(0, 1, 0.5)


class TestMutableRecords:
    def test_equality_is_by_class_and_fields(self):
        assert make_library() == make_library()
        assert make_library() != StepLibrary("demo", make_library().steps, [], [])
        assert EvalSplit([], []) == EvalSplit(train=[], test_examples=[])
        assert EvalSplit([], []) != EvalSplit([], [EvalExample((0,), set(), set())])
        assert EvalSplit([], []) != GraphScript("t", [], [], 0, [], {})
        assert EvalExample((0,), set(), set()) != (0,)

    @pytest.mark.parametrize("build", DEFAULT_BUILT, ids=lambda b: type(b()).__name__)
    def test_unhashable_like_a_dataclass(self, build):
        with pytest.raises(TypeError):
            hash(build())

    def test_repr_names_the_fields(self):
        assert repr(EvalSplit([], [])) == "EvalSplit(train=[], test_examples=[])"
        assert repr(EvalExample((0,), set(), set())) == (
            "EvalExample(prefix=(0,), gold_next=set(), gold_completions=set())"
        )

    def test_library_round_trip(self):
        library = make_library()
        assert library_from_json(library_to_json(library)) == library

    def test_grounded_round_trip(self):
        for seq in make_sequences():
            assert grounded_from_json(grounded_to_json(seq)) == seq

    def test_model_round_trip_ignores_the_row_cache(self):
        library = make_library()
        cfg = PipelineConfig(order=2, smoothing_lambda=0.1)
        model = train_path_model(make_sequences(), library, cfg)
        clone = model_from_json(model_to_json(model), library)
        model.rows([0])
        assert clone == model
        assert clone._rows != model._rows

    @pytest.mark.parametrize("build", DEFAULT_BUILT, ids=lambda b: type(b()).__name__)
    def test_instances_share_no_mutable_default(self, build):
        first, second = build(), build()
        for name, value in vars(first).items():
            if isinstance(value, (list, dict, set)):
                assert value is not getattr(second, name), name

    def test_model_sums_its_own_totals(self):
        model = PathModel(make_library(), 2, 0.1, {(-1, -1): {0: 2, 1: 3}, (0,): {}})
        assert model.totals == {(-1, -1): 5, (0,): 0}


class TestConstructorErrors:
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: GroundedSequence("v", "t", [], [], 0), EmptySequence),
            (lambda: GroundedSequence("v", "t", [0, 0], [1.0, 1.0], 0), ValueError),
            (lambda: GroundedSequence("v", "t", [0], [1.0, 1.0], 0), ValueError),
            (lambda: PipelineConfig(k1=2.0), BadConfig),
            (lambda: PipelineConfig(train_fraction=1.0), BadConfig),
            (lambda: PipelineConfig(bogus=1), TypeError),
            (lambda: PipelineConfig("a", tasks_path="b"), TypeError),
            (lambda: PipelineConfig(*[None] * 30), TypeError),
            (lambda: StepLibrary("t"), TypeError),
            (lambda: StepLibrary("t", []), TypeError),
            (lambda: GraphScript("t", [], []), TypeError),
            (lambda: GraphScript("t", [], [], 0), TypeError),
            (lambda: GroundedSequence("v", "t", [0], [1.0]), TypeError),
            (lambda: RawSequenceRecord("v", "t", "asr", [SequenceItem("x", None, None)]), TypeError),
            (lambda: EvalExample((0,)), TypeError),
            (lambda: PathModel(make_library(), 2, 0.1, {}, {}), TypeError),
        ],
    )
    def test_raises(self, build, error):
        with pytest.raises(error):
            build()

    def test_record_constructors_have_no_defaults(self):
        """No class in the package gives an __init__ parameter or a NamedTuple field
        a default. PipelineConfig(**settings) gives none: its defaults live in SETTINGS."""
        stray = []
        for path in sorted(Path(scriptweave.__file__).parent.glob("*.py")):
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(cls, ast.ClassDef):
                    continue
                named_tuple = any(getattr(base, "id", None) == "NamedTuple" for base in cls.bases)
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                        if node.args.defaults or any(node.args.kw_defaults):
                            stray.append(f"{path.name}:{node.lineno}: {cls.name}.__init__")
                    elif named_tuple and isinstance(node, ast.AnnAssign) and node.value:
                        stray.append(f"{path.name}:{node.lineno}: {cls.name}.{node.target.id}")
        assert stray == []


class TestPipelineConfig:
    def test_every_setting_has_a_default_of_its_type(self):
        assert len(SETTINGS) == 28
        for name, (kind, default, rule) in SETTINGS.items():
            assert default is None or isinstance(default, kind), name
            assert default is None or rule is None or rule[0](default), name

    def test_settings_are_stated_only_in_the_table(self):
        """No module but cli binds a setting's name upper-cased, or gives a parameter
        named after a setting a default (bar None for a setting whose default is None)."""
        constants = {name.upper() for name in SETTINGS}
        stray = []
        for path in sorted(Path(scriptweave.__file__).parent.glob("*.py")):
            if path.name == "cli.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    if isinstance(target, ast.Name) and target.id in constants:
                        stray.append(f"{path.name}:{target.lineno}: {target.id}")
            for node in ast.walk(tree):
                if not isinstance(node, ast.arguments):
                    continue
                positional = node.posonlyargs + node.args
                defaulted = [*zip(positional[len(positional) - len(node.defaults):], node.defaults),
                             *zip(node.kwonlyargs, node.kw_defaults)]
                for arg, default in defaulted:
                    if default is None or arg.arg not in SETTINGS:
                        continue
                    unset_none = SETTINGS[arg.arg][1] is None and (
                        isinstance(default, ast.Constant) and default.value is None)
                    if not unset_none:
                        stray.append(f"{path.name}:{arg.lineno}: {arg.arg}")
        assert stray == []

    def test_settings_are_attributes_with_their_defaults(self):
        cfg = PipelineConfig(seed=5, k1=0.5, order=3, beam_width=9)
        assert (cfg.seed, cfg.k1, cfg.order, cfg.beam_width) == (5, 0.5, 3, 9)
        assert cfg.stop_words == SETTINGS["stop_words"][1]
        assert PipelineConfig()._values() == tuple(default for _, default, _ in SETTINGS.values())

    def test_equality_compares_the_settings(self):
        assert PipelineConfig() == PipelineConfig()
        assert PipelineConfig(seed=1) != PipelineConfig(seed=2)

    @pytest.mark.parametrize("key, value", [
        ("order", 2.0), ("beam_width", True), ("max_steps", float("inf")), ("k1", "0.5"),
        ("k1", None), ("stop_words", "subscribe"), ("seed", "7"),
    ])
    def test_ill_typed_value_is_bad_config_naming_its_key(self, key, value):
        """A library caller meets the checks a CLI run does."""
        with pytest.raises(BadConfig, match=f"^setting '{key}' must be "):
            PipelineConfig(**{key: value})

    def test_values_are_stored_as_their_setting_types(self):
        cfg = PipelineConfig(k1=0, stop_words=["outro", "like and subscribe"])
        assert type(cfg.k1) is float and cfg.k1 == 0.0
        assert cfg.stop_words == ("outro", "like and subscribe")
