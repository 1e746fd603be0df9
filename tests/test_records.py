"""The package's records: NamedTuple value records and plain mutable classes.

They replace dataclasses, so these tests pin what callers relied on:
equality, round trips, immutability of the value records, constructor
errors, and no mutable default shared between instances.
"""

import pytest

from scriptweave.cli import SETTING_DEFAULTS, SETTING_TYPES, PipelineConfig
from scriptweave.contrastive import ContrastiveBatch, LossConfig, NegativeGenConfig
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
from scriptweave.decoder import DecodeConfig
from scriptweave.errors import BadConfig, EmptySequence
from scriptweave.evalharness import EvalExample, EvalSplit
from scriptweave.graphgen import GraphEdge, GraphScript, Relation
from scriptweave.grounding import (
    GroundedSequence,
    GroundingConfig,
    grounded_from_json,
    grounded_to_json,
)
from scriptweave.pathmodel import PathModel, PathModelConfig, model_from_json, model_to_json
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


# Each class with the fewest arguments its constructor takes.
DEFAULT_BUILT = [
    lambda: StepLibrary("t", []),
    lambda: RawSequenceRecord("v", "t", "labelled", []),
    lambda: GroundingConfig(),
    lambda: GroundedSequence("v", "t", [0], [1.0]),
    lambda: PathModelConfig(),
    lambda: PathModel(make_library(), PathModelConfig(), {}, {}),
    lambda: DecodeConfig(),
    lambda: NegativeGenConfig(),
    lambda: LossConfig(),
    lambda: ContrastiveBatch((1.0,), (1.0,)),
    lambda: EvalExample((0,)),
    lambda: EvalSplit([], []),
    lambda: GraphScript("t", [], [], 0),
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

    def test_defaults(self):
        assert TaskSpec("t", "n").category is None
        assert SequenceItem("x") == ("x", None, None)

    @pytest.mark.parametrize("task_id, task_name", [("", "n"), ("t", ""), (None, "n")])
    def test_task_spec_rejects_empty_names(self, task_id, task_name):
        with pytest.raises(ValueError, match="non-empty"):
            TaskSpec(task_id, task_name)
        with pytest.raises(ValueError, match="non-empty"):
            TaskSpec(task_id=task_id, task_name=task_name, category="c")

    def test_task_spec_replace_validates(self):
        task = TaskSpec("t", "n")
        assert task._replace(category="c") == ("t", "n", "c")
        assert TaskSpec._make(["t", "n", None]) == task
        with pytest.raises(ValueError, match="non-empty"):
            task._replace(task_name="")

    def test_missing_arguments_raise_type_error(self):
        with pytest.raises(TypeError):
            TaskSpec("t")
        with pytest.raises(TypeError):
            Step(0, "a")
        with pytest.raises(TypeError):
            GraphEdge(0, 1, 0.5)


class TestMutableRecords:
    def test_equality_is_by_class_and_fields(self):
        assert make_library() == make_library()
        assert make_library() != StepLibrary("demo", make_library().steps)
        assert DecodeConfig(7) == DecodeConfig(beam_width=7)
        assert DecodeConfig(7) != DecodeConfig(8)
        assert PathModelConfig() != DecodeConfig()
        assert EvalExample((0,)) != (0,)

    @pytest.mark.parametrize("build", DEFAULT_BUILT, ids=lambda b: type(b()).__name__)
    def test_unhashable_like_a_dataclass(self, build):
        with pytest.raises(TypeError):
            hash(build())

    def test_repr_names_the_fields(self):
        assert repr(DecodeConfig()) == "DecodeConfig(beam_width=40, max_steps=None)"
        assert repr(LossConfig(0.5)) == "LossConfig(temperature=0.5, alpha=1.0)"

    def test_library_round_trip(self):
        library = make_library()
        assert library_from_json(library_to_json(library)) == library

    def test_grounded_round_trip(self):
        for seq in make_sequences():
            assert grounded_from_json(grounded_to_json(seq)) == seq

    def test_model_round_trip_ignores_the_row_cache(self):
        library = make_library()
        model = train_path_model(make_sequences(), library, PathModelConfig(2, 0.1))
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

    def test_mutable_defaults_are_empty(self):
        library = StepLibrary("t", [])
        assert library.source_docs == [] and library.doc_sequences == []
        assert ContrastiveBatch((1.0,), (1.0,)).z_negatives == []
        example = EvalExample((0,))
        assert example.gold_next == set() and example.gold_completions == set()
        graph = GraphScript("t", [], [], 0)
        assert graph.relations == [] and graph.labels == {}
        assert RawSequenceRecord("v", "t", "asr", []).title is None
        assert GroundedSequence("v", "t", [0], [1.0]).dropped == 0


class TestConstructorErrors:
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: GroundingConfig(k1=1.5), ValueError),
            (lambda: GroundingConfig(top_m_docs=0), ValueError),
            (lambda: GroundingConfig(asr_min_words=0), ValueError),
            (lambda: GroundedSequence("v", "t", [], []), EmptySequence),
            (lambda: GroundedSequence("v", "t", [0, 0], [1.0, 1.0]), ValueError),
            (lambda: GroundedSequence("v", "t", [0], [1.0, 1.0]), ValueError),
            (lambda: PathModelConfig(order=0), ValueError),
            (lambda: PathModelConfig(smoothing_lambda=-0.1), ValueError),
            (lambda: DecodeConfig(beam_width=0), ValueError),
            (lambda: DecodeConfig(max_steps=-1), ValueError),
            (lambda: NegativeGenConfig(num_negatives=-1), ValueError),
            (lambda: NegativeGenConfig(max_shuffle_attempts=0), ValueError),
            (lambda: LossConfig(temperature=0.0), ValueError),
            (lambda: LossConfig(alpha=-1.0), ValueError),
            (lambda: PipelineConfig(k1=2.0), BadConfig),
            (lambda: PipelineConfig(train_fraction=1.0), BadConfig),
            (lambda: PipelineConfig(bogus=1), TypeError),
            (lambda: PipelineConfig("a", tasks_path="b"), TypeError),
            (lambda: PipelineConfig(*[None] * 30), TypeError),
            (lambda: StepLibrary("t"), TypeError),
            (lambda: GraphScript("t", [], []), TypeError),
        ],
    )
    def test_raises(self, build, error):
        with pytest.raises(error):
            build()

    def test_grounding_config_keeps_stop_words_as_a_tuple(self):
        assert GroundingConfig(stop_words=["outro"]).stop_words == ("outro",)


class TestPipelineConfig:
    def test_sub_config_defaults_are_read_from_the_sub_configs(self):
        cfg = PipelineConfig()
        for sub in (GroundingConfig(), PathModelConfig(), DecodeConfig(), NegativeGenConfig(),
                    LossConfig()):
            for name in sub._fields:
                if name in SETTING_TYPES:
                    assert getattr(cfg, name) == getattr(sub, name), name
        assert cfg.grounding == GroundingConfig()
        assert cfg.negatives == NegativeGenConfig()

    def test_every_setting_has_a_default_and_a_type(self):
        assert list(SETTING_DEFAULTS) == list(SETTING_TYPES)
        for name, default in SETTING_DEFAULTS.items():
            assert default is None or isinstance(default, SETTING_TYPES[name]), name

    def test_sub_configs_follow_the_settings(self):
        cfg = PipelineConfig(seed=5, k1=0.5, order=3, beam_width=9, num_negatives=1, alpha=0.5)
        assert cfg.grounding.k1 == 0.5
        assert cfg.pathmodel == PathModelConfig(order=3)
        assert cfg.decode == DecodeConfig(beam_width=9)
        assert cfg.negatives == NegativeGenConfig(num_negatives=1)
        assert cfg.loss == LossConfig(alpha=0.5)

    def test_equality_compares_the_settings(self):
        assert PipelineConfig() == PipelineConfig()
        assert PipelineConfig(seed=1) != PipelineConfig(seed=2)
