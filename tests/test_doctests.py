"""Every example in a scriptweave docstring runs and holds."""

import doctest
import importlib
import pkgutil

import scriptweave


def test_docstring_examples_pass():
    attempted = {}
    for info in pkgutil.iter_modules(scriptweave.__path__, "scriptweave."):
        result = doctest.testmod(importlib.import_module(info.name))
        assert result.failed == 0, info.name
        attempted[info.name] = result.attempted
    # levenshtein("kitten", "sitting") and near_duplicate_pairs(["mix it", "stir", "mix it"])
    assert attempted["scriptweave.corpus"] >= 2
    # preprocess_asr dropping an item by a multi-word stop phrase
    assert attempted["scriptweave.grounding"] >= 1
    # _parsed keeping a numeric task id a string
    assert attempted["scriptweave.cli"] >= 1
