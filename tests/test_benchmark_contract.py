"""The names the benchmark in `perfbench/` wraps still exist.

`perfbench/spans.py` wraps neckflow callables by dotted name and reads some
of their arguments by parameter name.  A renamed target would only print
`absent` in a traced run, and a renamed parameter would break every timed
run, so both are checked here.  spans.py is read from its path and executed
in memory; nothing under `perfbench/` is written.
"""

import inspect
import pathlib
import types

import pytest

from neckflow import harness

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_target_resolves(spans):
    names = [name for name, _ in spans.TARGETS] + list(spans.COUNTING_TARGETS)
    missing = [name for name in names if spans._resolve(name) is None]
    assert not missing


@pytest.mark.parametrize("func, params", [
    (harness.solve, {"cfg"}),
    (harness.case_mesh, {"eps"}),
    (harness.run_case, {"p", "eps"}),
])
def test_wrapped_arguments_keep_their_names(func, params):
    assert params <= set(inspect.signature(func).parameters)


def test_argument_readers_are_the_checked_functions(spans):
    assert set(spans._READS_ARGS) == {"neckflow.harness.solve",
                                      "neckflow.harness.case_mesh",
                                      "neckflow.harness.run_case"}
