"""The JSON examples in README.md parse with the decoders they document, so
the documented schema cannot drift from the code: every decoder refuses keys
it does not know."""

import dataclasses
import json
import re
from pathlib import Path

from sparseobs import harness
from sparseobs.harness import ExperimentConfig
from sparseobs.model import problem_from_dict, system_from_dict
from sparseobs.recover import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _json_example(after):
    """The first ```json block that follows the line containing after."""
    text = README.read_text()
    start = text.index(after)
    match = re.compile(r"```json\n(.*?)```", re.S).search(text, start)
    return json.loads(match.group(1))


def test_readme_system_example_parses():
    system = system_from_dict(_json_example("where `system.json` looks like"))
    assert system.kind == "linear" and system.dim == 2


def test_readme_problem_example_parses():
    problem = problem_from_dict(_json_example("with a problem document of the form"))
    assert problem.system.kind == "zero" and problem.sparsity == 1


def test_readme_experiment_config_example_parses():
    doc = _json_example("Config schema, as an example that sets every field")
    config = ExperimentConfig.from_dict(doc)
    assert config.system.kind == "linear" and (config.n, config.m) == (64, 2)
    # as its text says, the example sets every field, the solver's included
    assert set(doc) == set(harness._CONFIG_REQUIRED + harness._CONFIG_OPTIONAL)
    assert set(doc["matrix"]) == {"n", *harness._MATRIX_OPTIONAL}
    assert set(doc["solver"]) == {f.name for f in dataclasses.fields(SolverConfig)}
