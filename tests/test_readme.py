"""The JSON examples in README.md parse with the decoders they document, so
the documented schema cannot drift from the code: every decoder refuses keys
it does not know."""

import json
import re
from pathlib import Path

from sparseobs.model import problem_from_dict, system_from_dict

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
