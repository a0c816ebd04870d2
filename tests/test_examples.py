"""The runnable scripts in ``examples/`` keep working against the public API.

They are the documented entry points for new users (``examples/quickstart.py``
is where the README sends them), so each one is run to completion here.
"""

import re
import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize("name", sorted(path.stem
                                        for path in EXAMPLES.glob("*.py")))
def test_example_runs_to_completion(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_quickstart_reports_a_sub_two_metre_fix_from_six_aps(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    match = re.search(r"error\s*: (\d+) cm using (\d+) APs",
                      capsys.readouterr().out)
    assert match is not None
    assert int(match.group(1)) < 200
    assert int(match.group(2)) == 6
