"""The serial oracles stay test-side: no production code path reaches them.

:mod:`repro.testing.reference` holds the per-frame frontend loop and the
per-client hill climber that the batched production stages must equal bit
for bit.  Its contract is that nothing in production selects it -- no
config field, no flag, no import.  The equality tests themselves live next
to the stages they check (``tests/core``, ``tests/api``).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
ORACLE = "repro.testing.reference"


def _imported_modules(path):
    """Every absolute module name ``path`` imports, at any nesting level."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_production_module_imports_the_oracles():
    importers = [
        str(path.relative_to(PACKAGE_ROOT))
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if path.parent.name != "testing" and ORACLE in _imported_modules(path)]
    assert importers == []


def test_a_served_fix_never_loads_the_oracles():
    script = (
        "import sys\n"
        "from repro.api import ArrayTrackConfig, ArrayTrackService\n"
        "from repro.testbed import (ScenarioConfig, SimulatedDeployment,\n"
        "                           build_office_testbed)\n"
        "testbed = build_office_testbed()\n"
        "deployment = SimulatedDeployment(testbed, ScenarioConfig(seed=3))\n"
        "service = ArrayTrackService(ArrayTrackConfig(\n"
        "    bounds=testbed.bounds).updated(\n"
        "    {'server.localizer.grid_resolution_m': 0.5}))\n"
        "service.adopt_aps(deployment.aps.values())\n"
        "deployment.capture_client('client-01')\n"
        "assert service.localize_buffered(['client-01'])\n"
        f"print({ORACLE!r} in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_ROOT.parent), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    assert result.stdout.strip() == "False"
