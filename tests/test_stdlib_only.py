"""The package is pure Python on the standard library alone: it declares no
dependencies, and importing it loads no module from outside the standard
library."""

import json
import re
import sys
from pathlib import Path

from conftest import run_fresh_python

ROOT = Path(__file__).resolve().parent.parent

# Modules the interpreter had loaded before the import (site hooks included)
# are not counted: only what importing the package adds.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import apsemigroups, apsemigroups.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]


def test_import_adds_only_standard_library_modules():
    added = json.loads(run_fresh_python(IMPORT_PROBE))
    assert "apsemigroups" in added
    outside = [
        name
        for name in added
        if name != "apsemigroups" and name not in sys.stdlib_module_names
    ]
    assert outside == []
