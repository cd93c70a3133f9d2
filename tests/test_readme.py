"""The README's Python examples run as written.

The ```python blocks of README.md run in order in one namespace, as a
reader would paste them into one session. A line whose comment starts with
"True" must evaluate to True. So a renamed or removed function, or an
example whose stated value drifts, fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run_in_one_namespace():
    blocks = python_blocks()
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            if comment.strip().startswith("True"):
                assert eval(code, namespace) is True, line
