"""README's library examples run as written, so they cannot drift from
the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}  # shared: later blocks build on names the earlier ones bind
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
