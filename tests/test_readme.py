"""The README's library quick tour runs as written, so a name it uses
cannot be deleted without this test failing."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_quick_tour_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["probs"].shape == (32, 32)
    capsys.readouterr()
