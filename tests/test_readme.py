"""The README's library quick tour runs as written, so a name it uses
cannot be deleted without this test failing, and its config table lists
exactly the keys of ``cli.KEYS``."""

import os
import re

from sparseattn import cli

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_library_quick_tour_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", _readme(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["probs"].shape == (32, 32)
    capsys.readouterr()


def test_config_table_lists_every_key_once():
    names = re.findall(r"^\| `(\w+)` \|", _readme(), flags=re.MULTILINE)
    assert sorted(names) == sorted(cli.KEYS)
    assert len(names) == len(set(names))
