"""Every fenced ``python`` block of README.md runs as written, so a
change to the public API cannot leave the README's examples stale."""

import pathlib
import re
import types

import pytest

import gleason_lab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme"})


def test_every_exported_name_is_in_the_readme():
    # The README's Contract section is the user contract of the package.
    text = README.read_text()
    names = [n for n in dir(gleason_lab)
             if not n.startswith("_") and not isinstance(getattr(gleason_lab, n), types.ModuleType)]
    missing = [n for n in names if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert names and not missing
