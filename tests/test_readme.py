"""Every ```python block of README.md runs as written.

Each block runs in a fresh namespace, in a scratch directory that holds
the ``capture.iq`` its receive-side example reads, so an example that names
a function the package no longer has fails here.
"""

import re
from pathlib import Path

import pytest

from cirkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate-sounding", "--repetitions", "20", "--out", "capture.iq"]) == 0
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": f"readme_block_{index}"})
