"""Every `equibasis ...` line of the README's CLI block runs as documented:
exit 0, or the code its `# exit N` comment names."""

import re
import shlex
from pathlib import Path

import pytest

from equibasis.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("equibasis ")]


def test_the_block_is_found():
    assert len(cli_examples()) == 7


@pytest.mark.parametrize("line", cli_examples())
def test_readme_example(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    expected = re.search(r"#\s*exit (\d+)", line)
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == (int(expected.group(1)) if expected else 0)
