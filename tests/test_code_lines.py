"""``tools/code_lines.py`` counts code lines: a multi-line string that is not
a docstring counts on every line it spans, while docstrings of modules,
classes and functions, comments and blank lines do not count."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment

TEXT = """a string that is code,
over two lines"""


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring
        over two lines."""
        return 1  # a trailing comment


async def fetch():
    """Async function docstring."""

    return TEXT
'''

# TEXT (2 lines), class, def area, return 1, async def fetch, return TEXT
CODE_LINES = 7


def test_counts_code_and_leaves_out_docstrings_comments_and_blanks():
    assert code_lines.code_lines(SOURCE) == CODE_LINES


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    1  a.py",
        f"{CODE_LINES:5d}  pkg/b.py",
        f"{CODE_LINES + 1:5d}  total",
    ]


def test_main_refuses_a_tree_without_modules(tmp_path, capsys):
    assert code_lines.main([str(tmp_path)]) == 2
    assert "no Python modules" in capsys.readouterr().err
