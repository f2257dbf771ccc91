"""The README's library example runs and prints what its comments promise:
an entanglement in (0, 1), ``True`` for the Gram check, and ``True True``
for the search's convergence and its certificate."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.M | re.S).group(1)


def test_the_library_example_prints_what_it_promises(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    entanglement, gram, search = capsys.readouterr().out.splitlines()
    assert 0.0 < float(entanglement) < 1.0
    assert gram == "True"
    assert search == "True True"
