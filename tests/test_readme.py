"""The README's library examples run and print what they say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_print_their_comments():
    """The ```python blocks run in order in one namespace, as a reader
    pasting them into one session would."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) == 3
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == [
        "(x) * (x, y)",
        "(x^2, x*y) --(x, y)--> (x)",
        "(x) --(x)--> (1)",
        "True",
        "True",
        "{(x, y, z), (x, z)}",
        "(x, y, z) * (x, z)",
    ]


def test_readme_scripts_parse():
    """Both script blocks parse: the chain.gpf example and the "Script
    language" summary, the one text that uses every statement form."""
    from gpfkit import dsl

    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, re.S | re.M)
    scripts = [b for lang, b in blocks if not lang and re.search(r"^ring ", b, re.M)]
    assert [len(dsl.parse(s).statements) for s in scripts] == [7, 14]
