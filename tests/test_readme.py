"""README examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_python_block(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_its_comment():
    code = _section_python_block("## Library")
    expected = re.search(r"# (.+)$", code.splitlines()[-1]).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected == "4.96 Average"
    assert out.getvalue() == expected + "\n"
