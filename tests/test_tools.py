"""The code-line count of ``tools/code_lines.py``, which every simplicity
figure in CHANGES.md rests on.  The tool is loaded from the checkout, not
from the installed package, which does not ship it."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# ten code lines, each marked "code"; every other line is blank, a comment
# or a docstring
SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # code: a trailing comment keeps its line


def one_line():  # code
    """One-line docstring."""
    return os.sep  # code


class Thing:  # code
    """Class docstring
    on two lines.
    """

    def method(self):  # code
        """Method docstring."""
        x = 1  # code
        "a string statement after the first is code"
        return x  # code

    async def later(self):  # code
        """Async docstring."""
        """The second string of a body: code."""
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    tool = _load_tool()
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert sum("code" in line for line in SOURCE.splitlines()) == 10
    assert tool.code_lines(path) == 10
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a '
                                       'comment\n', encoding="utf-8")
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["0", str(tmp_path / "empty.py")], ["10", str(path)], ["10", "total"]]
