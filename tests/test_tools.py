"""The code-line count of ``tools/code_lines.py``, which every simplicity
figure in CHANGES.md rests on, and the reachability ledger of
``tools/reachability.py``.  The tools are run from the checkout, not from
the installed package, which does not ship them."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
TOOL = TOOLS / "code_lines.py"

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


# every function of src/ilw_lab that no command reaches, with the reason it
# stays; tools/reachability.py prints exactly these names
_BENCH = "bound by name by perfbench/, which times it"
_PAPER = "a quantity of the paper that no runner reads yet"
_FIELD = "field API: the embedding that build_lax's error points to, and " \
    "the field algebra"
UNREACHED = {
    "experiments._non_finite_key": "error path: a report value that is not "
                                   "finite",
    "experiments._worker_count": _BENCH,
    "lax.KappaCheck.ok": _BENCH + " (the result of check_kappa)",
    "lax.LaxSpectrum.__init__": _BENCH,
    "lax.ResolventState.gradient": _PAPER + " (form_flow_derivative)",
    "lax.WeightedFormRule.combine": _PAPER + " (form_flow_derivative)",
    "lax.WeightedFormRule.taus": _PAPER + " (form_flow_derivative)",
    "lax.apriori_bound": _PAPER,
    "lax.check_kappa": _BENCH,
    "lax.form_flow_derivative": _PAPER,
    "lax.gronwall_experiment": _BENCH,
    "lax.resolvent_form": _BENCH,
    "lax.weighted_resolvent_form": _BENCH,
    "spectral.RealField.__add__": _FIELD,
    "spectral.RealField.__mul__": _FIELD,
    "spectral.RealField.embedded": _FIELD,
    "symbols.apply_smoothing_dx": _PAPER + " (form_flow_derivative)",
    "symbols.apply_smoothing_dx.<locals>.sym": _PAPER
                                               + " (form_flow_derivative)",
}


def test_reachability_ledger_names_every_unreached_function():
    # a helper that loses its last caller is printed and not in the ledger;
    # a ledger row that gains a caller is in the ledger and not printed
    out = subprocess.run([sys.executable, str(TOOLS / "reachability.py")],
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    printed = out.splitlines()
    assert printed == sorted(printed)
    assert set(printed) == set(UNREACHED)
