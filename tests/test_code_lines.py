"""tools/code_lines.py counts code lines, dispatch lines and large definitions."""

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line

import os


def small(model):
    """One docstring line."""
    if model is ModelId.BASE:  # dispatch
        return 1
    return 2


def large(model,
          other):
    total = (1 +
             2)
    if model is not ModelId.DOUBLE:
        total += 1
    text = """a string that is
    not a docstring"""
    return total, text, other


class Record:
    """Docstring
    of a class.
    """

    value = 0
'''


def _load():
    spec = importlib.util.spec_from_file_location(
        "code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_and_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    # import 1, small 4, large 9 (continuations and the string included),
    # Record 2
    assert _load().code_lines(path) == 16


def test_reports_dispatch_lines_and_largest_definitions(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "fixture.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    assert _load().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["code", "dispatch", "module"]
    assert lines[1].split() == ["0", "0", "pkg/empty.py"]
    assert lines[2].split() == ["16", "2", "pkg/fixture.py"]
    assert lines[3].split() == ["16", "2", "total"]
    assert lines[4] == "largest top-level functions and classes:"
    assert [line.split() for line in lines[5:]] == [
        ["9", "large"], ["4", "small"], ["2", "Record"]]


PACKAGE = {
    "__init__.py": '''"""Five public names and a private one."""

from .core import Table, build, helper, unused
from .extra import _private, described

__version__ = "0"
''',
    "core.py": '''"""Builds tables; unused is named here in prose only."""

from . import extra


class Table:
    unused = None  # an assignment to the name is not a read


def helper():
    return Table()


def build():
    return helper(), extra.described


def unused():
    return "unused"
''',
    "extra.py": '''def described():
    return 1


def _private():
    return 2
''',
}


def test_reports_public_names_that_no_module_reads(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    for name, source in PACKAGE.items():
        (tmp_path / "pkg" / name).write_text(source)
    assert _load().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["public names in pkg: 5",
                          "  read by no module: build, unused"]


def test_the_package_leaves_only_the_pinned_public_names_unread(capsys):
    # a change that leaves another export unread updates this list and says
    # why; a change that gives one of these a caller removes it
    assert _load().main([str(TOOLS.parent / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == ("  read by no module: algebra_vector, "
                         "canonicalize_noncentral")
