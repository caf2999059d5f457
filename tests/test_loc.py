"""The committed line counter: ``tools/loc.py`` counts code lines only.

Docstring-only, comment-only and blank lines count zero; a statement that
spans several lines, a multi-line string inside it included, counts each.
The package's count equals ``CEILING``, so the ceiling is a ratchet that
follows every change: a change that lowers the count lowers ``CEILING`` to
it; a change that raises it raises ``CEILING`` and says why in
``CHANGES.md``.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The code lines ``tools/loc.py`` counts in ``src/romgrid``.
CEILING = 2584

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment counts its line


def f(a,
      b):
    """One-line docstring."""

    text = """a string
    in a statement"""
    return (a, b,
            text)


class C:
    "plain string docstring"
    x = 1
'''
# code lines: import, def (2), text (2), return (2), class, x
FIXTURE_LINES = 9


def _loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks():
    tool = _loc()
    assert tool.code_lines(FIXTURE) == FIXTURE_LINES
    assert tool.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_package_count_prints_each_module_and_the_total(tmp_path, capsys):
    tool = _loc()
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(FIXTURE_LINES), "a.py"],
        ["1", "b.py"],
        [str(FIXTURE_LINES + 1), "total"],
    ]


def test_package_code_lines_stay_under_the_ceiling(capsys):
    assert _loc().main([str(ROOT / "src" / "romgrid")]) == 0
    total = int(capsys.readouterr().out.splitlines()[-1].split()[0])
    assert total <= CEILING, (
        f"src/romgrid has {total} code lines, above the ceiling of {CEILING}: "
        "remove code, or raise CEILING and say why in CHANGES.md"
    )
    assert total == CEILING, (
        f"src/romgrid has {total} code lines, below the ceiling of {CEILING}: "
        "lower CEILING to the count"
    )
