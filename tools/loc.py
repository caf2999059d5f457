"""Print the code lines of each module of ``src/romgrid`` and their total.

    python tools/loc.py
    python tools/loc.py path/to/package

A code line is a physical line that holds part of a statement. Blank lines,
comment-only lines and the lines of a docstring (any statement that is a
bare string literal) count zero; a multi-line string inside a statement
counts every line it spans. The count comes from ``tokenize``, so it does
not depend on formatting tools. The output is one ``<lines>  <module>`` line
per module, sorted by path, then ``<lines>  total``.
"""

import argparse
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source):
    """The number of code lines in Python source text; see the module docstring."""
    lines = set()
    statement = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        elif token.type == tokenize.NEWLINE and statement:
            if any(part.type != tokenize.STRING for part in statement):
                for part in statement:
                    lines.update(range(part.start[0], part.end[0] + 1))
            statement = []
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "package", nargs="?", type=pathlib.Path, default=ROOT / "src" / "romgrid",
        help="directory of the modules to count (default: src/romgrid)",
    )
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.package.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(args.package)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
