"""Count the code lines of each module of the riskboot package.

    python tests/code_lines.py         # the working tree
    python tests/code_lines.py HEAD~1  # a git revision, read with git show

A code line holds at least one token that is neither a comment nor part
of a docstring, a string that stands alone as a statement; blank lines,
comment lines and docstring lines do not count. The lines are found with
tokenize, so a string inside an expression that spans lines counts on
every line it covers. Prints one line per module, in file name order,
then the total. Needs the standard library alone (and git for a
revision).
"""

import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/riskboot"

# tokens that never make a line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines, statement, starts = set(), [], True  # the current logical line's tokens
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NEWLINE or token.type == tokenize.ENDMARKER:
            if not all(t.type == tokenize.STRING for t in statement):  # a docstring otherwise
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT:
            statement.append(token)
    return len(lines)


def sources(revision=None) -> dict:
    """Each module's name and source, from the working tree or from the
    git revision given."""
    if revision is None:
        return {path.stem: path.read_text(encoding="utf-8")
                for path in sorted((ROOT / PACKAGE).glob("*.py"))}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                              text=True, encoding="utf-8").stdout

    names = git("ls-tree", "--name-only", f"{revision}:{PACKAGE}").split()
    return {Path(name).stem: git("show", f"{revision}:{PACKAGE}/{name}")
            for name in sorted(names) if name.endswith(".py")}


def main(argv) -> int:
    if len(argv) > 1:
        print("usage: python tests/code_lines.py [REVISION]", file=sys.stderr)
        return 2
    counts = {name: code_lines(text) for name, text in sources(*argv).items()}
    for name, count in counts.items():
        print(f"{name:<12} {count:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
