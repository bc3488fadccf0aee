#!/usr/bin/env python3
"""Replay the pinned CLI runs in tests/golden, or re-record their output.

Each tests/golden/*.out is a list of blocks: a `$ domcert <argv>` line (split
with shlex), the stdout, then `exit <code>`.  Every block runs in-process
through `domcert.cli.main` with its file's directory as the working
directory, so JSON inputs are named bare.

    python tests/golden_runner.py check   # exit 1 on a difference, a malformed
                                          # .out or a .json no block names
    python tests/golden_runner.py record  # rewrite stdout and exit codes

pytest replays the same blocks (tests/test_cli.py).  Like the scripts, the
runner finds the package from its own location.
"""

import argparse
import difflib
import io
import os
import re
import shlex
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from domcert.cli import main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
BLOCK = re.compile(r"(\$ domcert (.*))\n((?:.*\n)*?)exit (\d+)\n")


class GoldenError(Exception):
    pass


@dataclass(frozen=True)
class Block:
    path: Path
    id: str  # <file>#<1-based position>
    header: str
    argv: list[str]
    stdout: str
    code: int


def parse(path: Path) -> list[Block]:
    """The blocks of one golden file; GoldenError unless it is all blocks."""
    text, blocks, pos = path.read_text(), [], 0
    while pos < len(text) or not blocks:
        m = BLOCK.match(text, pos)
        line = text.count("\n", 0, pos) + 1
        where = f"{path.name}:{line}"
        if not m:
            raise GoldenError(f"{where}: expected '$ domcert <argv>', stdout, 'exit <code>'")
        try:
            argv = shlex.split(m[2])
        except ValueError as exc:
            raise GoldenError(f"{where}: {exc}") from None
        blocks.append(Block(path, f"{path.name}#{len(blocks) + 1}", m[1], argv, m[3], int(m[4])))
        pos = m.end()
    return blocks


def load(golden: Path = GOLDEN) -> dict[Path, list[Block]]:
    return {path: parse(path) for path in sorted(golden.glob("*.out"))}


def replay(block: Block) -> tuple[str, int]:
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(block.path.parent)
    try:
        with redirect_stdout(out):
            code = main(block.argv)
    finally:
        os.chdir(cwd)
    return out.getvalue(), code


def render(block: Block, stdout: str, code: int) -> str:
    return f"{block.header}\n{stdout}exit {code}\n"


def orphans(golden: Path, files: dict[Path, list[Block]]) -> list[str]:
    named = {arg for blocks in files.values() for block in blocks for arg in block.argv}
    return [path.name for path in sorted(golden.glob("*.json")) if path.name not in named]


def check(golden: Path = GOLDEN) -> list[str]:
    """One message per malformed file, unnamed input and differing block."""
    files, failures = {}, []
    for path in sorted(golden.glob("*.out")):
        try:
            files[path] = parse(path)
        except GoldenError as exc:
            failures.append(f"malformed: {exc}")
    failures += [f"{name}: named by no block" for name in orphans(golden, files)]
    for block in (block for blocks in files.values() for block in blocks):
        stdout, code = replay(block)
        if (stdout, code) != (block.stdout, block.code):
            was, now = render(block, block.stdout, block.code), render(block, stdout, code)
            diff = difflib.unified_diff(was.splitlines(True), now.splitlines(True), block.id, "now")
            failures.append("".join(diff))
    return failures


def record(golden: Path = GOLDEN) -> dict[str, int]:
    """Rewrite each golden with what its blocks print now; the changed lines per file."""
    changed = {}
    for path, blocks in load(golden).items():
        old, new = path.read_text(), "".join(render(b, *replay(b)) for b in blocks)
        path.write_text(new)
        ops = difflib.SequenceMatcher(None, old.splitlines(), new.splitlines(), False).get_opcodes()
        changed[path.name] = sum(i2 - i1 + j2 - j1 for tag, i1, i2, j1, j2 in ops if tag != "equal")
    return changed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="replay or re-record tests/golden")
    parser.add_argument("mode", choices=["check", "record"])
    if parser.parse_args().mode == "record":
        for name, count in record().items():
            print(f"{name}: {count} changed lines")
        sys.exit(0)
    failures = check()
    print("\n".join(failures) or "every golden run matches")
    sys.exit(1 if failures else 0)
