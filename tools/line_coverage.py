"""Fail when the tier-1 suite leaves a line of src/seiznet unrun.

Runs the tier-1 suite in this process under a `sys.settrace` tracer that
records the lines run in src/seiznet, with `--hypothesis-seed=0`, so every
run draws the same examples. Then it lists, as `file:line`, each executable
line (a line of a code object's `co_lines()`) that no test ran, and exits 1
if there is one. The body of a module-level `if __name__ == "__main__":` is
not counted: only running the module as a script reaches it. Code that
tests run in a subprocess is not traced, so it must also run in-process.
Needs only the standard library, pytest and what the suite itself needs.

Usage, from anywhere: python tools/line_coverage.py [extra pytest arguments]
Exit codes: 0 every line ran, 1 some line did not, or pytest's own code
when the suite did not pass.
"""

import ast
import glob
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "seiznet")


def executable_lines(path) -> set[int]:
    """The lines of `path` that its code objects run, but for the body of a
    module-level `if __name__ == "__main__":`."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [const for const in code.co_consts if isinstance(const, type(code))]
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines -= set(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def run_traced(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for `pytest_args`, and the lines each src/seiznet
    file ran, keyed by its real path."""
    import pytest  # imported untraced: only the package is traced

    ran = {os.path.realpath(p): set() for p in glob.glob(os.path.join(PACKAGE, "*.py"))}
    by_name = {}  # a code object's file name -> its set in `ran`, or None

    def trace_lines(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(os.path.realpath(name))
        return None if by_name[name] is None else trace_lines

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)  # pyproject.toml's testpaths and settings apply
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--hypothesis-seed=0", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv) -> int:
    code, ran = run_traced(argv)
    if code != 0:
        print(f"line coverage: the suite did not pass (pytest exit code {code})")
        return code
    unrun, total = [], 0
    for path in sorted(ran):
        lines = executable_lines(path)
        total += len(lines)
        unrun += [f"{os.path.relpath(path, ROOT)}:{line}" for line in sorted(lines - ran[path])]
    for where in unrun:
        print(f"not run by any test: {where}")
    print(f"line coverage: {total - len(unrun)} of {total} executable lines "
          f"in {len(ran)} files of src/seiznet ran")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
