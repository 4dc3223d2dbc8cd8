#!/usr/bin/env python3
"""Line coverage of src/gmaxent under the Tier-1 suite, checked against an allowlist.

Run from anywhere as ``python scripts/coverage.py``. The scan uses the
standard library only: a ``sys.settrace`` (and ``threading.settrace``) hook
records the lines run in frames whose code lies under src/gmaxent while
``pytest.main`` runs tests/, then each module's executable lines are read
from ``co_lines()`` of its compiled code objects.
Blank lines and lines holding only closing brackets are not counted.

An unrun line is keyed by its module, the function that holds it and its
stripped text, so edits elsewhere in a file do not shift it; ``ALLOWED``
counts how many unrun lines of each key it permits, so a function with two
identical unrun lines names its key twice. The script exits 1 when pytest
fails, when more lines of a key are unrun than ``ALLOWED`` permits, or when
fewer are, so that an allowlist entry is deleted as soon as its line runs and
the allowlist only shrinks; it names every such key. Hypothesis runs at a
fixed seed, so the scan is repeatable on one machine.
"""

import os
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gmaxent"

# (module, function, stripped line text) of each line Tier-1 does not run; "<module>" is module level.
ALLOWED = Counter([
    # Defensive exits that no Tier-1 instance reaches: an exhausted dual line search, a zero Newton step on the
    # face, a Frank-Wolfe LP that is not optimal, the simplex pivot budget and an unbounded Phase I.
    ("solver.py", "solve_dual", "break"),
    ("solver.py", "_face_newton", "break"),
    ("solver.py", "solve_polytope", "break"),
    ("simplex.py", "Basis._run", 'raise NumericalFailure("simplex exceeded the pivot budget")'),
    ("simplex.py", "_phase_one", 'raise NumericalFailure("phase-I subproblem unbounded")  # cannot happen: cost >= 0'),
    # feasibility's early returns and its undecided probe; nothing in src/ or the CLI calls feasibility.
    ("regions.py", "feasibility", 'raise NumericalFailure("dual probe did not converge; feasibility undecided")'),
    ("regions.py", "feasibility", "return FeasibilityResult(FeasibilityStatus.FEASIBLE, c.v_rep[0])"),
    ("regions.py", "feasibility", "return FeasibilityResult(FeasibilityStatus.FEASIBLE, maximally_mixed(c.model))"),
    ("regions.py", "feasibility", "return FeasibilityResult(FeasibilityStatus.FEASIBLE, solution.state)"),
])


def _trace():
    """Install the line tracer; returns {real path of a package file: set of line numbers run}."""
    hits = defaultdict(set)
    files = {}  # code file name -> its set in hits, or None outside the package
    prefix = str(PACKAGE) + os.sep

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = hits[path] if path.startswith(prefix) else None
        lines = files[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    return hits


def _executable_lines(path: Path) -> dict:
    """{line number: qualified name of the function holding it} over the module's code objects.

    A line that two code objects share, such as a generator expression's, belongs to the outer one.
    """
    found = {}

    def walk(code, qualname):
        for *_, line in code.co_lines():
            if line:
                found.setdefault(line, qualname)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, const.co_name if qualname == "<module>" else f"{qualname}.{const.co_name}")

    walk(compile(path.read_text(), str(path), "exec"), "<module>")
    return found


def main() -> int:
    hits = _trace()
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)  # the tests read problems/ relative to the repository root
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")])
    sys.settrace(None)
    threading.settrace(None)

    unrun = Counter()
    where = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        run = hits.get(str(path.resolve()), set())
        for line, qualname in sorted(_executable_lines(path).items()):
            stripped = text[line - 1].strip()
            if stripped.strip(")]}, ") and line not in run:
                key = path.name, qualname, stripped
                unrun[key] += 1
                where[key].append(line)

    print(f"{unrun.total()} executable lines of {PACKAGE.relative_to(ROOT)} unrun, {ALLOWED.total()} allowed")
    for key, n in sorted((unrun - ALLOWED).items()):
        print(f"NOT ALLOWED ({n} more unrun than allowed): {key[0]}:{where[key]} {key!r}")
    for key, n in sorted((ALLOWED - unrun).items()):
        print(f"NOW RUN, delete {n} from ALLOWED: {key!r}")
    if code != 0:
        print(f"pytest exited {int(code)}")
    return 0 if code == 0 and unrun == ALLOWED else 1


if __name__ == "__main__":
    sys.exit(main())
