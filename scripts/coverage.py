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
    # Argument checks that no test calls with a bad shape, size or model.
    ("io.py", "_number", 'raise SchemaError(f"{context}: expected a number, got {raw!r}")'),
    ("io.py", "_parse_functional", "raise SchemaError("),
    ("io.py", "_parse_functional", 'f"{context}: expected {model.ambient_dim} components"'),
    ("io.py", "_parse_functional", '+ (" (constant, then linear part)" if model.kind == POLYTOPE else "")'),
    ("io.py", "_parse_functional", '+ f", got {vec.shape}"'),
    ("io.py", "dumps_17g.emit", 'raise TypeError(f"cannot serialize {type(o)!r}")'),
    ("models.py", "Classical.__init__", 'raise ValueError("dimension must be positive")'),
    ("models.py", "Quantum.__init__", 'raise ValueError("dimension must be positive")'),
    ("models.py", "Quantum.coords_to_matrix",
     'raise ValueError(f"expected {self.ambient_dim} coordinates, got shape {c.shape}")'),
    ("models.py", "Quantum.matrix_to_coords",
     'raise ValueError(f"expected a {self.dim} x {self.dim} matrix, got shape {m.shape}")'),
    ("models.py", "State.__post_init__",
     'raise InvalidState(f"expected {self.model.ambient_dim} coordinates, got {c.shape}")'),
    ("models.py", "State.density_matrix", 'raise ModelMismatch("density_matrix is defined for quantum states only")'),
    ("models.py", "State.point", 'raise ModelMismatch("point is defined for polytope states only")'),
    ("models.py", "Effect.__post_init__",
     'raise InvalidEffect(f"expected {self.model.ambient_dim} components, got {f.shape}")'),
    ("models.py", "Observable.__post_init__", 'raise InvalidObservable("observable needs at least one outcome")'),
    ("models.py", "Observable.__post_init__", 'raise ModelMismatch("outcome effect belongs to a different model")'),
    ("models.py", "check_state_axioms", 'raise ModelMismatch("state axioms are stated over quantum projections")'),
    ("models.py", "random_povm", 'raise ValueError("a POVM needs at least two outcomes")'),
    ("oracle.py", "oracle_maxent", 'raise ValueError("resolution must be positive and finite")'),
    ("oracle.py", "oracle_maxent",
     'raise Unsupported(f"polytope oracle capped at {_POLYTOPE_MAX_VERTICES} vertices")'),
    ("regions.py", "LinearConstraint.__post_init__",
     'raise ValueError(f"expected {self.model.ambient_dim} components, got {f.shape}")'),
    ("regions.py", "ConvexRegion.__post_init__", 'raise ModelMismatch("constraint belongs to a different model")'),
    ("regions.py", "ConvexRegion.__post_init__", 'raise ModelMismatch("generator belongs to a different model")'),
    ("regions.py", "affine_hull_constraints", 'raise DegenerateInput("affine hull of an empty generator list")'),
    ("regions.py", "includes", 'raise ModelMismatch("regions live on different models")'),
    ("regions.py", "join", 'raise ModelMismatch("regions live on different models")'),
    ("simplex.py", "Basis.__init__", 'raise ValueError("inconsistent LP shapes")'),
    ("simplex.py", "Basis.optimize", 'raise ValueError("inconsistent LP shapes")'),
    # Base-class and comparison fallbacks, and value branches that no test draws.
    ("models.py", "ModelSpace._key", "raise NotImplementedError"),
    ("models.py", "ModelSpace.__repr__", 'return f"{type(self).__name__}(ambient_dim={self.ambient_dim})"'),
    ("models.py", "_equal_by_value", "return NotImplemented"),
    ("models.py", "check_state_axioms", "add_res = 0.0"),
    ("models.py", "random_effect", "return Effect(model, _sealed(0.5 * model.unit_functional))"),
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
