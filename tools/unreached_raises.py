"""A pytest plugin that fails the run when a `raise` in src/zenocav is never reached.

    PYTHONPATH=src python -m pytest -q -p tools.unreached_raises tests/

Every line run in the package is traced with sys.settrace (forked sweep
workers are not traced).  At the end each `raise` statement whose first line
never ran must be in UNREACHED, keyed by its file and its source text as
ast.unparse writes it, so the list survives moved lines and rewrapping.  An
unlisted one fails the run; a listed one that ran is reported, to be struck.
Run it on the whole suite only: a subset leaves more raises unreached.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zenocav"

UNREACHED = {
    ("steady.py", "raise SteadyStateNumericsError(f'condition estimate failed (info={info})')"):
        "gecon sets info < 0 only for an illegal argument, and _factor passes a square LU",
    ("steady.py", "raise SteadyStateNumericsError(f'stationary state has eigenvalue {min_eig:.3e}, below the repairable limit -{CLIP_LIMIT:.1e}')"):
        "needs a nearly degenerate generator whose solved state is that negative; none found yet",
    ("steady.py", "raise SteadyStateNumericsError('slowest eigenvector is traceless; cannot normalize to a state')"):
        "the stationary eigenvector of a trace-preserving generator has a nonzero trace",
    ("zeno.py", "raise DerivationError(f'no zero eigenvalue cluster; closest is {zero.eigenvalue:.3e}')"):
        "every full model's strong Hamiltonian has dark states, so a zero cluster exists",
    ("zeno.py", "raise DerivationError(f'zero-photon block has dimension {subspace.shape[1]}, expected {len(state_labels)}')"):
        "no valid full model yet found whose zero-photon dark space has another dimension",
    ("zeno.py", "raise DerivationError(f'state {label!r} is outside the projected subspace (residual {np.linalg.norm(residual):.3e})')"):
        "the reduced models' states are the dark states the projection keeps",
}

_raises = {}  # resolved path -> {first line: source text}
_traced = {}  # code filename -> whether it is a package file
_ran = set()  # (code filename, line)


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _traced:
        _traced[name] = str(Path(name).resolve()) in _raises
    return _local if _traced[name] else None


def pytest_configure(config):
    for path in sorted(PACKAGE.glob("*.py")):
        _raises[str(path)] = {
            node.lineno: ast.unparse(node)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)
        }
    sys.settrace(_global)


def _unreached():
    ran = {(str(Path(name).resolve()), line) for name, line in _ran}
    return {
        (Path(name).name, text)
        for name, raises in _raises.items()
        for line, text in raises.items()
        if (name, line) not in ran
    }


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    if _unreached() - UNREACHED.keys():
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    unreached = _unreached()
    for name, text in sorted(unreached - UNREACHED.keys()):
        terminalreporter.write_line(f"unreached raise, not in tools/unreached_raises.py: {name}: {text}")
    for name, text in sorted(UNREACHED.keys() - unreached):
        terminalreporter.write_line(f"listed raise now reached, to be struck from the list: {name}: {text}")
    terminalreporter.write_line(f"raises traced: {sum(map(len, _raises.values()))}, unreached: {len(unreached)}")
