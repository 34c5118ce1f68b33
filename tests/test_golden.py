"""Golden CLI outputs: every command of tests/golden/regenerate.py on
both bundled configs prints what its golden file holds, byte for byte.

A change that moves output on purpose regenerates the files that moved
(``python3 tests/golden/regenerate.py NAME ...``) and summarises the
diff.  The header of each file names the numpy version and the CPU the
bytes were made on; BLAS kernels differ between CPUs, so a mismatch on
another machine is reported with both environments.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate",
                                               GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def first_difference(want, got):
    """'line N: expected ... got ...' for the first differing line."""
    a, b = want.splitlines(), got.splitlines()
    for n, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return "line %d: expected %r, got %r" % (n, x, y)
    n = min(len(a), len(b)) + 1
    return "line %d: expected %r, got %r" % (
        n, a[n - 1] if len(a) >= n else "<end>", b[n - 1] if len(b) >= n else "<end>")


@pytest.mark.parametrize("name", sorted(regenerate.CASES))
def test_cli_output_matches_golden(name):
    head, want = regenerate.split((GOLDEN / (name + ".txt")).read_text(encoding="utf-8"))
    code, got = regenerate.run(regenerate.CASES[name])
    assert "# exit %d\n" % code in head
    if got != want:
        pytest.fail("%s differs from its golden file, after the header, at %s (made on %s; "
                    "this run: %s)" % (name, first_difference(want, got),
                                       head[1][2:].strip(), regenerate.environment()))
