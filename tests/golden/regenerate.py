#!/usr/bin/env python3
"""Regenerate the golden CLI outputs in this directory.

    python3 tests/golden/regenerate.py [NAME ...]

Runs every command of CASES through ``convavg.cli.main`` in-process on
the sources in ``src/`` and writes one ``NAME.txt`` per case: a header
of ``#`` lines (the command, the numpy version, the CPU and the exit
code) and then the command's stdout.  A ``tran`` table is kept as the
sha256 of its stdout, then every 25th row and the last row, each after
its row number.  With names, only those cases are rewritten.  For each
file it rewrites it prints the number of lines after the header that
changed and the largest relative change in each column that moved (a
CSV column, or the key of a ``key = value`` line; for ``tran`` the kept
rows), ``inf`` where a field moved from 0 or is not a number.  When a
``tran`` table's row count or the times of its kept rows move, those
rows fall at other times, so the summary gives the row counts and the
change of the last row (at t_end) alone.

``tests/test_golden.py`` runs the same cases and compares everything
after the header byte for byte.  ``ac``, ``tran`` and ``compare`` go
through numpy, whose BLAS may pick other kernels on another CPU, so the
header says where the bytes were made.  A change that moves output on
purpose regenerates only the files that moved and summarises the diff.
pytest does not collect this file (its name does not start with test_).
"""

import contextlib
import hashlib
import io
import math
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

CONFIGS = ("sepic_bench", "cuk_bench")
COMMANDS = (
    ("dc",),
    ("dc", "--duty", "0.05"),
    ("dc", "--duty", "0.7"),
    ("sweep", "--from", "0.05", "--to", "0.9", "--step", "0.01"),
    ("ac",),
    ("ac", "--input", "source"),
    ("ac", "--duty", "0.7"),
    ("tran",),
    ("tran", "--duty", "0.7", "--t-end", "0.05"),
    ("compare",),
    ("compare", "--duty", "0.7", "--cycles", "300"),
    ("compare", "--cycles", "1"),
    ("compare", "--steps", "8000", "--cycles", "20"),
)
TRAN_EVERY = 25


def case_name(config, command):
    return "-".join((config,) + tuple(a.lstrip("-") for a in command))


# name -> argv of convavg
CASES = {case_name(config, command): (command[0], "--config", config) + command[1:]
         for config in CONFIGS for command in COMMANDS}


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    import numpy
    return "numpy %s, %s (%s)" % (numpy.__version__, cpu_model(), platform.machine())


def tran_digest(text):
    """sha256 of the table, then every TRAN_EVERY-th row and the last."""
    rows = text.splitlines()
    keep = sorted(set(range(0, len(rows), TRAN_EVERY)) | {len(rows) - 1})
    lines = ["sha256 %s" % hashlib.sha256(text.encode("utf-8")).hexdigest(),
             "rows %d" % len(rows)]
    lines += ["%d %s" % (i, rows[i]) for i in keep]
    return "\n".join(lines) + "\n"


def run(argv):
    """(exit code, golden body) of one convavg command, run in-process."""
    from convavg.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    return code, tran_digest(text) if argv[0] == "tran" else text


def header(argv, code):
    return "# convavg %s\n# %s\n# exit %d\n" % (" ".join(argv), environment(), code)


def split(text):
    """(header lines, body) of a golden file."""
    lines = text.splitlines(keepends=True)
    n = 0
    while n < len(lines) and lines[n].startswith("# "):
        n += 1
    return lines[:n], "".join(lines[n:])


def is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def cells(body):
    """{(row, column): field} of a golden body.  A line without a comma is
    one cell named by its key (``key = value``, or a tran digest's
    ``sha256 X`` and ``rows N``).  A CSV line of numbers gives a cell per
    field, named by the header line above it and keyed by the row number
    in front of a kept tran row, else by its line."""
    out, names = {}, ()
    for n, line in enumerate(body.splitlines()):
        if "," not in line:
            key, _, value = line.partition(" = " if " = " in line else " ")
            out[key, key] = value
            continue
        row, _, rest = line.partition(" ")
        if not (row.isdigit() and rest):
            row, rest = n, line
        fields = rest.split(",")
        if any(is_number(f) for f in fields):
            out.update(((row, name), f) for name, f in zip(names, fields))
        else:
            names = fields
    return out


def last_row_only(body):
    """A tran digest cut to its column names and its last kept row,
    renumbered as row 0."""
    lines = body.splitlines()
    return "\n".join([lines[2], "0 " + lines[-1].partition(" ")[2]]) + "\n"


def diff_summary(old, new):
    """'K of N lines changed' after the header, then the largest relative
    change of each column that moved, in order of appearance.  Between
    tran digests of different row counts, or whose kept rows fall at other
    times, 'rows A -> B' and the change of the last row instead."""
    a, b = old.splitlines(), new.splitlines()
    changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    head = "%d of %d lines changed" % (changed, len(b))
    rows = [text.splitlines()[1] for text in (old, new) if text.startswith("sha256 ")]
    regridded = any(cells(new).get(key) != t for key, t in cells(old).items() if key[1] == "t")
    if len(rows) == 2 and (rows[0] != rows[1] or regridded):
        head = "%s -> %s, last row" % (rows[0], rows[1].split()[1])
        old, new = last_row_only(old), last_row_only(new)
    worst = {}
    before = cells(old)
    for (row, column), field in cells(new).items():
        was = before.get((row, column))
        if was is None or was == field:
            continue
        try:
            rel = abs(float(field) - float(was)) / abs(float(was))
        except (ValueError, ZeroDivisionError):
            rel = math.inf
        worst[column] = max(worst.get(column, 0.0), rel)
    lines = [head] + ["    %s: %.2g" % item for item in worst.items()]
    return "\n".join(lines)


def main(names):
    for name in names or CASES:
        argv = CASES[name]
        code, body = run(argv)
        path = HERE / (name + ".txt")
        old = split(path.read_text(encoding="utf-8"))[1] if path.exists() else None
        path.write_text(header(argv, code) + body, encoding="utf-8")
        print("wrote %s (exit %d): %s" % (
            name, code, "new file" if old is None else diff_summary(old, body)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main(sys.argv[1:]))
