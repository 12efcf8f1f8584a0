"""Golden outputs: the exit code, stderr and SHA-256 of every file that
``symreach run`` and ``symreach matrix`` write, for every shipped scenario
and a set of unsafe variants.

Wall times are left out: ``time_s`` in ``metrics.txt``, ``time`` in
``report.json`` and the ``time`` column of ``matrix.txt``.  Floats are
written as ``repr`` of RK4 results, which depend on the numpy and Python
build, so the table names both versions.

``tests/test_golden.py`` compares a fresh ``collect`` with ``golden.json``
and never writes.  To record the current tree's outputs (a change that
does so changes outputs, and says so)::

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from symreach.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCENARIOS = os.path.join(ROOT, "scenarios")
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "golden.json")

# each variant replaces a shipped scenario's unsafe set
UNSAFE = {
    "s_shaped_hit": ("s_shaped.scn", [[-1.0, -1.0, -6.3], [1.0, 1.0, 6.3]]),
    "s_shaped_miss": ("s_shaped.scn",
                      [[30.0, -30.0, -6.3], [35.0, -25.0, 6.3]]),
    "koch_hit": ("koch.scn", [[0.5, -0.5, -40.0], [1.5, 0.5, 40.0]]),
    "rectangle_road_hit": ("rectangle_road.scn",
                           [[0.2, -1.8, -6.3], [1.0, -1.0, 6.3]]),
    # road 20, beyond the 16 materialized roads
    "infinite_s_road20": ("infinite_s.scn",
                          [[5.5, 159.5, -6.3], [6.5, 160.5, 6.3]]),
}

COMBOS = [("ns", "t"), ("sc", "t"), ("sc", "tr"), ("sv", "t"), ("sv", "tr")]


def versions() -> dict:
    return {"numpy": np.__version__, "python": sys.version.split()[0]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_time(name: str, data: bytes) -> bytes:
    if name == "report.json":
        report = json.loads(data)
        report.pop("time")
        return json.dumps(report, sort_keys=True).encode()
    if name == "metrics.txt":
        return b"\n".join(line for line in data.split(b"\n")
                          if not line.startswith(b"time_s"))
    if name == "matrix.txt":
        rows = [line.split() for line in data.decode().splitlines()]
        at = rows[0].index("time")
        return "\n".join(" ".join(row[:at] + row[at + 1:])
                         for row in rows).encode()
    return data


def _digests(out: str) -> dict:
    """Digest of each file under ``out``, keyed by its relative path."""
    files = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = _sha(
                    _without_time(name, fh.read()))
    return dict(sorted(files.items()))


def _call(argv: list, work: str) -> dict:
    """``main(argv)``: its exit code, its stderr with ``work`` replaced by
    ``WORK``, and the digests of what it wrote to its ``--out``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stderr": err.getvalue().replace(work, "WORK"),
            "files": _digests(argv[argv.index("--out") + 1])}


def collect(work: str) -> dict:
    """Run every row in the empty directory ``work``; returns the table.
    The ``run`` rows run on two worker processes."""
    runs = [(name[:-4], os.path.join(SCENARIOS, name))
            for name in sorted(os.listdir(SCENARIOS)) if name.endswith(".scn")]
    for tag, (name, unsafe) in UNSAFE.items():
        with open(os.path.join(SCENARIOS, name)) as fh:
            raw = json.load(fh)
        raw["unsafe"] = [unsafe]
        path = os.path.join(work, f"{tag}.scn")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        runs.append((tag, path))
    calls = {}
    for tag, path in runs:
        for method, map_kind in COMBOS:
            calls[f"run {tag} {method} {map_kind}"] = [
                "run", path, "--method", method, "--map", map_kind]
    argvs = [argv + ["--out", os.path.join(work, row.replace(" ", "-"))]
             for row, argv in calls.items()]
    # the matrix forks its own rows, and runs before the pool starts
    rows = {"matrix": _call(["matrix", SCENARIOS, "--methods", "ns,sc,sv",
                             "--maps", "t,tr", "--out",
                             os.path.join(work, "matrix")], work)}
    with ProcessPoolExecutor(
            2, mp_context=multiprocessing.get_context("spawn")) as pool:
        rows.update(zip(calls, pool.map(partial(_call, work=work), argvs)))
    return {"versions": versions(), "rows": dict(sorted(rows.items()))}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        table = collect(work)
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{TABLE}: {len(table['rows'])} rows")
