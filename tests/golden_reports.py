"""Golden reports: the CLI runs whose reports the tests pin, and the writer
of their expected outcomes.

Every case runs ``qsslsvm.cli.main`` in-process on the fixtures under
``tests/data`` and records its exit code, its stderr and every report field
but ``timings`` (which differ from run to run).  Paths are recorded
relative to the data directory, so the file does not depend on where the
repository sits.

Regenerate ``tests/data/golden_reports.json`` only for a deliberate change
of a reported number, and list each field that moved in ``CHANGES.md``::

    PYTHONPATH=src python tests/golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_reports.json"

FIXTURES = ("two_cluster_4.csv", "two_cluster_8.csv", "mixed_20.csv", "grid_20.csv")
TESTSET = "grid_20.csv"

#: (command, extra flags) run on every fixture at every k.
VARIANTS = (
    ("train", ("--laplacian", "normalized")),
    ("train", ("--laplacian", "normalized", "--testset", TESTSET)),
    ("train", ("--laplacian", "combinatorial")),
    ("train", ("--laplacian", "combinatorial", "--testset", TESTSET)),
    ("simulate", ()),
    ("simulate", ("--testset", TESTSET)),
    ("bench", ("--delta", "1e-2")),
)


def cases() -> list[tuple[str, ...]]:
    """Argument lists (data paths relative to ``DATA``) of every case."""
    return [
        (command, fixture, "--knn", str(k), *flags)
        for fixture in FIXTURES
        for k in (1, 2, 3)
        for command, flags in VARIANTS
    ]


def case_id(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def run_case(argv: tuple[str, ...]) -> dict:
    """Exit code, stderr and report (without ``timings``) of one CLI run."""
    from qsslsvm.cli import main

    data_args = {argv[1], TESTSET}
    full = [str(DATA / a) if a in data_args else a for a in argv]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(full + ["--report", str(out)])
        report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        report.pop("timings", None)
        config = report.get("config", {})
        for key in ("dataset", "testset"):
            if config.get(key) is not None:
                config[key] = str(Path(config[key]).relative_to(DATA))
    return {"exit_code": code, "stderr": err.getvalue().replace(f"{DATA}/", ""), "report": report}


def main() -> int:
    golden = {case_id(argv): run_case(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} cases written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
