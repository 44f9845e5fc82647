"""Rewrite tests/golden_seed0.json from the current code.

    PYTHONPATH=src python3 tests/regenerate_golden.py

Review ``git diff tests/golden_seed0.json`` before committing: every change
to the golden values needs a reason recorded in CHANGES.md.
"""

import tempfile
from pathlib import Path

from test_golden import GOLDEN_PATH, GOLDEN_RUNS, dump_golden, record_run


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: record_run(*run, Path(tmp) / name) for name, run in GOLDEN_RUNS.items()}
    GOLDEN_PATH.write_text(dump_golden(runs))
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
