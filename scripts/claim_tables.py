"""Regenerate the paper's claim tables into ``benchmarks/output/<name>.txt``.

Usage: ``PYTHONPATH=src python scripts/claim_tables.py`` (no options).

Each table of :data:`repro.analysis.claims.CLAIM_TABLES` is rebuilt by the
row builder that ``tests/test_paper_claims.py`` asserts on, so a committed
table that drifts from its builder shows up in ``git diff``.  A table whose
builder needs a missing optional dependency (Theorem 3 needs scipy) is
skipped with the reason printed.
"""

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.claims import CLAIM_TABLES  # noqa: E402
from repro.core import BestResponseUnavailable  # noqa: E402
from repro.reliability import atomic_write_text  # noqa: E402

OUTPUT_DIR = REPO_ROOT / "benchmarks" / "output"


def main() -> int:
    for name, build in CLAIM_TABLES.items():
        try:
            text = build().render()
        except BestResponseUnavailable as exc:
            print(f"skipped {name}: {exc}")
            continue
        atomic_write_text(OUTPUT_DIR / f"{name}.txt", text + "\n")
        print(f"wrote benchmarks/output/{name}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
