"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, prints it, and
writes it to ``benchmarks/output/<name>.txt``.
"""

import pathlib

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def save_table(name: str, text: str) -> None:
    """Print a rendered table and persist it under ``benchmarks/output``."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
