"""Byte-for-byte regression of the CLI on the sample inventories.

Each case runs one command in process from the repository root, with
repository-relative paths so the input-digest keys stay stable, and compares
its exit code, stdout and stderr with the files under ``tests/golden/``.
After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import CLOUD_FILES, HYBRID_FILES, run_cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

_CLOUD = [f"sample_inventories/cloud_minimal/{f}" for f in CLOUD_FILES] + [
    "--registry", "sample_inventories/cloud_minimal/crypto.json", "--paper-defaults",
]
_HYBRID = [f"sample_inventories/hybrid_enterprise/{f}" for f in HYBRID_FILES] + [
    "--profiles", "sample_inventories/hybrid_enterprise/profiles.json",
]

# name -> (arguments, exit code)
CASES: dict[str, tuple[list[str], int]] = {
    "cloud_scan_v": (["scan", *_CLOUD, "-v"], 1),
    "cloud_scan_json": (["scan", *_CLOUD, "--format", "json"], 1),
    "cloud_graph": (["graph", *_CLOUD], 0),
    "cloud_validate": (["validate", *_CLOUD], 0),
    "hybrid_scan_v": (["scan", *_HYBRID, "-v"], 1),
    "hybrid_scan_json": (["scan", *_HYBRID, "--format", "json"], 1),
    "hybrid_graph": (["graph", *_HYBRID], 0),
    "hybrid_validate": (["validate", *_HYBRID], 0),
    "hybrid_whatif_json": (
        ["whatif", *_HYBRID, "--overlay", "tests/golden/overlay.json", "--format", "json"], 1,
    ),
}


def _run(args: list[str]) -> tuple[int, str, str]:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return run_cli(args)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    args, expected_code = CASES[name]
    code, out, err = _run(args)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, (args, _) in sorted(CASES.items()):
        _, out, err = _run(args)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        (GOLDEN / f"{name}.err").write_text(err, encoding="utf-8")
