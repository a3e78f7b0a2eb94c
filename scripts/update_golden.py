#!/usr/bin/env python3
"""Regenerate tests/golden.json, the CLI output digests that
tests/test_golden.py compares against.

Usage: python scripts/update_golden.py

This is the only way to change the file.  Run it on purpose, after a change
that is meant to alter CLI output, and list each changed digest with its
cause in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_golden  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = test_golden.digests(Path(tmp))
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    test_golden.GOLDEN.write_text(text)
    print(f"wrote {len(digests)} digests to {test_golden.GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
