#!/usr/bin/env python3
"""Regenerate tests/golden.json, the CLI output digests that
tests/test_golden.py compares against.

Usage: python scripts/update_golden.py

This is the only way to change the file.  Run it on purpose, after a change
that is meant to alter CLI output, and list each changed digest with its
cause in CHANGES.md.  The script prints the command line of every digest
that differs from the file it replaces.
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
    old = json.loads(test_golden.GOLDEN.read_text()) if test_golden.GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        digests = test_golden.digests(Path(tmp))
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    test_golden.GOLDEN.write_text(text)
    changed = sorted(k for k in old.keys() | digests.keys() if old.get(k) != digests.get(k))
    for key in changed:
        print(f"changed: {key}")
    print(f"wrote {len(digests)} digests to {test_golden.GOLDEN.relative_to(ROOT)}, "
          f"{len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
