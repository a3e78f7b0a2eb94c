#!/usr/bin/env python3
"""Regenerate tests/answers.json, the answer digests that
tests/test_answers.py compares against.

Usage: python scripts/update_answers.py

This is the only way to change the file.  Run it on purpose, after a change
that is meant to alter an answer, and list each changed part with its cause
in CHANGES.md.  The script prints every part that differs from the file it
replaces.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_answers  # noqa: E402


def main() -> int:
    path = test_answers.ANSWERS
    old = json.loads(path.read_text()) if path.exists() else {}
    new = test_answers.digests()
    path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for key in changed:
        print(f"changed: {key}")
    print(f"wrote {len(new)} parts to {path.relative_to(ROOT)}, {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
