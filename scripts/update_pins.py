#!/usr/bin/env python3
"""Regenerate the pinned digests: tests/golden.json, the CLI output digests
that tests/test_golden.py compares against, and tests/answers.json, the
answer digests that tests/test_answers.py compares against.

Usage: python scripts/update_pins.py

This is the only way to change either file.  Run it on purpose, after a
change that is meant to alter CLI output or an answer, and list each changed
key with its cause in CHANGES.md.  The script prints every key of each file
that differs from the file it replaces.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_answers  # noqa: E402
import test_golden  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        pins = [(test_golden.GOLDEN, test_golden.digests(Path(tmp))),
                (test_answers.ANSWERS, test_answers.digests())]
    for path, new in pins:
        old = json.loads(path.read_text()) if path.exists() else {}
        path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        for key in changed:
            print(f"changed: {path.name}: {key}")
        print(f"wrote {len(new)} keys to {path.relative_to(ROOT)}, {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
