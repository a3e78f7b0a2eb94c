#!/usr/bin/env python3
"""Distortion experiment: certified norm growth of powers in the corpus.

For each (group, element) pair below, runs ``gpnorm distortion --svg`` for
n up to --nmax: it computes the certified lower bound and the BFS upper bound
of |x^n|, prints the table, and writes CSV files (plus SVG plots) under --out.

Usage: python scripts/distortion_experiment.py [--nmax 12] [--out results]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from gpnorm import gen_corpus
from gpnorm.cli import main as gpnorm_main

CASES = [
    # (corpus name, word literal, orbit depth, length cap, radius)
    ("psl", "a b", 4, 8, 6),
    ("f2", "a b a^-1 b^-1", 2, 6, 4),
    ("z", "a", 2, 4, 6),
    ("dinf", "a b", 6, 13, 2),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=12)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as tmp:
        gen_corpus(tmp)
        for name, literal, depth, cap, radius in CASES:
            # a fresh --cert path: distortion classifies and writes the certificate
            cert = Path(tmp, f"{name}.cert")
            csv = io.StringIO()
            with contextlib.redirect_stdout(csv):
                code = gpnorm_main([
                    "distortion", str(Path(tmp, f"{name}.json")), literal,
                    "--orbit-depth", str(depth), "--len-cap", str(cap),
                    "--radius", str(radius), "--nmax", str(args.nmax),
                    "--cert", str(cert), "--svg", str(out / f"{name}_distortion.svg"),
                ])
            if code:
                return code
            kind = json.loads(cert.read_text())["kind"]
            print(f"== {name}: x = {literal} ({kind}) ==")
            print(csv.getvalue())
            (out / f"{name}_distortion.csv").write_text(csv.getvalue())
    print(f"wrote CSV/SVG to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
