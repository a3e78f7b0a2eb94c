"""Traced runs repeat their work counts exactly.

Two traced runs of a workload on one seed must give identical values for
every ``.calls``, ``.elements`` and ``.syllables_*`` count (and for the
number of rejected certificates), because on a noisy machine those counts
are the steady signal.  On ``certify`` the number of rejected reports must
also equal the number of tampered certificates.

Run from the root of a checkout (about a minute):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
COUNT_SUFFIXES = (".calls", ".elements", ".syllables_in", ".syllables_out", ".rejected")


def traced_run(workload: str, seed: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", ["certify", "arith_long", "norm_interval"])
def test_counts_repeat_exactly(workload):
    first, lines = traced_run(workload, 7)
    second, _ = traced_run(workload, 7)
    assert first["correct"] and second["correct"]
    counts = {k: m["value"] for k, m in first["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    again = {k: m["value"] for k, m in second["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == again
    assert counts[{"certify": "classifier.verify_certificate.calls",
                   "arith_long": "words.normal_form.calls",
                   "norm_interval": "norms.norm_ball.calls"}[workload]] > 0
    if workload == "certify":
        tampered = next(json.loads(line.split(":", 1)[1]) for line in lines
                        if line.startswith("# tampered:"))
        assert tampered > 0
        assert counts["classifier.verify_certificate.rejected"] == tampered
