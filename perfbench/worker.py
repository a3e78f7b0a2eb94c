"""The workload process: one fresh, single-threaded, closed-loop client.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It reads the inputs ``run.py`` generated, sets up (imports
``gpnorm.cli`` and parses the workload's presentations), prints ``ready``
with the monotonic clock's time, then, by mode:

- ``setup``: exits (a set-up time probe);
- ``run``: sends requests one after another for ``--seconds``, ending on a
  round boundary, and reports throughput and latency;
- ``trace``: runs the first ``TRACE_ROUNDS`` rounds untraced, then again
  under the span tracer, and reports per-layer metrics.

Every answer is checked after the timed loop against a reference the
benchmark computes itself; a wrong answer, an exception, or a repeat that
differs from the first answer counts as a failed request and the run goes
on.  The last line of stdout is a JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs as gen
import speed

# A traced run goes through this many rounds at the head of the pool.
TRACE_ROUNDS = 2
# Seconds between two timings of the reference kernel in a timed run.
CALIBRATE_EVERY_S = 0.1


def _load(pres):
    """Parse a presentation (JSON text or object) and expand it to primary
    form, as the CLI does."""
    from gpnorm.presentation import expand_to_primary, parse_presentation

    return expand_to_primary(parse_presentation(pres))


class Certify:
    """``gpnorm classify f --out v`` then ``gpnorm verify f v``, in-process."""

    def __init__(self, data: dict, workdir: Path):
        self.pool = data["pool"]
        self.workdir = workdir

    def setup(self):
        from gpnorm import cli

        self.cli = cli
        self.files = [str(self.workdir / f"p{k:03d}.json") for k in range(len(self.pool))]
        for f in self.files:
            _load(Path(f).read_text())
        self.verdict = str(self.workdir / "verdict.json")

    def prepare(self):
        pass

    def request(self, k: int):
        item, f, v = self.pool[k], self.files[k], self.verdict
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc_classify = self.cli.main(["classify", f, "--out", v])
            t1 = time.perf_counter()
        classified = out.getvalue()
        tampered = False
        if item["tamper"]:
            obj = json.loads(Path(v).read_text())
            tampered = gen.tamper_chain(item["presentation"], obj["certificate"])
            Path(v).write_text(json.dumps(obj))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t2 = time.perf_counter()
            rc_verify = self.cli.main(["verify", f, v])
            t3 = time.perf_counter()
        return (t1 - t0) + (t3 - t2), (rc_classify, classified, tampered, rc_verify,
                                       out.getvalue())

    def check(self, k: int, answer) -> bool:
        item = self.pool[k]
        rc_classify, classified, tampered, rc_verify, report = answer
        if rc_classify != 0 or json.loads(classified)["bounded"] != item["bounded"]:
            return False
        checks = json.loads(report)["checks"]
        if not tampered:
            return rc_verify == 0 and all(c["status"] != "FAIL" for c in checks)
        return rc_verify == 2 and any(
            c["name"] == "chain-lower-cone" and c["status"] == "FAIL" for c in checks)


class ArithLong:
    """One ``words``/``quasimorphisms`` call per request, on long words."""

    def __init__(self, data: dict, workdir: Path):
        self.data = data
        self.pool = data["pool"]

    def setup(self):
        import gpnorm.cli  # noqa: F401  (the CLI's import cost is part of set-up)

        self.graphs = [_load(g) for g in self.data["graphs"]]
        self.splits = [_load(s) for s in self.data["splits"]]

    def prepare(self):
        from gpnorm import quasimorphisms as qm
        from gpnorm import words

        self.w = words
        self.qm = qm
        self.qms = [qm.make_split_qm(s, ["a"]) for s in self.splits]
        self.orders = [{v["id"]: v["order"] for v in g["vertices"]}
                       for g in self.data["graphs"]]
        self.operands = []
        for item in self.pool:
            p = self.splits[item["split"]] if item["kind"] == "homogenize" \
                else self.graphs[item["graph"]]
            self.operands.append({key: words.normal_form(p, item[key])
                                  for key in ("x", "y") if key in item})

    def request(self, k: int):
        item, ops, w = self.pool[k], self.operands[k], self.w
        kind = item["kind"]
        if kind == "homogenize":
            p, q = self.splits[item["split"]], self.qms[item["split"]]
            t0 = time.perf_counter()
            out = self.qm.homogenize(p, q, ops["x"], "estimate", item["s"])
            return time.perf_counter() - t0, out
        p = self.graphs[item["graph"]]
        t0 = time.perf_counter()
        if kind == "normal_form":
            out = w.normal_form(p, item["word"])
        elif kind == "multiply":
            out = w.multiply(p, ops["x"], ops["y"])
        elif kind == "invert":
            out = w.invert(p, ops["x"])
        else:
            out = w.power(p, ops["x"], item["n"])
        return time.perf_counter() - t0, out

    def check(self, k: int, answer) -> bool:
        item = self.pool[k]
        kind = item["kind"]
        if kind == "homogenize":
            value, error = answer
            return value == Fraction(*item["value"]) and error == Fraction(3, item["s"])
        orders = self.orders[item["graph"]]
        if kind == "normal_form":
            want = gen.exponent_sums(item["word"], orders)
        elif kind == "multiply":
            want = gen.exponent_sums(item["x"] + item["y"], orders)
        elif kind == "invert":
            want = gen.scale(gen.exponent_sums(item["x"], orders), -1, orders)
        else:
            want = gen.scale(gen.exponent_sums(item["x"], orders), item["n"], orders)
        got = [tuple(s) for s in answer.syllables]
        if gen.exponent_sums(got, orders) != want:
            return False
        graph = self.data["graphs"][item["graph"]]
        n = len(orders)
        if len(graph["edges"]) == n * (n - 1) // 2:
            # direct product: exactly the reduced exponent vector, in
            # declaration order
            if got != [(v, want[v]) for v in orders if v in want]:
                return False
        return self.w.normal_form(self.graphs[item["graph"]], answer) == answer


class NormInterval:
    """What ``gpnorm norm`` does, in-process: Aut0 generators, orbit, ball,
    upper bound (meet-in-the-middle when needed) and certified lower bound."""

    def __init__(self, data: dict, workdir: Path):
        self.data = data
        self.pool = data["pool"]

    def setup(self):
        import gpnorm.cli  # noqa: F401
        from gpnorm.classifier import classify

        self.shapes = {name: _load(pres) for name, pres in self.data["shapes"].items()}
        self.certs = {name: classify(p).certificate for name, p in self.shapes.items()}

    def prepare(self):
        from gpnorm import automorphisms as aut
        from gpnorm import norms, words

        self.aut, self.norms, self.words = aut, norms, words
        self.x = [words.parse_word(self.shapes[item["shape"]], item["word"])
                  for item in self.pool]

    def request(self, k: int):
        item = self.pool[k]
        p, cert, x = self.shapes[item["shape"]], self.certs[item["shape"]], self.x[k]
        aut, norms, nf = self.aut, self.norms, self.words.normal_form
        radius = item["radius"]
        t0 = time.perf_counter()
        gens = aut.aut0_generators(p)
        orb = aut.orbit(p, [nf(p, [(v, 1)]) for v in p.vertex_ids], gens,
                        item["depth"], item["cap"])
        ball = norms.norm_ball(p, orb, radius)
        upper = norms.norm_upper(p, x, orb, radius, ball=ball)
        try:
            lower = norms.norm_lower(p, x, cert)
        except ValueError:  # bounded or citation-level: no numeric bound
            lower = Fraction(0)
        return time.perf_counter() - t0, (upper, lower)

    def check(self, k: int, answer) -> bool:
        item = self.pool[k]
        upper, lower = answer
        if lower < 0 or (upper is not None and not 0 <= upper <= item["radius"]):
            return False
        if upper is not None and lower > upper:
            return False
        return "lower" not in item or lower == Fraction(*item["lower"])


WORKLOADS = {"certify": Certify, "arith_long": ArithLong, "norm_interval": NormInterval}


def run_requests(wl, indices, seconds=None, round_=1, tracer=None, calibrate=False):
    """Closed loop over ``indices``: cycled until ``seconds`` have passed
    and a round of ``round_`` requests is complete, or once through when
    ``seconds`` is None.

    Returns the records (pool index, latency, error), the first answer to
    each pool item, the loop's wall time, and its raw wall time.  A later
    answer to the same item must equal the first; it is compared here,
    outside the request's latency, and not kept, so memory does not grow
    with the run.

    With ``calibrate``, ``speed.kernel`` is timed before the first request
    and then between requests every CALIBRATE_EVERY_S.  Latencies and wall
    time between two kernel runs are scaled to the reference speed by the
    mean of those two kernel times (see ``speed``).
    """
    records, answers, samples = [], {}, []

    def sample():
        t0 = time.perf_counter()
        ms = speed.kernel_ms()
        samples.append((t0, time.perf_counter(), ms))

    if calibrate:
        sample()
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    i = 0
    while deadline is not None or i < len(indices):
        if calibrate and time.perf_counter() - samples[-1][1] >= CALIBRATE_EVERY_S:
            sample()
        k = indices[i % len(indices)]
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            latency, answer = wl.request(k)
        except Exception as exc:  # a failed request is counted, not fatal
            records.append((k, time.perf_counter() - t0, repr(exc), len(samples) - 1))
        else:
            first = answers.setdefault(k, answer)
            error = (None if answer is first or answer == first
                     else "answer differs from the first answer to this request")
            records.append((k, latency, error, len(samples) - 1))
        i += 1
        if deadline is not None and i % round_ == 0 and time.perf_counter() >= deadline:
            break
    end = time.perf_counter()
    if not calibrate:
        return [r[:3] for r in records], answers, end - start, end - start
    sample()
    gaps = [b[0] - a[1] for a, b in zip(samples, samples[1:])]
    scales = [speed.REFERENCE_MS * 2 / (a[2] + b[2]) for a, b in zip(samples, samples[1:])]
    records = [(k, latency * scales[j], error) for k, latency, error, j in records]
    return records, answers, sum(g * s for g, s in zip(gaps, scales)), sum(gaps)


def failed_items(wl, records, answers) -> tuple[int, set]:
    """Failed requests, and the pool items with a failed request.  A
    request fails when it raised, when its answer differed from the first
    answer to that item, or when that first answer fails the check."""
    verdicts = {}
    for k, answer in answers.items():
        try:
            verdicts[k] = (wl.check(k, answer), "wrong answer")
        except Exception as exc:  # a check that cannot run is a failure too
            verdicts[k] = (False, repr(exc))
    failed, items = 0, set()
    for k, _, error in records:
        ok, why = verdicts[k] if error is None else (False, error)
        if not ok:
            failed += 1
            items.add(k)
            if failed <= 5:
                print(f"failed request {k}: {why}", file=sys.stderr)
    return failed, items


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True, help="directory holding inputs.json")
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    workdir = Path(args.dir)
    data = json.loads((workdir / "inputs.json").read_text())
    wl = WORKLOADS[args.workload](data, workdir)
    wl.setup()
    print(f"ready {time.monotonic()}", flush=True)
    print(f"kernel_ms {speed.kernel_ms(3)}", flush=True)
    if args.mode == "setup":
        return 0
    wl.prepare()
    pool = list(range(len(wl.pool)))

    if args.mode == "run":
        records, answers, wall, raw_wall = run_requests(
            wl, pool, seconds=args.seconds, round_=data["round"], calibrate=True)
        failed, bad = failed_items(wl, records, answers)
        latencies = [r[1] * 1e3 for r in records]
        p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
        result = {
            "attempted": len(records),
            "failed": failed,
            "items": len({r[0] for r in records}),
            "failed_items": len(bad),
            "wall_s": wall,
            "raw_wall_s": raw_wall,
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": p90,
            "above_p90": sum(1 for x in latencies if x > p90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        from tracer import Tracer

        listed = pool[:TRACE_ROUNDS * data["round"]]
        plain, plain_answers, plain_wall, _ = run_requests(wl, listed)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_answers, traced_wall, _ = run_requests(wl, listed, tracer=tracer)
        finally:
            tracer.uninstall()
        failed = (failed_items(wl, plain, plain_answers)[0]
                  + failed_items(wl, traced, traced_answers)[0])
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall
        tracer.dump(workdir / "spans.bin")
        result = {"attempted": len(plain) + len(traced), "failed": failed,
                  "wall_s": plain_wall, "traced_wall_s": traced_wall,
                  "spans": len(tracer.names), "bindings": tracer.bindings,
                  "metrics": metrics}
        if isinstance(wl, Certify):
            result["tampered"] = sum(1 for a in traced_answers.values() if a[2])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
