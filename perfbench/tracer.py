"""Span tracer that wraps gpnorm's public functions from outside the program.

``from .words import normal_form`` copies the function reference into every
importing module, so patching ``gpnorm.words`` alone would miss most calls.
``Tracer.install`` therefore replaces each traced function at every binding
in every loaded ``gpnorm.*`` module (and a method on its class).

Each call records one span: name, parent span, request id, start and end.
Spans are kept in flat arrays in memory and written out by ``dump``; self
time is a span's duration minus that of its child spans (one thread, so
children never overlap).  Counts that need the arguments or the result
(syllables in and out, orbit and ball sizes, answers found, reports
rejected) are recorded by hooks at the same boundary.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# (module, function) pairs; "Presentation.sub" is a method of the class.
TARGETS = (
    ("presentation", "parse_presentation"),
    ("presentation", "expand_to_primary"),
    ("presentation", "Presentation.sub"),
    ("words", "normal_form"),
    ("words", "multiply"),
    ("words", "invert"),
    ("words", "power"),
    ("words", "retract"),
    ("classes", "tau_structure"),
    ("classes", "preorder"),
    ("automorphisms", "aut0_generators"),
    ("automorphisms", "apply_gen"),
    ("automorphisms", "orbit"),
    ("quasimorphisms", "homogenize"),
    ("quasimorphisms", "split_qm_eval"),
    ("norms", "norm_ball"),
    ("norms", "norm_upper"),
    ("norms", "norm_lower"),
    ("classifier", "classify"),
    ("classifier", "verify_certificate"),
    ("cli", "main"),
)


NAMES = tuple(f"{module}.{qual.rsplit('.', 1)[-1]}" for module, qual in TARGETS)
# Spans reported by call count and by self time; ``presentation`` reports
# one self time for the module.
CALLS = tuple(n for n in NAMES
              if n not in ("presentation.expand_to_primary", "norms.norm_lower"))
SELF_MS = tuple(n for n in NAMES if not n.startswith("presentation.")
                and n not in ("words.invert", "words.retract", "classes.preorder"))


class Tracer:
    """Wraps every target at install, restores every binding at uninstall."""

    def __init__(self):
        self.request = -1
        self._stack = [-1]
        self.names = array("b")
        self.parents = array("q")
        self.requests = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counts = {"words.normal_form.syllables_in": 0,
                       "words.normal_form.syllables_out": 0,
                       "automorphisms.orbit.elements": 0,
                       "automorphisms.orbit.new": 0,
                       "norms.norm_ball.elements": 0,
                       "norms.norm_upper.found": 0,
                       "classifier.verify_certificate.rejected": 0}
        self.bindings: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._original_normal_form = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if (name == "gpnorm" or name.startswith("gpnorm.")) and m is not None]
        owners = {m.__name__: m for m in mods}
        for nid, (module, qual) in enumerate(TARGETS):
            owner = owners[f"gpnorm.{module}"]
            name = NAMES[nid]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(orig, nid))
                self.bindings[name] = 1
                continue
            orig = getattr(owner, qual)
            if name == "words.normal_form":
                self._original_normal_form = orig
            wrapper = self._wrap(orig, nid)
            found = 0
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
                        found += 1
            self.bindings[name] = found

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def _patch(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _wrap(self, fn, nid: int):
        before, after = self._hooks().get(NAMES[nid], (None, None))
        sig = inspect.signature(fn) if before else None
        stack, names, parents = self._stack, self.names, self.parents
        requests, starts, ends = self.requests, self.starts, self.ends
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                state = before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.request)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if after is not None:
                after(state, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        """(before, after) per span name: ``before`` sees the bound
        arguments and may materialise an iterator; its return value is
        handed to ``after`` with the call's result."""
        counts = self.counts

        def add(key, value):
            counts[key] += value

        def normal_form_in(a):
            if not hasattr(a["word"], "__len__"):
                a["word"] = list(a["word"])
            add("words.normal_form.syllables_in", len(a["word"]))

        def orbit_in(a):
            # orbit keeps the distinct seeds within the cap; every other
            # element it returns is new
            a["seeds"] = list(a["seeds"])
            nf = self._original_normal_form
            start = {nf(a["p"], s) for s in a["seeds"]}
            return sum(1 for s in start
                       if sum(abs(e) for _, e in s.syllables) <= a["length_cap"])

        def orbit_out(kept_seeds, result):
            add("automorphisms.orbit.elements", len(result.elements))
            add("automorphisms.orbit.new", len(result.elements) - kept_seeds)

        return {
            "words.normal_form": (normal_form_in, lambda _, r: add(
                "words.normal_form.syllables_out", len(r))),
            "automorphisms.orbit": (orbit_in, orbit_out),
            "norms.norm_ball": (None, lambda _, r: add("norms.norm_ball.elements", len(r))),
            "norms.norm_upper": (None, lambda _, r: add(
                "norms.norm_upper.found", r is not None)),
            "classifier.verify_certificate": (None, lambda _, r: add(
                "classifier.verify_certificate.rejected", not r.passed)),
        }

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        n = len(self.names)
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        calls = dict.fromkeys(NAMES, 0)
        self_ms = dict.fromkeys(NAMES, 0.0)
        for i in range(n):
            calls[NAMES[names[i]]] += 1
            self_ms[NAMES[names[i]]] += (dur[i] - child[i]) / 1e6
        apply_gen, orbit = NAMES.index("automorphisms.apply_gen"), NAMES.index("automorphisms.orbit")
        images = sum(1 for i in range(n)
                     if names[i] == apply_gen and parents[i] >= 0 and names[parents[i]] == orbit)
        counts = dict(self.counts)
        new, found = counts.pop("automorphisms.orbit.new"), counts.pop("norms.norm_upper.found")

        out = {f"{name}.calls": calls[name] for name in CALLS}
        out.update((f"{name}.self_ms", self_ms[name]) for name in SELF_MS)
        out["presentation.self_ms"] = sum(v for k, v in self_ms.items()
                                          if k.startswith("presentation."))
        out.update(counts)
        out["automorphisms.orbit.kept_ratio"] = new / images if images else 0.0
        calls_upper = calls["norms.norm_upper"]
        out["norms.norm_upper.found_ratio"] = found / calls_upper if calls_upper else 0.0
        return dict(sorted(out.items()))

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header, then the raw arrays in the order
        the header lists them (native byte order)."""
        header = {"names": list(NAMES), "spans": len(self.names),
                  "arrays": [["name", "b"], ["parent", "q"], ["request", "q"],
                             ["start_ns", "q"], ["end_ns", "q"]],
                  "bindings": self.bindings, "counts": self.counts}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.requests, self.starts, self.ends):
                arr.tofile(fh)
