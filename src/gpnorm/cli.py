"""Command-line front end.

Thin dispatcher over the library: every subcommand reads a presentation
JSON, runs one module operation, and prints JSON / CSV / DOT / word literals
to stdout.  Exit codes: 0 success or verification PASS, 1 usage or input
error, 2 verification FAIL, also of a certificate file given to norm or
distortion.  Only gen-corpus draws random numbers, from its --seed flag, so
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import classes as cl
from . import classifier, corpus
from .automorphisms import aut0_generators, orbit, parse_generator
from .norms import distortion_table, norm_lower, norm_upper
from .presentation import Presentation, PresentationError, expand_to_primary, parse_presentation
from .words import NormalWord, normal_form, parse_word, word_literal


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load(path: str) -> Presentation:
    p = parse_presentation(Path(path).read_text())
    return expand_to_primary(p)


def _load_with_words(path: str) -> tuple[Presentation, Callable[[str], NormalWord]]:
    """The primary presentation of a file and a word-literal parser for it.

    The parser also reads a syllable v^e of a cyclic vertex v of composite
    order as v.0^e v.1^e ..., its image under the isomorphism of
    expand_to_primary (by the Chinese remainder theorem, a generator of C_n
    goes to generators of the prime-power parts).  A vertex given as several
    factors is not cyclic: naming it is an error that lists its primary ids.
    """
    raw = parse_presentation(Path(path).read_text())
    p = expand_to_primary(raw)
    images = {}
    for spec in raw.vertices:
        ids = expand_to_primary(Presentation([spec], [])).vertex_ids
        if ids != (spec.id,):
            images[spec.id] = ids
    noncyclic = {v.id for v in raw.vertices if v.factors is not None and len(v.factors) > 1}

    def word(text: str) -> NormalWord:
        tokens = []
        for token in text.split():
            v, hat, e = token.partition("^")
            if v in noncyclic:
                raise ValueError(
                    f"vertex {v!r} has several factors and is not cyclic; "
                    f"name its primary vertices {' '.join(images[v])}"
                )
            tokens.extend(w + hat + e for w in images.get(v, (v,)))
        return parse_word(p, " ".join(tokens))

    return p, word


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _orbit_for(p: Presentation, word: Callable[[str], NormalWord], ns: argparse.Namespace):
    gens = (
        [parse_generator(p, g) for g in ns.gen]
        if ns.gen
        else aut0_generators(p)
    )
    seeds = (
        [word(s) for s in ns.seed_word]
        if ns.seed_word
        else [normal_form(p, [(v, 1)]) for v in p.vertex_ids]
    )
    return orbit(p, seeds, gens, ns.orbit_depth, ns.len_cap)


def _custom_orbit(ns: argparse.Namespace) -> bool:
    """True when --gen or --seed-word replaces the Aut0 orbit of the
    vertices; then a stderr note says that upper bounds another norm."""
    custom = bool(ns.gen or ns.seed_word)
    if custom:
        print("note: --gen or --seed-word replaces the Aut0 orbit, so upper bounds "
              "a different norm than lower", file=sys.stderr)
    return custom


def _load_verdict(p: Presentation, path: str) -> classifier.Verdict:
    """A verdict file, or a bare certificate read as the verdict its kind
    implies.  A file of the wrong shape raises ValueError naming it."""
    obj = json.loads(Path(path).read_text())
    try:
        if "certificate" in obj:
            return classifier.verdict_from_obj(p, obj)
        cert = classifier.certificate_from_obj(p, obj)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"malformed certificate file {path} ({type(exc).__name__}: {exc})"
        ) from None
    return classifier.Verdict(cert.kind == classifier.BOUNDED_DECOMPOSITION, cert)


def _verified_cert(p: Presentation, path: str) -> classifier.Certificate | None:
    """The certificate in the file at path if it passes verify_certificate;
    else None, after a one-line stderr message naming the first failed check."""
    verdict = _load_verdict(p, path)
    report = classifier.verify_certificate(p, verdict)
    failed = next((c for c in report.checks if c.status == "FAIL"), None)
    if failed is None:
        return verdict.certificate
    print(f"gpnorm: certificate fails {failed.name}: {failed.detail}", file=sys.stderr)
    return None


def cmd_classify(ns: argparse.Namespace) -> int:
    p = _load(ns.graph)
    verdict = classifier.classify(p)
    text = json.dumps(classifier.verdict_to_obj(verdict), indent=2, sort_keys=True)
    if ns.out:
        Path(ns.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_nf(ns: argparse.Namespace) -> int:
    _, word = _load_with_words(ns.graph)
    print(word_literal(word(ns.word)))
    return 0


def cmd_norm(ns: argparse.Namespace) -> int:
    p, word = _load_with_words(ns.graph)
    x = word(ns.word)
    cert = None
    if ns.cert:
        cert = _verified_cert(p, ns.cert)
        if cert is None:
            return 2
    orb = _orbit_for(p, word, ns)
    upper = norm_upper(p, x, orb, ns.radius)
    lower = Fraction(0)
    if cert is not None:
        try:
            lower = norm_lower(p, x, cert)
        except ValueError as exc:
            print(f"note: certificate gives no lower bound: {exc}", file=sys.stderr)
    params = {
        "orbit_depth": ns.orbit_depth,
        "len_cap": ns.len_cap,
        "radius": ns.radius,
        "orbit_size": len(orb.elements),
        "orbit_exhausted": orb.frontier_exhausted,
    }
    if _custom_orbit(ns):
        params["custom_orbit"] = True
    _emit(
        {
            "word": word_literal(x),
            "lower": str(lower),
            "upper": upper,
            "params": params,
        }
    )
    return 0


def _write_svg(path: str, rows) -> None:
    """Minimal polyline growth plot: lower bound and known upper bounds."""
    w, h, pad = 480, 320, 40
    ns = [n for n, _, _ in rows]
    vals = [float(lo) for _, lo, _ in rows]
    vals += [float(up) for _, _, up in rows if up is not None]
    top = max(vals + [1.0])
    nmax = max(ns)

    def pt(n, v):
        x = pad + (w - 2 * pad) * (n / nmax)
        y = h - pad - (h - 2 * pad) * (v / top)
        return f"{x:.1f},{y:.1f}"

    lower_pts = " ".join(pt(n, float(lo)) for n, lo, _ in rows)
    upper_pts = " ".join(pt(n, float(up)) for n, _, up in rows if up is not None)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>',
        f'<polyline points="{lower_pts}" fill="none" stroke="blue"/>',
    ]
    if upper_pts:
        parts.append(f'<polyline points="{upper_pts}" fill="none" stroke="red"/>')
    parts.append(
        f'<text x="{pad}" y="{pad - 10}" font-size="12">'
        f"norm bounds vs n (blue lower, red upper)</text>"
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def cmd_distortion(ns: argparse.Namespace) -> int:
    p, word = _load_with_words(ns.graph)
    x = word(ns.word)
    cert = None
    if ns.cert:
        if not Path(ns.cert).exists():  # written first, then verified like any other
            obj = classifier.certificate_to_obj(classifier.classify(p).certificate)
            Path(ns.cert).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        cert = _verified_cert(p, ns.cert)
        if cert is None:
            return 2
    orb = _orbit_for(p, word, ns)
    rows = distortion_table(p, x, cert, ns.nmax, orb, ns.radius)
    _custom_orbit(ns)
    print("n,lower,upper")
    for n, lo, up in rows:
        print(f"{n},{lo!s},{'' if up is None else up}")
    if ns.svg:
        _write_svg(ns.svg, rows)
    return 0


def cmd_classes(ns: argparse.Namespace) -> int:
    p = _load(ns.graph)
    if ns.fmt == "dot":
        sys.stdout.write(cl.hasse_dot(cl.tau_structure(p)))
        sys.stdout.write(p.to_dot(complement=True))
        return 0
    _emit(cl.classes_json_obj(p))
    return 0


def cmd_orbit(ns: argparse.Namespace) -> int:
    p, word = _load_with_words(ns.graph)
    orb = _orbit_for(p, word, ns)
    for w in orb.sorted_elements():
        print(word_literal(w) or "e")
    print(
        f"# size={len(orb.elements)} exhausted={orb.frontier_exhausted} "
        f"depth_used={orb.depth_used} len_cap={orb.length_cap}",
        file=sys.stderr,
    )
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    p = _load(ns.graph)
    verdict = _load_verdict(p, ns.cert)
    report = classifier.verify_certificate(p, verdict)
    _emit(report.to_obj())
    return 0 if report.passed else 2


def cmd_gen_corpus(ns: argparse.Namespace) -> int:
    out = Path(ns.out or "corpus")
    paths = corpus.gen_corpus(out)
    import random

    rng = random.Random(ns.seed)
    for i in range(ns.random_count):
        p = corpus.random_presentation(rng, max_vertices=ns.max_vertices)
        path = out / f"random_{ns.seed}_{i:03d}.json"
        path.write_text(json.dumps(p.to_json_obj(), indent=2, sort_keys=True) + "\n")
        paths.append(path)
    for path in paths:
        print(path)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls."""
    # no abbreviated flags: --seed must not read as --seed-word
    top = _Parser(prog="gpnorm", description=__doc__, allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help_, graph=True, word=False):
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        sp.set_defaults(func=func)
        if graph:
            sp.add_argument("graph", help="presentation JSON file")
        if word:
            sp.add_argument("word", help="word literal, e.g. 'a b^-2'")
        return sp

    sp = add("classify", cmd_classify, "decide boundedness, print verdict + certificate")
    sp.add_argument("--out", default="", help="also write the verdict JSON here")

    add("nf", cmd_nf, "canonical normal form of a word", word=True)

    def orbit_flags(sp):
        sp.add_argument("--orbit-depth", type=int, default=3, help="BFS composition depth")
        sp.add_argument("--len-cap", type=int, default=12, help="orbit exponent-weight cap")
        sp.add_argument("--gen", action="append", default=[], metavar="LIT",
                        help="generator literal (repeatable); default: all Aut0 generators")
        sp.add_argument("--seed-word", action="append", default=[], metavar="WORD",
                        help="orbit seed word (repeatable); default: vertex generators")

    sp = add("norm", cmd_norm, "certified norm interval for a word", word=True)
    orbit_flags(sp)
    sp.add_argument("--radius", type=int, default=4, help="search radius for the upper bound")
    sp.add_argument("--cert", default="",
                    help="certificate JSON for the lower bound (verified first)")

    sp = add("distortion", cmd_distortion, "CSV table n,lower,upper for powers of a word",
             word=True)
    orbit_flags(sp)
    sp.add_argument("--radius", type=int, default=4)
    sp.add_argument("--nmax", type=int, default=6, help="largest power")
    sp.add_argument("--cert", default="",
                    help="certificate JSON (verified first; classified and written here if missing)")
    sp.add_argument("--svg", default="", help="also write an SVG growth plot here")

    sp = add("classes", cmd_classes, "preorders, tau classes, join decomposition")
    sp.add_argument("--format", dest="fmt", choices=["json", "dot"], default="json")

    sp = add("orbit", cmd_orbit, "dump a truncated Aut0 orbit as word literals")
    orbit_flags(sp)

    sp = add("verify", cmd_verify, "check a certificate; exit 0 PASS, 2 FAIL")
    sp.add_argument("cert", help="certificate or verdict JSON file")

    sp = add("gen-corpus", cmd_gen_corpus, "write the named corpus (plus random presentations)",
             graph=False)
    sp.add_argument("--out", default="corpus", help="output directory")
    sp.add_argument("--random", type=int, default=0, dest="random_count",
                    help="number of extra random presentations")
    sp.add_argument("--max-vertices", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0, help="seed of the random presentations")
    return top


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (PresentationError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"gpnorm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
