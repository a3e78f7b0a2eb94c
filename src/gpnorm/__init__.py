"""gpnorm: invariant word norms in graph products of cyclic groups.

Compute canonical normal forms, automorphism orbits, transvection-class
structure, and boundedness certificates for the Aut-invariant word norm of a
graph product of primary or infinite cyclic groups.
"""

from .automorphisms import (
    AutGen,
    OrbitSet,
    apply_gen,
    aut0_generators,
    orbit,
    parse_generator,
)
from .classes import (
    JoinDecomposition,
    TauStructure,
    join_decomposition,
    lower_cone_violation,
    preorder,
    tau_structure,
)
from .classifier import (
    Certificate,
    Report,
    Verdict,
    classify,
    verify_certificate,
)
from .corpus import gen_corpus, named_presentation, random_presentation, random_word
from .norms import distortion_table, norm_ball, norm_lower, norm_upper
from .presentation import (
    Presentation,
    PresentationError,
    VertexSpec,
    expand_to_primary,
    parse_presentation,
)
from .quasimorphisms import (
    OddFunction,
    SplitQM,
    default_odd_function,
    homogenize,
    make_split_qm,
    split_qm_eval,
)
from .words import (
    IDENTITY,
    NormalWord,
    Syllable,
    commutator,
    exponent_weight,
    generator,
    invert,
    multiply,
    normal_form,
    parse_word,
    power,
    retract,
    word_literal,
)

__version__ = "0.1.0"

__all__ = [
    "AutGen", "OrbitSet", "apply_gen", "aut0_generators",
    "orbit", "parse_generator",
    "JoinDecomposition", "TauStructure",
    "join_decomposition", "lower_cone_violation",
    "preorder", "tau_structure",
    "Certificate", "Report", "Verdict", "classify", "verify_certificate",
    "gen_corpus", "named_presentation", "random_presentation", "random_word",
    "distortion_table", "norm_ball", "norm_lower", "norm_upper",
    "Presentation", "PresentationError", "VertexSpec", "expand_to_primary",
    "parse_presentation",
    "OddFunction", "SplitQM", "default_odd_function",
    "homogenize", "make_split_qm", "split_qm_eval",
    "IDENTITY", "NormalWord", "Syllable", "commutator", "exponent_weight",
    "generator", "invert", "multiply", "normal_form", "parse_word", "power",
    "retract", "word_literal",
]
