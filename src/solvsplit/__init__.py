"""Exact classifier for Heegaard splittings of torus bundles over the circle.

Given an Anosov monodromy in SL(2,Z), decide the Heegaard genus (2 or 3) and
the number of isotopy classes of irreducible splittings (1 or 2), with exact
witnesses throughout: the unit curve, the conjugation onto a standard form,
centralizer generators, commensurability intertwiners, and the geometry of
the axis on the modular surface.
"""

from .centralizer import (
    CentralizerDescription,
    ReversibilityResult,
    centralizer_description,
    commutes,
    express_power,
    is_reversible,
    standard_form_parameter,
)
from .classification import (
    ClassificationReport,
    InvolutionData,
    SpineDescription,
    StandardFormResult,
    classify,
    splitting_descriptors,
    standard_form,
)
from .commensurability import (
    Intertwiner,
    VirtualConjugacy,
    has_power_with_trace,
    intertwiner,
    virtually_conjugate,
)
from .conjugacy import (
    ConjugacyResult,
    CyclicWord,
    UnitWitness,
    are_conjugate,
    classes_of_trace,
    cyclic_word,
    represent_unit,
)
from .core_algebra import (
    IDENTITY,
    IntMatrix2,
    MonodromyForm,
    PrimitiveSlope,
    apply,
    format_matrix,
    format_slope,
    intersection_number,
    is_anosov,
    mat_pow,
    monodromy_form,
    parse_matrix,
    parse_slope,
    power_trace,
    require_anosov,
)
from .modular_geometry import (
    AlphaArc,
    Geodesic,
    OrthogonalityCertificate,
    QuadraticIrrational,
    alpha_arc,
    axis,
    axis_order2_points,
    hits_order2_cone,
    in_fundamental_domain,
    render_figure,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaArc",
    "CentralizerDescription",
    "ClassificationReport",
    "ConjugacyResult",
    "CyclicWord",
    "Geodesic",
    "IDENTITY",
    "IntMatrix2",
    "Intertwiner",
    "InvolutionData",
    "MonodromyForm",
    "OrthogonalityCertificate",
    "PrimitiveSlope",
    "QuadraticIrrational",
    "ReversibilityResult",
    "SpineDescription",
    "StandardFormResult",
    "UnitWitness",
    "VirtualConjugacy",
    "alpha_arc",
    "apply",
    "are_conjugate",
    "axis",
    "axis_order2_points",
    "centralizer_description",
    "classes_of_trace",
    "classify",
    "commutes",
    "cyclic_word",
    "express_power",
    "format_matrix",
    "format_slope",
    "has_power_with_trace",
    "hits_order2_cone",
    "in_fundamental_domain",
    "intersection_number",
    "intertwiner",
    "is_anosov",
    "is_reversible",
    "mat_pow",
    "monodromy_form",
    "parse_matrix",
    "parse_slope",
    "power_trace",
    "render_figure",
    "represent_unit",
    "require_anosov",
    "splitting_descriptors",
    "standard_form",
    "standard_form_parameter",
    "virtually_conjugate",
]
