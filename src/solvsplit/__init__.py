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

# pydoc lists submodule names only through __all__, so derive it from the imports above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith(__name__ + ".")
)
