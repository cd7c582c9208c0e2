"""Exact computation with subgroups of finite windows of products of finite
abelian groups: controllability certificates, socle and height structure, and
synthesis of finite-support generating sets with homomorphic encoders.
"""

from .errors import InputError, UndeterminedAtWindowError, WindowScaleError
from .intlinalg import IntMatrix, SnfResult, smith_normal_form, solve_mixed_modulus
from .window import (
    ComponentGroup,
    Element,
    ProductWindow,
    WindowSubgroup,
    project,
    section,
)
from .templates import (
    FixedGenerator,
    ShiftedGenerator,
    TemplateSpec,
    UnrollResult,
    closure_window,
    unroll_template,
)
from .torsion import (
    PrimaryDecomposition,
    PrimaryPart,
    height,
    primary_decompose,
    socle_subgroup,
)
from .control import (
    Certificate,
    certify,
    controllability_certificate,
    is_rectangular,
    is_weakly_controllable,
    is_weakly_observable,
    order_controllability_certificate,
)
from .synthesis import (
    Block,
    CombinedEncoder,
    Encoder,
    GeneratingSet,
    SynthesisResult,
    check_implicit_direct_product,
    encode,
    represent,
    synthesize,
    synthesize_p,
    verify_block_properties,
    verify_isomorphic_encoder,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Certificate",
    "CombinedEncoder",
    "ComponentGroup",
    "Element",
    "Encoder",
    "FixedGenerator",
    "GeneratingSet",
    "InputError",
    "IntMatrix",
    "PrimaryDecomposition",
    "PrimaryPart",
    "ProductWindow",
    "ShiftedGenerator",
    "SnfResult",
    "SynthesisResult",
    "TemplateSpec",
    "UndeterminedAtWindowError",
    "UnrollResult",
    "WindowScaleError",
    "WindowSubgroup",
    "certify",
    "check_implicit_direct_product",
    "closure_window",
    "controllability_certificate",
    "encode",
    "height",
    "is_rectangular",
    "is_weakly_controllable",
    "is_weakly_observable",
    "order_controllability_certificate",
    "primary_decompose",
    "project",
    "represent",
    "section",
    "smith_normal_form",
    "socle_subgroup",
    "solve_mixed_modulus",
    "synthesize",
    "synthesize_p",
    "unroll_template",
    "verify_block_properties",
    "verify_isomorphic_encoder",
]
