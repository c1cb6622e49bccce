"""Exact computation with differentially homogeneous polynomials.

The package builds, over the rationals and with zero tolerance, the
invariant theory of truncated invertible series acting on jet polynomials:
invariant bases in every degree and order, the nilpotent-model tensor
picture, the harmonic-polynomial translation with its partial-symmetric
ideals, and the finite catalog of Wronskian generators with its counting,
spanning, and minimality verifications.
"""

from .errors import (
    ConfigError,
    DiffhomError,
    IndexOutOfRangeError,
    InvalidCompositionError,
    InvalidIndexError,
    NonSquareError,
    NotLinearError,
    ResourceLimitError,
    UnmappedVariableError,
    UnsupportedVariableError,
)
from .polynomials import (
    Poly,
    VarId,
    determinant,
    jet_var,
    series_coeff,
    slot_var,
    z_var,
)
from .jets import (
    InvariantBasis,
    JetContext,
    act_series,
    diff_homog_basis,
    is_diff_homogeneous,
    leibniz_image,
    product_lemma_check,
)
from .tensors import (
    Tensor,
    insertion_operator,
    invariant_tensor_basis,
    project_to_symmetric,
    to_harmonic,
    verify_wronskian_basis,
    wronskian,
)
from .harmonic import (
    IdealPresentation,
    Partition,
    YoungTableau,
    balanced_partition,
    dcp_presentation,
    enum_standard_tableaux,
    ik_presentation,
    perp_basis,
    quotient_dimension,
    tableau_vandermonde,
    verify_block_surjectivity,
    verify_dcp_equality,
    verify_spanning,
)
from .catalog import (
    GeneratorCatalog,
    IndexTuple,
    NestedIndex,
    build_catalog,
    build_generator,
    composition_to_function,
    function_to_composition,
    nested_count_formula,
    top_order_indices,
    top_order_nested_indices,
    verify_finite_generation,
    verify_minimality,
    verify_quotient_basis,
    weighted_signature,
)
from .resources import DEFAULT_CAPS, ResourceCaps
from .suite import SuiteConfig, SuiteReport, export, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
