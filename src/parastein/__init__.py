"""Symbolic engine for symmetric-group coset combinatorics,
Kazhdan-Lusztig multiplicities, segment bookkeeping, generalized
Steinberg constituent multiplicities, formal Tits complexes, and an
Ext-dimension rule table."""

from .cosets import (
    BlockSet,
    block_embed,
    coset_matrix,
    double_coset_count_oracle,
    is_in_W_IJ,
    min_double_coset_reps,
    modulus_exponents,
    parse_blockset,
)
from .ext_calc import ExtAnswer, ExtQuery, RepDescriptor, char_group_dim, consistency_check_thm_main, ext_dim
from .kl_mult import kl_poly, parabolic_verma_mult, verma_mult
from .segments import (
    Segment,
    jacquet_decomposition,
    jh_factors,
    orientation_of,
    pi_I_segments,
    pi_base_twists,
    theta_fiber,
)
from .steinberg_mult import (
    ConstituentLabel,
    GrothVector,
    analytic_tits_euler_check,
    check_complex_squares_zero,
    enumerate_constituents,
    smooth_tits_euler_check,
    steinberg_multiplicity,
    steinberg_multiplicity_oracle,
)
from .weyl_core import (
    BoundExceededError,
    MultiWeyl,
    Perm,
    bruhat_leq,
    enumerate_group,
    enumerate_parabolic,
    identity,
    inverse,
    length,
    longest_element,
    multiply,
    parse_perm,
    reduced_word,
    simple_reflection,
    support,
)

__version__ = "0.1.0"
