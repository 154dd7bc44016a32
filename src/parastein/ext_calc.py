"""Rule-table calculator for Hom/Ext dimensions.

Queries name a flavor (smooth or analytic), whether the center is fixed,
a cohomological degree, and two representation descriptors; answers are
an exact dimension, a structured zero, or the explicit outcome
"not-determined" (never a silent 0).  Every numeric answer cites the
internal rule anchor (R1..R11) that produced it.

``ext_dim`` groups the rules by the shape of the descriptor pair, and
the flavor and center pick the anchor inside a group: induction against
induction (R1, R2, R5) shares one refinement test, Steinberg against
induction (R3, R6) one degree shift, and a one-block Steinberg against
sigma or its component (R8, R9) one index test.  The anchors, notes
and statuses are those of a table written flavor by flavor; the
grouping only writes each rule's shape once.  Blocks and indices must
lie in 1..k-1.
"""

from __future__ import annotations

from math import comb

from .cosets import BlockSet
from .weyl_core import _Frozen


KINDS = ("ind", "steinberg", "st-an", "sigma", "sigma-comp", "constituent", "levi-self")


class RepDescriptor(_Frozen):
    """One side of an Ext query.

    kind is one of ``KINDS``:
      "ind"         - full parabolic induction labelled by a block set
      "steinberg"   - generalized Steinberg module labelled by a block set
      "st-an"       - the full analytic Steinberg module
      "sigma"       - the extension module attached to block index i
      "sigma-comp"  - its (i, sigma) component
      "constituent" - the single constituent attached to (j, sigma)
      "levi-self"   - the inducing module against itself at the Levi level
    """

    __slots__ = ("kind", "blocks", "index", "sigma")

    def __init__(
        self,
        kind: str,
        blocks: frozenset[int] = frozenset(),
        index: int | None = None,
        sigma: int | None = None,
    ) -> None:
        super().__init__(kind, blocks, index, sigma)


class ExtQuery(_Frozen):
    __slots__ = ("flavor", "fixed_center", "degree", "left", "right", "r", "k", "d_L")

    def __init__(
        self,
        flavor: str,  # "smooth" | "analytic"
        fixed_center: bool,
        degree: int,
        left: RepDescriptor,
        right: RepDescriptor,
        r: int,
        k: int,
        d_L: int,
    ) -> None:
        super().__init__(flavor, fixed_center, degree, left, right, r, k, d_L)


class ExtAnswer(_Frozen):
    __slots__ = ("status", "dim", "rule", "note")

    def __init__(
        self,
        status: str,  # "dimension" | "zero" | "not-determined"
        dim: int | None,
        rule: str,
        note: str = "",
    ) -> None:
        super().__init__(status, dim, rule, note)

    @property
    def value(self) -> int | None:
        if self.status == "dimension":
            return self.dim
        if self.status == "zero":
            return 0
        return None


R1 = "R1:smooth-ind-ind"
R2 = "R2:smooth-ind-ind-fixed-center"
R3 = "R3:smooth-steinberg-ind"
R4 = "R4:smooth-adjacent-steinberg"
R5 = "R5:analytic-ind-ind"
R6 = "R6:analytic-steinberg-ind"
R7 = "R7:analytic-steinberg-full"
R8 = "R8:analytic-steinberg-sigma"
R9 = "R9:analytic-steinberg-sigma-component"
R10 = "R10:analytic-steinberg-constituent"
R11 = "R11:smooth-levi-self"
R_NONE = "no-rule"


def num_blocks(members: frozenset[int], k: int) -> int:
    """Number of Levi blocks l_I for a block subset of {1, ..., k-1}.

    >>> num_blocks(frozenset(), 4)
    4
    >>> num_blocks(frozenset({1, 2, 3}), 4)
    1
    """
    return k - len(members)


def char_group_dim(kind: str, I: BlockSet, d_L: int) -> int:
    """Dimensions of the character/cocharacter spaces attached to a Levi.

    kind: HomL (continuous characters of L^x), HomLsmooth (its smooth
    line), HomLsigma (the two-dimensional sigma-part), HomZI / HomZIbar
    (characters of the center of the Levi, full / modulo the ambient
    center), XstarLI / XstarLIbar (algebraic character lattices).

    >>> char_group_dim("HomL", BlockSet(2, 2), 1)
    2
    >>> char_group_dim("HomZIbar", BlockSet(1, 3, frozenset({2})), 3)
    4
    >>> char_group_dim("XstarLI", BlockSet(2, 2, frozenset({1})), 1)
    1
    """
    l_I = num_blocks(I.members, I.k)
    table = {
        "HomL": d_L + 1,
        "HomLsmooth": 1,
        "HomLsigma": 2,
        "HomZI": l_I * (d_L + 1),
        "HomZIbar": (l_I - 1) * (d_L + 1),
        "XstarLI": l_I,
        "XstarLIbar": l_I - 1,
    }
    if kind not in table:
        raise ValueError(f"unknown character-group kind: {kind}")
    return table[kind]


def _dim(value: int, rule: str, note: str = "") -> ExtAnswer:
    return ExtAnswer("dimension", value, rule, note)


def _zero(rule: str) -> ExtAnswer:
    return ExtAnswer("zero", None, rule)


def _open(rule: str = R_NONE, note: str = "") -> ExtAnswer:
    return ExtAnswer("not-determined", None, rule, note)


def _analytic_e_dim(l_J: int, degree: int, d_L: int, fixed_center: bool, rule: str) -> ExtAnswer:
    """Dimension of the analytic character space of a block set with l_J
    blocks at the given degree, where it is pinned down (degree 0 always;
    degree 1 for the full set, l_J = 1, and for two blocks when the center
    is fixed).  Determined answers cite ``rule``; open ones cite R5."""
    if degree == 0:
        return _dim(1, rule)
    if degree > 1:
        return _open(R5, "higher degrees not pinned down")
    if fixed_center and l_J == 1:
        return _dim(0, rule, "character lattice trivial modulo the center")
    if l_J == (2 if fixed_center else 1):
        return _dim(d_L + 1, rule)
    return _open(R5, "degree-1 space not pinned down for this block set")


def ext_dim(q: ExtQuery) -> ExtAnswer:
    """Apply the first matching rule of the table; see the module
    docstring for the outcome contract.  A descriptor whose kind is not
    in ``KINDS``, whose blocks are not inside 1..k-1, or whose sigma,
    sigma-comp or constituent index is not in 1..k-1, names no
    representation and raises ValueError.

    >>> st = RepDescriptor("steinberg", frozenset({2}))
    >>> full = RepDescriptor("st-an")
    >>> ext_dim(ExtQuery("analytic", False, 1, st, full, 3, 3, 2)).value
    3
    """
    if q.flavor not in ("smooth", "analytic"):
        raise ValueError(f"unknown flavor: {q.flavor}")
    if q.degree < 0:
        raise ValueError(f"degree must be nonnegative, got {q.degree}")
    if q.r < 1 or q.k < 1:
        raise ValueError("r and k must be positive")
    if q.d_L < 1:
        raise ValueError(f"d_L must be at least 1, got {q.d_L}")
    L, R = q.left, q.right
    k = q.k
    full = frozenset(range(1, k))
    for rep in (L, R):
        if rep.kind not in KINDS:
            raise ValueError(f"unknown descriptor kind: {rep.kind}")
        BlockSet(q.r, k, rep.blocks)  # raises on blocks outside 1..k-1
        if rep.kind in ("sigma", "sigma-comp", "constituent") and rep.index not in full:
            raise ValueError(f"{rep.kind} index {rep.index} out of range 1..{k - 1}")
    analytic = q.flavor == "analytic"

    if L.kind == "ind" and R.kind == "ind":
        # R1, R2, R5: vanish unless the right label refines the left.
        rule = R5 if analytic else R2 if q.fixed_center else R1
        if not R.blocks <= L.blocks:
            return _zero(rule)
        if analytic:
            return _analytic_e_dim(num_blocks(R.blocks, k), q.degree, q.d_L, q.fixed_center, R5)
        if not q.fixed_center:
            return _dim(comb(num_blocks(R.blocks, k), q.degree), R1)
        # R2: fixed center, pinned down for the two extreme shapes.
        if R.blocks == full or num_blocks(R.blocks, k) == 2:
            return _dim(comb(num_blocks(R.blocks, k) - 1, q.degree), R2)
        return _open(R2, "fixed-center dimensions known only for the extreme shapes")
    if L.kind == "steinberg" and R.kind == "ind" and (analytic or not q.fixed_center):
        # R3 (smooth, free center), R6 (analytic): degree shift by the
        # codimension of the left label.
        rule = R6 if analytic else R3
        shifted = q.degree - (k - 1 - len(L.blocks))
        if L.blocks | R.blocks != full or shifted < 0:
            return _zero(rule)
        if analytic:
            return _analytic_e_dim(num_blocks(R.blocks, k), shifted, q.d_L, q.fixed_center, R6)
        return _dim(comb(num_blocks(R.blocks, k), shifted), R3)
    if L.kind == "steinberg" and R.kind == "steinberg" and not analytic:
        extra = L.blocks - R.blocks
        if R.blocks <= L.blocks and len(extra) == 1:
            # R4: adjacent pair, one dimension in degree 1 only.
            if q.degree == 1:
                return _dim(1, R4)
            return _zero(R4)
        return _open(R_NONE, "only adjacent Steinberg pairs are pinned down")
    if "levi-self" in (L.kind, R.kind) and not analytic:
        # R11: self-extensions at the Levi level.
        blocks = L.blocks if L.kind == "levi-self" else R.blocks
        return _dim(comb(num_blocks(blocks, k), q.degree), R11)
    if L.kind == "steinberg" and len(L.blocks) == 1 and analytic:
        (i,) = L.blocks
        if R.kind == "st-an":
            # R7: one-dimensional-label Steinberg against the full module.
            if q.degree == 1:
                return _dim(q.d_L + 1, R7)
            return _open(R7, "only degree 1 is pinned down")
        if R.kind in ("sigma", "sigma-comp"):
            # R8, R9: the module and its component, pinned down at the
            # matching index in degree 1.
            rule, dim = (R8, q.d_L + 1) if R.kind == "sigma" else (R9, 2)
            if q.degree == 1 and R.index == i:
                return _dim(dim, rule)
            return _open(rule, "only the matching index in degree 1 is pinned down")
        if R.kind == "constituent":
            # R10
            if q.degree == 1:
                if R.index == i:
                    return _dim(1, R10)
                return _zero(R10)
            return _open(R10, "only degree 1 is pinned down")
    return _open()


def consistency_check_thm_main(r: int, k: int, d_L: int) -> bool:
    """The headline degree-1 dimension d_L + 1 must equal the fixed-center
    character-space dimension of every two-block Levi.

    >>> consistency_check_thm_main(2, 2, 1)
    True
    >>> consistency_check_thm_main(1, 5, 3)
    True
    >>> consistency_check_thm_main(1, 1, 2)
    True
    """
    for i in range(1, k):
        members = frozenset(range(1, k)) - {i}
        I = BlockSet(r, k, members)
        if char_group_dim("HomZIbar", I, d_L) != d_L + 1:
            return False
    return True
