"""Constituent multiplicities of generalized parabolic Steinberg modules,
plus formal Tits complexes verified in a Grothendieck group.

``steinberg_multiplicity`` implements the signed support-restricted sum
over a parabolic Weyl group; ``steinberg_multiplicity_oracle`` is the
independent inclusion-exclusion over generalized Verma multiplicities.
Both must agree on every admissible input; the test suite enforces this.
Within one ``analytic_tits_euler_check`` call each route keeps its own
memo dict, so a value is computed once per call but never passed from
one route to the other, and the check stays independent.

``GrothVector`` is a finitely supported integer-valued function on
opaque labels.  The Euler-characteristic checks for the smooth and
analytic Tits complexes are carried out in the Grothendieck group; the
smooth check and ``check_complex_squares_zero`` label block sets by int
bitmasks, block index i being bit i - 1.
"""

from __future__ import annotations

import itertools

from .cosets import BlockSet
from .kl_mult import _parabolic_verma_mult, kl_poly, poly_eval_one
from .weyl_core import (
    BoundExceededError,
    MultiWeyl,
    Perm,
    _Frozen,
    enumerate_group,
    enumerate_parabolic,
    left_ascents,
    length,
    support,
)


# ---------------------------------------------------------------------------
# Grothendieck-group plumbing


class GrothVector:
    """Finitely supported integer combination of opaque labels."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None) -> None:
        self.coeffs = {} if coeffs is None else coeffs

    def __repr__(self) -> str:
        return f"GrothVector(coeffs={self.coeffs!r})"

    def __reduce__(self) -> tuple:
        return GrothVector, (self.coeffs,)

    def add(self, label, c: int = 1) -> "GrothVector":
        new = dict(self.coeffs)
        new[label] = new.get(label, 0) + c
        if new[label] == 0:
            del new[label]
        return GrothVector(new)

    def __add__(self, other: "GrothVector") -> "GrothVector":
        new = dict(self.coeffs)
        for label, c in other.coeffs.items():
            v = new.get(label, 0) + c
            if v:
                new[label] = v
            else:
                new.pop(label, None)
        return GrothVector(new)

    def scale(self, c: int) -> "GrothVector":
        if c == 0:
            return GrothVector()
        return GrothVector({label: c * v for label, v in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrothVector):
            return NotImplemented
        return self.coeffs == other.coeffs


# ---------------------------------------------------------------------------
# Multiplicity formula and oracle


def _check_preconditions(w: MultiWeyl, J: BlockSet, S: BlockSet) -> None:
    if J.r != S.r or J.k != S.k:
        raise ValueError("J and S must share the block shape")
    n = J.n
    for comp in w:
        if len(comp) != n:
            raise ValueError(f"component rank {len(comp)} != {n}")
    if not S.members <= J.members:
        raise ValueError("S must be contained in J")
    # Dominance of the shifted zero weight for the inner roots plus S is
    # NOT enforced as an error: off the dominant range both the formula
    # and the generalized Verma multiplicities vanish automatically, and
    # callers evaluate at one-sided minimal representatives where the
    # condition can fail while the answer is a plain 0.


def steinberg_multiplicity(w: MultiWeyl, J: BlockSet, S: BlockSet) -> int:
    """Multiplicity of the constituent labelled (w, J) inside the
    generalized Steinberg module attached to S: the signed sum of
    Verma-type multiplicities m(w', w) over the elements w' of the
    parabolic on the inner roots plus J whose support outside the inner
    roots lies between the root sets of J minus S and of J, with sign
    (-1)^{l(w') + |outer support blocks minus S|}.

    For S empty the support condition collapses to exact equality with
    the root set of J and the sign to (-1)^{l(w') + |J|}; for general S
    the relaxed sandwich condition is forced by agreement with the
    inclusion-exclusion oracle (an exact algebraic expansion), which the
    exact-equality reading fails for nonempty S.

    The sum runs over w' = (u_1, ..., u_{d_L}) with one u_i per
    embedding, and m(w', w) is the product of the P_{u_i, w_i}(1).  It is
    not multiplied out.  The outer support of w' is the union of the
    outer supports of the u_i, and the parity of l(w') is the xor of
    their parities.  The filter reads only that union, and the sign only
    the union and the parity.  So each component is summed into a table
    keyed by (outer support, parity), and the d_L tables are folded with
    union and xor, multiplying the values.  The folded table gives the
    same integer as the d_L-fold product sum, at a cost linear in d_L
    with at most 2^(|J|+1) keys per table.

    >>> from .cosets import BlockSet
    >>> empty = BlockSet(2, 2)
    >>> steinberg_multiplicity(((1, 2, 3, 4),), empty, empty)
    1
    >>> steinberg_multiplicity(((1, 3, 2, 4),), empty, empty)
    1
    >>> steinberg_multiplicity(((1, 4, 2, 3),), empty, empty)
    0
    >>> steinberg_multiplicity(((3, 4, 1, 2),), empty, empty)
    1
    """
    return _folded_multiplicity(w, J, S, {})


def _component_table(comp: Perm, J: BlockSet, memo: dict) -> dict:
    """{(outer support, length parity): summed P_{u,comp}(1)} over u in
    the parabolic on the inner roots plus J.  ``memo`` keeps the rows of
    each parabolic and each table, so callers that pass one dict share
    them across labels.  Keys hold J's members but not its shape: one
    dict serves one (r, k)."""
    key = J.members
    table = memo.get((comp, key))
    if table is not None:
        return table
    rows = memo.get(key)
    if rows is None:
        inner = J.inner_roots()
        rows = memo[key] = [
            (u, support(u) - inner, length(u) % 2)
            for u in enumerate_parabolic(J.n, inner | J.roots())
        ]
    table = {}
    for u, outer, parity in rows:
        val = poly_eval_one(kl_poly(u, comp))
        if val:
            table[outer, parity] = table.get((outer, parity), 0) + val
    memo[comp, key] = table
    return table


def _folded_multiplicity(w: MultiWeyl, J: BlockSet, S: BlockSet, memo: dict) -> int:
    _check_preconditions(w, J, S)
    lower_roots = frozenset(i * J.r for i in J.members - S.members)
    upper_roots = J.roots()
    s_roots = S.roots()
    folded = {(frozenset(), 0): 1}
    for comp in w:
        step: dict = {}
        for (outer_a, par_a), va in folded.items():
            for (outer_b, par_b), vb in _component_table(comp, J, memo).items():
                key = (outer_a | outer_b, par_a ^ par_b)
                step[key] = step.get(key, 0) + va * vb
        folded = step
    total = 0
    for (outer, parity), val in folded.items():
        if lower_roots <= outer <= upper_roots:
            total += -val if (parity + len(outer - s_roots)) % 2 else val
    return total


def steinberg_multiplicity_oracle(w: MultiWeyl, J: BlockSet, S: BlockSet) -> int:
    """Independent cross-check: inclusion-exclusion over the block sets K
    between S and J of generalized Verma multiplicities, with sign
    (-1)^{|K minus S|}.

    >>> from .cosets import BlockSet
    >>> empty = BlockSet(2, 2)
    >>> steinberg_multiplicity_oracle(((3, 4, 1, 2),), empty, empty)
    1
    >>> steinberg_multiplicity_oracle(((2, 3, 1, 4),), empty, empty)
    0
    """
    return _oracle(w, J, S, {})


def _oracle(w: MultiWeyl, J: BlockSet, S: BlockSet, memo: dict) -> int:
    """``steinberg_multiplicity_oracle`` with ``memo`` passed on to
    ``_parabolic_verma_mult``, so callers that pass one dict build each
    K's rows and per-component sums once.  One dict serves one (r, k)."""
    _check_preconditions(w, J, S)
    extra = sorted(J.members - S.members)
    total = 0
    for t in range(len(extra) + 1):
        for picked in itertools.combinations(extra, t):
            term = _parabolic_verma_mult(J.r, J.k, S.members.union(picked), w, memo)
            total += term if t % 2 == 0 else -term
    return total


class ConstituentLabel(_Frozen):
    """Label (w, J) of a constituent of the module attached to S."""

    __slots__ = ("w", "J", "S")

    def __init__(self, w: MultiWeyl, J: BlockSet, S: BlockSet) -> None:
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "S", S)


def _admissible_labels(
    S: BlockSet, d_L: int, max_len: int | None
) -> list[tuple[MultiWeyl, BlockSet]]:
    if d_L < 1:
        raise ValueError(f"d_L must be at least 1, got {d_L}")
    if max_len is not None and max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    n = S.n
    if max_len is None:
        if n > 6:
            raise BoundExceededError("max_len must be supplied for rank above 6")
        max_len = d_L * n * (n - 1) // 2
    needed = S.inner_roots() | S.roots()
    # Per representative: its length and the block indices among its
    # left ascents, computed once.
    reps = []
    for w in enumerate_group(n):
        ascents = left_ascents(w)
        if needed <= ascents:
            blocks = frozenset(i for i in range(1, S.k) if i * S.r in ascents)
            reps.append(((w,), length(w), blocks))
    # Tuples grow one embedding at a time; lengths are nonnegative, so a
    # prefix over max_len has no admissible extension.
    combos = [((), 0, frozenset())]
    for _ in range(d_L):
        combos = [
            (combo + c, l_combo + l_c, b_combo | b_c)
            for combo, l_combo, b_combo in combos
            for c, l_c, b_c in reps
            if l_combo + l_c <= max_len
        ]
    keyed = []
    for combo, l_combo, blocks in combos:
        extra = sorted(blocks - S.members)
        for t in range(len(extra) + 1):
            for picked in itertools.combinations(extra, t):
                members = S.members | set(picked)
                keyed.append(((l_combo, combo, sorted(members)), BlockSet(S.r, S.k, members)))
    keyed.sort(key=lambda pair: pair[0])
    return [(key[1], J) for key, J in keyed]


def enumerate_constituents(
    S: BlockSet, d_L: int, max_len: int | None = None
) -> list[tuple[ConstituentLabel, int]]:
    """All constituent labels (w, J) with nonzero multiplicity, w running
    over tuples of minimal representatives whose shifted zero weight is
    dominant for the inner roots plus S, with total length at most
    max_len; sorted by (length, one-line lex, J).

    >>> from .cosets import BlockSet
    >>> empty = BlockSet(2, 2)
    >>> out = enumerate_constituents(empty, 1)
    >>> [(lab.w, sorted(lab.J.members), m) for lab, m in out if not lab.J.members]
    [(((1, 2, 3, 4),), [], 1), (((1, 3, 2, 4),), [], 1), (((3, 4, 1, 2),), [], 1)]
    """
    out = []
    memo: dict = {}
    for w, J in _admissible_labels(S, d_L, max_len):
        m = _folded_multiplicity(w, J, S, memo)
        if m != 0:
            out.append((ConstituentLabel(w, J, S), m))
    return out


# ---------------------------------------------------------------------------
# Formal Tits complexes


def tits_differential_sign(K_prime: BlockSet, K: BlockSet) -> int:
    """Sign of the differential component from the K' term to the K term:
    zero unless K' = K plus one extra block index, in which case the sign
    is (-1)^i where i is the 1-based position of the new index in the
    sorted members of K'.

    >>> tits_differential_sign(BlockSet(1, 4, frozenset({1, 3})), BlockSet(1, 4, frozenset({3})))
    -1
    >>> tits_differential_sign(BlockSet(1, 4, frozenset({1, 3})), BlockSet(1, 4, frozenset({1})))
    1
    >>> tits_differential_sign(BlockSet(1, 4, frozenset({1})), BlockSet(1, 4, frozenset({3})))
    0
    """
    return _sign(_mask(K_prime.members), _mask(K.members))


def _mask(members: frozenset[int]) -> int:
    """Block set as an int: block index i is bit i - 1."""
    return sum(1 << (i - 1) for i in members)


def _sign(top: int, bot: int) -> int:
    """``tits_differential_sign`` on bitmasks.  The position of the new
    index among the members of ``top`` is the number of members at or
    below it."""
    new = top ^ bot
    if not new or new & (new - 1) or bot & ~top:
        return 0
    position = (top & ((new << 1) - 1)).bit_count()
    return -1 if position % 2 else 1


def _supermasks(base: int, universe: int):
    """Every mask between ``base`` and ``universe``, by a submask walk
    over the bits outside ``base``."""
    free = universe & ~base
    sub = free
    while True:
        yield base | sub
        if not sub:
            return
        sub = (sub - 1) & free


def smooth_tits_euler_check(I: BlockSet) -> bool:
    """Verify, in Grothendieck-group arithmetic with the class of each
    full induction expanded as the sum of the labels above it, that the
    alternating sum of the complex terms above I collapses to the single
    label of I.

    >>> smooth_tits_euler_check(BlockSet(2, 2))
    True
    >>> smooth_tits_euler_check(BlockSet(1, 4, frozenset({2})))
    True
    """
    universe = (1 << (I.k - 1)) - 1
    base = _mask(I.members)
    total: dict[int, int] = {}
    for K in _supermasks(base, universe):
        sign = -1 if (K ^ base).bit_count() % 2 else 1
        for L in _supermasks(K, universe):
            total[L] = total.get(L, 0) + sign
    return {L: c for L, c in total.items() if c} == {base: 1}


def check_complex_squares_zero(I: BlockSet) -> bool:
    """The sign rule composes to zero: for every pair K'' below K with two
    blocks removed, the signed two-step compositions cancel.

    >>> check_complex_squares_zero(BlockSet(1, 5))
    True
    """
    universe = (1 << (I.k - 1)) - 1
    base = _mask(I.members)
    for top in _supermasks(base, universe):
        free = top & ~base
        removable = [1 << b for b in range(I.k - 1) if free >> b & 1]
        for dropped in itertools.combinations(removable, 2):
            bot = top & ~(dropped[0] | dropped[1])
            acc = sum(_sign(top, top ^ mid) * _sign(top ^ mid, bot) for mid in dropped)
            if acc != 0:
                return False
    return True


def analytic_tits_euler_check(
    S: BlockSet, d_L: int, max_len: int | None = None
) -> bool:
    """Grothendieck-group shadow of exactness of the analytic complex:
    for every admissible label, the inclusion-exclusion over the terms
    equals the direct multiplicity formula.

    The formula and the oracle each keep their own dict for the whole
    call: the formula's holds its ``_component_table``s, the oracle's its
    per-K rows and per-(K, component) alternating sums.  No entry passes
    from one route to the other, so each label's two integers are still
    computed independently.

    >>> analytic_tits_euler_check(BlockSet(2, 2), 1)
    True
    """
    formula_memo: dict = {}
    oracle_memo: dict = {}
    for w, J in _admissible_labels(S, d_L, max_len):
        if _folded_multiplicity(w, J, S, formula_memo) != _oracle(w, J, S, oracle_memo):
            return False
    return True


if __name__ == "__main__":
    import doctest

    doctest.testmod()
