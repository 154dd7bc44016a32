"""Constituent multiplicities of generalized parabolic Steinberg modules,
plus formal Tits complexes verified in a Grothendieck group.

``steinberg_multiplicity`` implements the signed support-restricted sum
over a parabolic Weyl group; ``steinberg_multiplicity_oracle`` is the
inclusion-exclusion over generalized Verma multiplicities.  Both must
agree on every admissible input; the test suite enforces this.  They
read the same ``kl_poly`` values (a component's alternating sum over K
is the sum of its formula table inside K minus S), so their agreement
checks supports, signs, cuts and the fold, not the values; the tests
check those by Deodhar's parabolic KL polynomials and the W-graph.

Block sets are int bitmasks, block index i being bit i - 1, from label
generation through both routes; ``BlockSet``s are built only at the
public boundary.  A label (w, J) of the module attached to S travels as
w and the mask of J minus S; w's labels are the J between S and J_top,
S plus the ascent blocks of w, and both routes take the mask of J_top
minus S.  Both routes are symmetric in the d_L components of w, one per
embedding of L: the formula's fold is a commutative OR-convolution, the
oracle's multiplicity a product over components, and J_top and the
length do not see their order.  So ``analytic_tits_euler_check`` walks
one w per multiset of components and folds and transforms each, and
``enumerate_constituents`` lists every w but folds each multiset once
and hands its values to every ordering.  The formula OR-folds the
components' tables, keyed by outer support minus S, and reads each
label with one lookup.  A call keeps each component's table with the
top it covers, and each cut of it to a J_top, so a table serves every
top inside its own and is rebuilt only for one that is not; the folds
do not depend on the order of the calls.  The oracle's generalized
Verma multiplicity at K is the product over the components c of their
alternating sums a_K(c), so it builds once per call, for each J_top and
component, the vector of a_K(c) over the K between S and J_top, kept
beside that cube's sign vector.  A w's oracle values are then one
entrywise product of the signs and its components' vectors, summed over
every K below each J by one subset-sum transform.  Each route keeps its
own per-call dict, so a value is computed once per call but never
passed from one route to the other.
The smooth Euler check is the same transform on a signed indicator, and
``check_complex_squares_zero`` keeps its signs as int bitsets.  All
three list masks in cube order (``_cube``), where flipping a block flips
one bit of the list index, so the transform is list arithmetic.
``GrothVector``, a finitely supported integer-valued function on opaque
labels, is used by no check, and only its ``add`` remains: that is the
name ``perfbench/tracing.py`` traces, and the record goes once the tracer
no longer names it (ROADMAP items 1 and 11).
"""

from __future__ import annotations

import itertools
from operator import itemgetter, mul

from .cosets import BlockSet, _mask, _members, _parabolic_roots
from .kl_mult import _check_ranks, _parabolic_verma_mult, kl_poly
from .weyl_core import (
    DEFAULT_ENUM_BOUND,
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


# The most w that one label listing holds; they are counted before any is
# built.  On a shared 2-vCPU Intel Xeon host (CPython 3.11.7),
# (r, k, d_L) = (1, 4, 4) has 331,776 w, built in 1.1 s within 89 MB, and
# (1, 5, 3) has 1,728,000 w and 21 million labels, built in 9.6 s and 375 MB
# before any check ran.  2^20 admits the first and rejects the second.
MAX_LABEL_WS = 1 << 20


# ---------------------------------------------------------------------------
# Grothendieck-group plumbing


class GrothVector(_Frozen):
    """Finitely supported integer combination of opaque labels."""

    __slots__ = ("coeffs",)

    def add(self, label, c: int = 1) -> "GrothVector":
        new = dict(self.coeffs)
        new[label] = new.get(label, 0) + c
        if new[label] == 0:
            del new[label]
        return GrothVector(new)


# ---------------------------------------------------------------------------
# Multiplicity formula and oracle


def _check_preconditions(w: MultiWeyl, J: BlockSet, S: BlockSet) -> None:
    if J.r != S.r or J.k != S.k:
        raise ValueError("J and S must share the block shape")
    _check_ranks(w, J.n)
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
    not multiplied out.  Outer supports are block bitmasks, block i being
    bit i - 1.  The outer support of w' is the OR of those of the u_i,
    and (-1)^{l(w')} is the product of the (-1)^{l(u_i)}.  So each
    component is summed into a signed table {outer mask minus S: sum of
    (-1)^{l(u)} P_{u,w_i}(1)}, and the d_L tables are folded by an
    OR-convolution into G(P), the signed sum over the w' whose outer
    support O has O minus S = P (masking off S commutes with OR).  Since
    S lies in J, the O between J minus S and J are exactly the O with
    O minus S = J minus S, and each has |O minus S| = |J minus S|, so

        m(w, J, S) = (-1)^{|J minus S|} * G(J minus S),

    one lookup, with no sum over the submasks of S.

    The fold over a larger J' gives the same G(P) for every P inside
    J minus S: an O with O minus S = P lies in J, the u of the parabolic
    on the inner roots plus J are the u of the one on the inner roots
    plus J' whose outer support lies in J, and an OR of masks lies in J
    exactly when each mask does.  So ``enumerate_constituents`` and
    ``analytic_tits_euler_check`` fold each multiset of components once,
    over the mask of J_top minus S, and read every label (w, J) off that
    fold.  This function folds over its own J.

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
    _check_preconditions(w, J, S)
    extra = _mask(J.members - S.members)
    return _read_fold(_fold(w, S, extra, {}), extra)


def _component_table(comp: Perm, S: BlockSet, top: int, memo: dict) -> dict:
    """{outer mask minus S: sum of (-1)^{l(u)} P_{u,comp}(1)} over u in
    the parabolic on the inner roots plus S plus the blocks of ``top``, a
    mask of blocks outside S, or over a larger such parabolic.  ``memo``
    keeps the rows (u, outer mask minus S, l(u)) of each parabolic, under
    its mask, and each component's table with the mask it covers, under
    the component; ``_fold`` keeps its cuts in the same dict.  A kept
    table is returned if its mask holds ``top`` and rebuilt over the
    union of the two masks if not, so it never lacks a u of the parabolic
    asked for.  A u other than ``comp`` and at least as long is not below
    it, so its P_{u,comp} = 0 is skipped without a KL lookup.  One dict
    serves one S.  A table covers only the tops asked for, since a fold
    reads nothing outside its top: whole-support tables took the cold
    (1,6) d_L = 1 analytic check from 8.6 s to 31 s (KL memo 35,231 to
    98,166 entries) and ``steinberg-mult --r 1 --k 7 --w
    "[4,5,6,7,1,2,3]" --J - --S -`` from 0.5 s to 2.3-2.7 s in process
    (2-vCPU Xeon, CPython 3.11)."""
    entry = memo.get(comp)
    if entry is not None:
        covered, table = entry
        if not top & ~covered:
            return table
        top |= covered
    rows = memo.get(top)
    if rows is None:
        r, s_mask = S.r, _mask(S.members)
        rows = memo[top] = [
            (u, sum(1 << (i // r - 1) for i in support(u) if i % r == 0) & ~s_mask, length(u))
            for u in enumerate_parabolic(S.n, _parabolic_roots(r, S.k, s_mask | top))
        ]
    table = {}
    l_comp = length(comp)
    for u, outer, l_u in rows:
        if l_u >= l_comp and u != comp:
            continue
        val = sum(kl_poly(u, comp))
        if val:
            table[outer] = table.get(outer, 0) + (-val if l_u % 2 else val)
    memo[comp] = top, table
    return table


def _fold(w: MultiWeyl, S: BlockSet, top: int, memo: dict) -> dict:
    """G: the OR-convolution of the components' ``_component_table``s at
    the masks inside ``top``, the mask of J_top minus S.  An OR only adds
    bits, so an entry with a bit outside ``top`` reaches no mask inside
    it: each table is cut down to ``top`` before it is folded.  The cut,
    a list of (mask, value) pairs, is made once per (``top``, component)
    and kept in ``memo`` under that pair, beside the tables, so the w
    that share a J_top and a component share it."""
    cuts = []
    for comp in w:
        cut = memo.get((top, comp))
        if cut is None:
            cut = memo[top, comp] = [
                (outer, v)
                for outer, v in _component_table(comp, S, top, memo).items()
                if not outer & ~top
            ]
        cuts.append(cut)
    folded = dict(cuts[0])
    for cut in cuts[1:]:
        step: dict = {}
        for outer_a, va in folded.items():
            for outer_b, vb in cut:
                key = outer_a | outer_b
                step[key] = step.get(key, 0) + va * vb
        folded = step
    return folded


def _read_fold(folded: dict, extra: int) -> int:
    """m(w, J, S) from w's fold, with ``extra`` the mask of J minus S."""
    m = folded.get(extra, 0)
    return -m if extra.bit_count() % 2 else m


def steinberg_multiplicity_oracle(w: MultiWeyl, J: BlockSet, S: BlockSet) -> int:
    """Second route over the same KL values: inclusion-exclusion over the
    block sets K between S and J of generalized Verma multiplicities,
    with sign (-1)^{|K minus S|}.  The sum is read off ``_oracle_values``
    over the K between S and J, the transform that
    ``analytic_tits_euler_check`` runs once per multiset of components.

    >>> from .cosets import BlockSet
    >>> empty = BlockSet(2, 2)
    >>> steinberg_multiplicity_oracle(((3, 4, 1, 2),), empty, empty)
    1
    >>> steinberg_multiplicity_oracle(((2, 3, 1, 4),), empty, empty)
    0
    """
    _check_preconditions(w, J, S)
    extra = _mask(J.members - S.members)
    return _oracle_values(w, S, extra, {})[extra]


def _oracle_values(w: MultiWeyl, S: BlockSet, top: int, memo: dict) -> dict:
    """{mask of J minus S: the oracle's value at (w, J, S)} for every J
    between S and J_top, with ``top`` the mask of J_top minus S.  Each K
    among them gives one signed generalized Verma multiplicity
    F(K) = (-1)^{|K minus S|} m_K(w); the value at J is the sum of F(K)
    over the K inside J.  F is listed in ``_cube`` order over ``top``, and
    one ``_subset_sums`` gives the value at every J at once.

    m_K(w) is the product over the components c of w of the alternating
    sums a_K(c) = ``_parabolic_verma_mult`` on (c,), the factorization
    that ``_parabolic_verma_mult`` itself uses.  So F is the entrywise
    product of the sign vector (-1)^{|K minus S|} and, per component, the
    vector of its a_K(c) over the cube.  ``memo`` keeps under ``top``
    that cube, its sign vector, S's mask and a dict {component: vector},
    each built once per call, and under "verma" the one dict that it
    hands to ``_parabolic_verma_mult``, which only that function writes.
    One dict serves one S."""
    entry = memo.get(top)
    if entry is None:
        cube = _cube(0, top)
        signs = tuple(-1 if extra.bit_count() % 2 else 1 for extra in cube)
        entry = memo[top] = (cube, signs, _mask(S.members), {}, memo.setdefault("verma", {}))
    cube, values, s_mask, vectors, verma = entry
    for comp in w:
        vector = vectors.get(comp)
        if vector is None:
            vector = vectors[comp] = [
                _parabolic_verma_mult(S.r, S.k, s_mask | extra, (comp,), verma) for extra in cube
            ]
        values = list(map(mul, values, vector))
    return dict(zip(cube, _subset_sums(values)))


class ConstituentLabel(_Frozen):
    """Label (w, J) of a constituent of the module attached to S."""

    __slots__ = ("w", "J", "S")

    def __init__(self, w: MultiWeyl, J: BlockSet, S: BlockSet) -> None:
        _set_w(self, w)
        _set_J(self, J)
        _set_S(self, S)


# The slot descriptors' setters, which skip ``_Frozen.__setattr__``: a
# listing builds one label per nonzero (w, J), and through
# ``_Frozen.__init__`` a label takes about three times as long.
_set_w, _set_J, _set_S = (
    ConstituentLabel.w.__set__,
    ConstituentLabel.J.__set__,
    ConstituentLabel.S.__set__,
)


def _label_groups(
    S: BlockSet, d_L: int, max_len: int | None, multisets: bool = False
) -> list[tuple[MultiWeyl, int, list[int]]]:
    """The admissible labels grouped by w, in label order: (w, mask of
    J_top minus S, [mask of J minus S, ...]), where J_top is S plus the
    ascent blocks of w and the J are the block sets between S and J_top.
    Labels sort by (length, one-line lex, sorted members of J), so each
    w's labels are consecutive.  The w with the same J_top share one list
    of masks.  With ``multisets``, only the w whose components do not
    decrease are listed: one w per multiset of components, the first of
    its orderings in label order.  More than ``MAX_LABEL_WS`` w
    raise ``BoundExceededError`` before any prefix is built; the bound
    counts every w, so it is the same with or without ``multisets``."""
    if d_L < 1:
        raise ValueError(f"d_L must be at least 1, got {d_L}")
    if max_len is not None and max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    n = S.n
    if max_len is None:
        if n > 6:
            raise BoundExceededError("max_len must be supplied for rank above 6")
        max_len = d_L * n * (n - 1) // 2
    s_mask = _mask(S.members)
    needed = _parabolic_roots(S.r, S.k, s_mask)
    # Per representative: its length and the mask of the blocks outside S
    # among its left ascents, computed once.
    reps = []
    for w in enumerate_group(n):
        ascents = left_ascents(w)
        if needed <= ascents:
            blocks = sum(1 << (i - 1) for i in range(1, S.k) if i * S.r in ascents)
            reps.append((w, length(w), blocks & ~s_mask))
    # The w are counted before any prefix is built: the representatives'
    # length histogram convolved d_L times, cut at max_len.  e is
    # admissible and has length 0, so the count never falls from one
    # embedding to the next, and the first count over the bound stops.
    # Once a step returns the histogram unchanged, every later step does
    # too, so the count stops there.
    rep_hist: dict[int, int] = {}
    for _, l_c, _ in reps:
        rep_hist[l_c] = rep_hist.get(l_c, 0) + 1
    hist = {0: 1}
    for _ in range(d_L):
        step: dict[int, int] = {}
        for l_a, n_a in hist.items():
            for l_c, n_c in rep_hist.items():
                if l_a + l_c <= max_len:
                    step[l_a + l_c] = step.get(l_a + l_c, 0) + n_a * n_c
        if step == hist:
            break
        hist = step
        if sum(hist.values()) > MAX_LABEL_WS:
            raise BoundExceededError(f"more than {MAX_LABEL_WS} w to list exceeds the label bound")
    # Prefixes grow one embedding at a time, each a chain (shorter prefix,
    # last component) so that a step costs the same at every depth;
    # lengths are nonnegative, so a prefix over max_len has no admissible
    # extension.  Each chain keeps the index in reps from which its next
    # component is taken: 0, or with ``multisets`` that of its last one.
    # reps is in one-line lex order, so those w are the sorted ones, and
    # each step keeps the chains in one-line lex order of their w.
    chains = [((), 0, 0, 0)]
    for _ in range(d_L):
        chains = [
            ((chain, c), l_chain + l_c, b_chain | b_c, i if multisets else 0)
            for chain, l_chain, b_chain, first in chains
            for i, (c, l_c, b_c) in enumerate(reps[first:], first)
            if l_chain + l_c <= max_len
        ]
    # Unchain every w at once: each pass splits off the last component of
    # every chain, so it costs one pass per embedding whatever d_L is.
    # Without the chain list, each pass frees the links it has split.
    links, lengths, blocks, _ = zip(*chains)
    del chains
    columns = []
    for _ in range(d_L):
        links, last = zip(*links)
        columns.append(last)
    # The chains are in lex order, so a stable sort by length alone puts
    # the w in label order.
    combos = sorted(zip(zip(*reversed(columns)), lengths, blocks), key=itemgetter(1))
    # Per distinct J_top: the labels' masks of J minus S, sorted by the
    # members of J.
    by_top: dict[int, list[int]] = {}
    for _, _, top in combos:
        if top not in by_top:
            by_top[top] = sorted(_cube(0, top), key=lambda e: sorted(_members(s_mask | e)))
    return [(combo, top, by_top[top]) for combo, _, top in combos]


def _block_set(S: BlockSet, extra: int, block_sets: dict) -> BlockSet:
    """The J whose mask of J minus S is ``extra``, taken from
    ``block_sets`` (extra -> J), or built and put there."""
    J = block_sets.get(extra)
    if J is None:
        J = block_sets[extra] = BlockSet(S.r, S.k, S.members | _members(extra))
    return J


def enumerate_constituents(
    S: BlockSet, d_L: int, max_len: int | None = None
) -> list[tuple[ConstituentLabel, int]]:
    """All constituent labels (w, J) with nonzero multiplicity, w running
    over tuples of minimal representatives whose shifted zero weight is
    dominant for the inner roots plus S, with total length at most
    max_len; sorted by (length, one-line lex, J).  The orderings of one
    multiset of components share their values and their labels' masks,
    so the first in label order is folded, and its nonzero labels' (J, m)
    pairs, kept in a per-call dict keyed by the sorted components, serve
    the rest: each ordering then builds only its labels.

    >>> from .cosets import BlockSet
    >>> empty = BlockSet(2, 2)
    >>> out = enumerate_constituents(empty, 1)
    >>> [(lab.w, sorted(lab.J.members), m) for lab, m in out if not lab.J.members]
    [(((1, 2, 3, 4),), [], 1), (((1, 3, 2, 4),), [], 1), (((3, 4, 1, 2),), [], 1)]
    """
    memo: dict = {}
    by_multiset: dict[MultiWeyl, list[tuple[BlockSet, int]]] = {}
    block_sets: dict[int, BlockSet] = {}
    out = []
    for w, top, extras in _label_groups(S, d_L, max_len):
        key = tuple(sorted(w))
        nonzero = by_multiset.get(key)
        if nonzero is None:
            folded = _fold(w, S, top, memo)
            nonzero = by_multiset[key] = [
                (_block_set(S, extra, block_sets), m)
                for extra in extras
                if (m := _read_fold(folded, extra)) != 0
            ]
        out += [(ConstituentLabel(w, J, S), m) for J, m in nonzero]
    return out


# ---------------------------------------------------------------------------
# Formal Tits complexes


def _sign(top: int, bit: int) -> int:
    """Sign of the Tits step that removes the block ``bit`` from the term
    of block mask ``top`` (block i is bit i - 1, and ``bit`` is one of
    ``top``'s bits): (-1)^i, with i the 1-based position of the removed
    block among the blocks of ``top``, that is the number of them at or
    below it."""
    return -1 if (top & ((bit << 1) - 1)).bit_count() % 2 else 1


def _cube(base: int, free: int) -> list[int]:
    """Every mask between ``base`` and ``base | free``, in cube order:
    bit p of a list index stands for the p-th lowest bit of ``free``, so
    index i ^ 2**p holds the mask with that bit flipped.  That is the
    increasing order of the submasks of ``free``: sub -> (sub - free) &
    free steps from one to the next.

    >>> _cube(0b100, 0b011)
    [4, 5, 6, 7]
    """
    masks = [base]
    sub = free & -free
    while sub:
        masks.append(base | sub)
        sub = (sub - free) & free
    return masks


def _subset_sums(values: list) -> list:
    """The subset-sum (zeta) transform, in place, of a list in ``_cube``
    order: each entry becomes the sum of the old entries at the submasks
    of its index.  Per stride h, each pair (j, j + h) with j & h zero is
    added once, f * 2^(f - 1) additions for 2^f entries against 3^f for
    a sum per entry (Bjorklund, Husfeldt, Kaski and Koivisto, Fourier
    meets Mobius, STOC 2007).  The outer loop runs over the fewer of the
    h offsets and the blocks of 2h."""
    size = len(values)
    half = 1
    while half < size:
        step = 2 * half
        if half * step <= size:
            for low in range(half):
                for j in range(low, size, step):
                    values[j + half] += values[j]
        else:
            for start in range(0, size, step):
                for j in range(start, start + half):
                    values[j + half] += values[j]
        half = step
    return values


def smooth_tits_euler_check(I: BlockSet) -> bool:
    """Verify, in Grothendieck-group arithmetic with the class of each
    full induction expanded as the sum of the labels above it, that the
    alternating sum of the complex terms above I collapses to the single
    label of I: the subset-sum transform of the signed indicator
    (-1)^{|K minus I|} on the K above I is the indicator of I.

    In ``_cube`` order |K minus I| is the bit count of K's index, so the
    indicator is [1] doubled once per free block, each new half negated,
    and its transform must be [1, 0, ..., 0].  It has 2^(k-1-|I|)
    entries, so k is held to the enumeration bound, as in ``jh_factors``.

    >>> smooth_tits_euler_check(BlockSet(2, 2))
    True
    >>> smooth_tits_euler_check(BlockSet(1, 4, frozenset({2})))
    True
    """
    if I.k > DEFAULT_ENUM_BOUND:
        raise BoundExceededError(f"k = {I.k} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    signs = [1]
    for _ in range(I.k - 1 - len(I.members)):
        signs += [-sign for sign in signs]
    return _subset_sums(signs) == [1] + [0] * (len(signs) - 1)


def check_complex_squares_zero(I: BlockSet) -> bool:
    """The sign rule composes to zero: every step that removes one block
    has sign +1 or -1, and for every pair K'' below K with two blocks
    removed, the signed two-step compositions cancel.

    Each free block (one not in I) gets one pass, over the tops that
    hold it (a ``_cube`` over the other free blocks), so each of the
    f * 2^(f - 1) steps is signed once, by ``_sign(top, bit)``, and no
    top is visited for a block it lacks.  The squares are then checked
    a pair of free blocks at a time, by int bitset operations.  The
    bitsets span 2^(k-1) tops, so k is held to the enumeration bound.

    >>> check_complex_squares_zero(BlockSet(1, 5))
    True
    """
    if I.k > DEFAULT_ENUM_BOUND:
        raise BoundExceededError(f"k = {I.k} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    universe = (1 << (I.k - 1)) - 1
    base = _mask(I.members)
    free = [1 << b for b in range(I.k - 1) if not base >> b & 1]
    # Int bitsets over the tops, bit ``top`` standing for the mask top:
    # per free bit, the tops that hold it and the tops whose step
    # removing it has sign -1.  Every second step is a first step from
    # a smaller top.
    holds, negative = {}, {}
    for bit in free:
        pos = neg = 0
        for top in _cube(base | bit, universe & ~(base | bit)):
            sign = _sign(top, bit)
            if sign == 1:
                pos |= 1 << top
            elif sign == -1:
                neg |= 1 << top
            else:
                return False
        holds[bit], negative[bit] = pos | neg, neg
    for a, b in itertools.combinations(free, 2):
        # From a top holding a and b, the routes removing a then b and b
        # then a cancel when an odd number of their four steps is -1.  The
        # step removing b from top minus a is bit top - a of negative[b],
        # so bit top of negative[b] << a.
        odd = negative[a] ^ negative[b] ^ (negative[b] << a) ^ (negative[a] << b)
        if holds[a] & holds[b] & ~odd:
            return False
    return True


def analytic_tits_euler_check(
    S: BlockSet, d_L: int, max_len: int | None = None
) -> bool:
    """Grothendieck-group shadow of exactness of the analytic complex:
    for every admissible label, the inclusion-exclusion over the terms
    equals the direct multiplicity formula.

    Both routes are symmetric in the components of w, so the labels are
    walked once per multiset of components: one w with sorted components
    stands for all its orderings (``_label_groups`` with ``multisets``).
    The label bound still counts every w.  For each such w, both routes
    take the mask of J_top minus S: the formula OR-folds its component
    tables and reads every label off that fold (see
    ``steinberg_multiplicity``), and the oracle runs one subset-sum
    transform of its signed generalized Verma multiplicities over the K
    between S and J_top (``_oracle_values``); the two are then compared
    label by label.  Each walked w is its own sorted multiset, so no value
    is kept from one w to the next.  The symmetry itself is checked by the
    test suite, on both routes and every ordering.  The formula and the
    oracle each keep their own dict for the whole call, and no entry
    passes from one route to the other.  Both read the same ``kl_poly``
    values, though, so the check tests the supports, signs, cuts and the
    fold, not those values (see the module docstring).

    >>> analytic_tits_euler_check(BlockSet(2, 2), 1)
    True
    """
    formula_memo: dict = {}
    oracle_memo: dict = {}
    for w, top, extras in _label_groups(S, d_L, max_len, multisets=True):
        folded = _fold(w, S, top, formula_memo)
        oracle = _oracle_values(w, S, top, oracle_memo)
        for extra in extras:
            if _read_fold(folded, extra) != oracle[extra]:
                return False
    return True
