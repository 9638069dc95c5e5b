"""k-profiles of small graphs: enumeration, flags and distinguisher sets."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import (
    combinations,
    combinations_with_replacement,
    compress,
    count,
    repeat,
    starmap,
)
from operator import and_, itemgetter, ne, not_
from typing import Optional

from .core import (
    DEFAULT_MAX_K,
    DEFAULT_MAX_N,
    Graph,
    Separation,
    canonical,
    enumerate_separations,
    iter_bits,
    sep_sort_key,
    separation_to_json,
    small_separators,
    star,
    vertices_of,
)
from .errors import CertificationError, PreconditionError

DEFAULT_MAX_SK = 64

_swapped = itemgetter(1, 0)  # (a, b) ↦ (b, a)
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary digits as 0/1 bytes


@dataclass(frozen=True)
class Profile:
    """A consistent orientation of S_k satisfying the profile property.

    `chosen` keeps the order it is given, and equality compares that
    order. `enumerate_k_profiles` gives the members in S_k order (that of
    `enumerate_separations`), which is the order of `to_json`.

    A member (X, V) with X ≠ V is trivial; at k = 3 most of S_k is. The
    other members, (V, V) among them, are kept once, in the order of
    `chosen`, as `_nontrivial`: `is_robust` and `efficient_distinguishers`
    scan them and meet the trivial members through lookups in `_members`
    (`is_robust` reads them all only when 3(k − 1) ≥ 2|V| + 2). V is read
    off the first member, as A ∪ B = V for every separation (A, B) of the
    graph.
    """

    k: int
    chosen: tuple[Separation, ...]
    _members: frozenset = field(init=False, compare=False, repr=False, hash=False)
    _nontrivial: tuple = field(init=False, compare=False, repr=False, hash=False)

    def __post_init__(self):
        chosen = self.chosen
        object.__setattr__(self, "_members", frozenset(chosen))
        verts = chosen[0][0] | chosen[0][1] if chosen else 0
        nontrivial = tuple([x for x in chosen if x[1] != verts or x[0] == verts])
        object.__setattr__(self, "_nontrivial", nontrivial)

    def __contains__(self, x: Separation) -> bool:
        return x in self._members

    def orients(self, s: Separation) -> Optional[Separation]:
        """The orientation this profile gives to the underlying separation of s."""
        if s in self._members:
            return s
        if star(s) in self._members:
            return star(s)
        return None

    def is_regular(self, g: Graph) -> bool:
        return not any(x.a == g.vertices for x in self.chosen)

    def to_json(self) -> dict:
        return {"k": self.k, "oriented": [separation_to_json(x) for x in self.chosen]}


def is_consistent(chosen) -> bool:
    """No two members x, y with distinct underlying separations and x* ≤ y."""
    pairs = [(x[0], x[1]) for x in chosen]
    for xa, xb in pairs:
        for ya, yb in pairs:
            if (ya == xa and yb == xb) or (ya == xb and yb == xa):
                continue
            # x* = (xb, xa) ≤ (ya, yb)
            if not (xb & ~ya) and not (yb & ~xa):
                return False
    return True


def satisfies_profile_property(chosen) -> bool:
    """Property (P): for no members x, y is (x* ∧ y*) again a member."""
    pairs = [(x[0], x[1]) for x in chosen]
    members = set(pairs)
    for xa, xb in pairs:
        for ya, yb in pairs:
            # x* ∧ y* = (xb ∩ yb, xa ∪ ya)
            if (xb & yb, xa | ya) in members:
                return False
    return True


def is_profile(g: Graph, k: int, chosen, s_k=None) -> bool:
    """Definitional check: `chosen` is an orientation of S_k(g), consistent,
    with property (P)."""
    if s_k is None:
        s_k = enumerate_separations(g, k, max_n=g.n, max_k=k)
    if len(chosen) != len(s_k):
        return False
    if {canonical(x) for x in chosen} != set(s_k):
        return False
    return is_consistent(chosen) and satisfies_profile_property(chosen)


def _leaves_are_profiles(g: Graph, s_k, slots, leaves) -> bool:
    """Definitional check of every leaf of a profile search at once.

    `slots` lists both orientations of each separation of S_k (slot 2i and
    its inverse 2i + 1) and a leaf is an int of slot bits. Every leaf must
    hold exactly one slot of every separation, no two members x, y with
    distinct underlying separations and x* ≤ y, and no members x, y with
    x* ∧ y* again a member. Both relations are symmetric in x and y. The
    tables are built once for the union U of the leaves' members, in
    bulk, and only as far as they are read.

    A member (X, V) of U is free when X lies inside no B of a member
    (V, B) of U, so X ≠ V, as (V, V) would be such a member; every other
    member is proper. A profile search at k ≥ 3 holds no (V, B) at all
    (see `enumerate_k_profiles`), so every (X, V) of its leaves is free.

    Two free members are never paired. Members x = (X, V) and y = (Y, V)
    with X, Y ≠ V never clash, since x* ≤ y needs V ⊆ Y. Their meet
    x* ∧ y* = (V, X ∪ Y) can lie in a leaf only if it lies in U, as a
    member (V, B) with X, Y ⊆ B = X ∪ Y, and then neither x nor y is free.
    A free member also meets itself in (V, X), which is not in U.

    The one-slot lemma. A leaf that passed the one-slot check holds no
    slot x together with its partner slot x ^ 1. So a test that a leaf
    holds x, y and some slot of a mask t has the same verdict with the
    partners of x and y taken out of t, and a pair (x, x ^ 1) never fails.

    Every test is transposed. Write held(x) for the mask of leaves that
    hold slot x, and held(p) for the union of held(x) over the slots x of
    a mask p. A leaf fails a row (p, q) of member y when it holds y, a slot
    of p and a slot of q, so some leaf fails the row iff
    held(y) & held(p) & held(q) ≠ 0: one AND per row, not one test per
    leaf. held(x) starts as every leaf, and each leaf clears itself from
    the members of U it lacks.

    Proper against proper, over the pairs of U. For proper x and y, x = y
    included, the meet x* ∧ y* is one AND of the codes of x* and y*
    (below), and `held_by_code` maps it to the leaves that hold a member
    with that code; some leaf fails iff held(x) & held(y) & that ≠ 0. By
    the one-slot lemma no meet needs leaving out: one that equals x* or y*
    as a pair is held by no leaf that holds x and y, unless that pair is
    (V, V), whose two slots are one pair; then y = (V, V) lies in the leaf
    and y* ∧ y* = y fails it rightly. x* ≤ y iff the code of x* misses
    the `outside` code of y; the relation is symmetric, so only the y
    after x are tested, and y = x ^ 1 shares no leaf with x. The meets
    run as one chain of C-level iterators over every pair, and the
    clashes as one such chain per x, with no Python step per pair.

    Free against proper, through vertex columns. Lemma: let x = (X, V) be
    free and y = (A, B) a member. (1) x* ≤ y iff A = V and B ⊆ X, since
    x* = (V, X) ≤ (A, B) means V ⊆ A and B ⊆ X. (2) x* ∧ y* =
    (V ∩ B, X ∪ A) = (B, A ∪ X), so it lies in U exactly when U holds a
    member z = (B, D) with D = A ∪ X, that is, with A ⊆ D and
    D ∖ A ⊆ X ⊆ D. When D = A, z is y* as a pair, which never fails a leaf
    by the one-slot lemma, unless y = (V, V); such a leaf already fails on
    the proper pair (y, y).

    (3) Only D = V needs a row. Let a leaf hold x, y and z = (B, D) with
    A ⊊ D ≠ V. If B = V, z = (V, D) is co-small with X ⊆ D, so x is not
    free. Otherwise Z = B ∩ D ≠ V is z's separator, |Z| < k, and
    D ∖ A ⊆ Z, as D ∖ A ⊆ V ∖ A ⊆ B. The leaf holds one orientation of
    {Z, V}. If it holds (Z, V), it fails on the proper pair (y, z), as
    y* ∧ z* = (Z, A ∪ B) = (Z, V). If it holds the co-small (V, Z), every
    (W, V) with W ⊆ Z is proper, and the leaf fails on a tested row or x
    is not free:
    - for a ≠ b in Z, it holds (V, Z − a), which clashes with (V, Z), or
      (Z − a, V) and (Z − b, V), whose inverses meet in (V, Z);
    - for |Z| ≤ k − 2, let W = Z + v for a vertex v ∉ Z: it holds (V, V)
      when W = V, which fails its own pair, and otherwise (W, V), which
      clashes with (V, Z) as a proper pair or through (1), or (V, W),
      which clashes with (V, Z);
    - otherwise |Z| = k − 1 ≤ 1, and |X| < k with ∅ ≠ D ∖ A ⊆ X ∩ Z
      leaves X = D ∖ A ⊆ Z, so x is not free.

    So for a proper y, the free partners that clash with it are those
    whose X holds every vertex of B (when A = V), and those that meet it
    into a member (B, V) are those whose X holds every vertex of V ∖ A.
    Each is one AND of per-vertex columns over the free members, O(n) int
    operations per y instead of one test per free member. (B, V) is
    looked up by its code, and only a y held with it gives a row. The
    columns are built only when some row needs them: on
    `doubled_bridge_ring()` and the three-triangle ring at k = 3 none
    does. A row (y or (B, V), partners) fails iff held(y) (& held(B, V))
    meets held(partners), which is every leaf as soon as a partner lies in
    all of them.
    """
    m = len(s_k)
    if len(slots) != 2 * m or any(map(ne, map(_swapped, slots[::2]), slots[1::2])):
        return False
    # S_k lists distinct canonical separations, and the two slots of a pair
    # are one separation, of which at most one is canonical (both, as one
    # pair, when it is (V, V)); so the m pairs are the m separations of S_k
    # exactly when m members of S_k appear among the slots
    if len(set(s_k).intersection(slots)) != m:
        return False
    evens = (4**m - 1) // 3  # slot 2i of every separation i
    if any((leaf | leaf >> 1) & evens != evens or leaf & leaf >> 1 & evens for leaf in leaves):
        return False
    if not leaves:
        return True

    union, common = 0, -1
    for leaf in leaves:
        union |= leaf
        common &= leaf
    every = (1 << len(leaves)) - 1
    # held[x]: the leaves that hold slot x, for every x in U
    held = [every] * len(slots)
    for i, leaf in enumerate(leaves):
        for x in iter_bits(union & ~leaf):
            held[x] &= ~(1 << i)

    shift, verts = g.n, g.vertices
    # the set bits of the union, lowest first, read off its binary digits
    members = list(compress(count(), bin(union)[:1:-1].encode().translate(_DIGITS)))
    sides = list(map(slots.__getitem__, members))
    # coded as a << n | (V ∖ b), the meet (a ∩ c, b ∪ d) of two separations
    # is the AND of their codes; held_by_code maps a code to the leaves that
    # hold a member with it (the two slots of (V, V) share one code)
    codes = [(a << shift) | (verts & ~b) for a, b in sides]
    held_by_code = dict(zip(codes, map(held.__getitem__, members)))
    if len(held_by_code) < len(codes):
        held_by_code = {}
        for code, x in zip(codes, members):
            held_by_code[code] = held_by_code.get(code, 0) | held[x]
    co_small = [b for a, b in sides if a == verts]
    proper = [
        x
        for x, (a, b) in zip(members, sides)
        if b != verts or co_small and any(not a & ~z for z in co_small)
    ]

    # proper against proper, over the pairs of U; x* ≤ y iff B(x) ⊆ A(y)
    # and B(y) ⊆ A(x), iff the code of x* misses ((V ∖ A(y)) << n) | B(y)
    inverse = [(slots[x][1] << shift) | (verts & ~slots[x][0]) for x in proper]
    outside = [((verts & ~slots[x][0]) << shift) | slots[x][1] for x in proper]
    held_proper = list(map(held.__getitem__, proper))
    meets = starmap(and_, combinations_with_replacement(inverse, 2))
    pair_held = starmap(and_, combinations_with_replacement(held_proper, 2))
    if any(map(and_, pair_held, map(held_by_code.get, meets, repeat(0)))):
        return False
    for i, here in enumerate(held_proper):
        clash = map(not_, map(inverse[i].__and__, outside[i + 1 :]))
        if any(map(here.__and__, compress(held_proper[i + 1 :], clash))):
            return False

    # free against proper: for each proper y = (A, B), the free x that
    # clash with y when A = V, and otherwise those that meet y into (B, V),
    # as (the leaves that hold y (and (B, V)), the vertices each such X holds)
    rows = []
    for y in proper:
        a, b = slots[y]
        if a == verts:
            rows.append((held[y], b))
        else:
            shared = held[y] & held_by_code.get(b << shift, 0)  # (B, V) is coded B << n
            if shared:
                rows.append((shared, verts & ~a))
    if rows:
        # holds[v]: the free members (X, V) with v ∈ X
        free = union & ~sum(map((1).__lshift__, proper))
        holds = [0] * shift
        for x in iter_bits(free):
            bit = 1 << x
            for v in iter_bits(slots[x][0]):
                holds[v] |= bit
        for shared, low in rows:
            partners = free
            for v in iter_bits(low):
                partners &= holds[v]
            if partners & common or any(shared & held[x] for x in iter_bits(partners)):
                return False
    return True


def enumerate_k_profiles(
    g: Graph,
    k: int,
    max_sk: int = DEFAULT_MAX_SK,
    max_n: int = DEFAULT_MAX_N,
    max_k: int = DEFAULT_MAX_K,
) -> tuple[Profile, ...]:
    """All k-profiles of g, in the lexicographic order of their orientation
    vectors over S_k sorted by (order, sep_sort_key), each listing its
    members in S_k order.

    Depth-first search over the open separations (those the lemma below
    does not force) sorted by order. Open separation i has the slots 2i
    (its orientation (a, b)) and 2i+1 (orientation (b, a)); a partial
    orientation is an int of chosen slots and an int of banned ones.
    Choosing a slot x bans every slot inconsistent with it and, for each
    slot y already on the branch, the slot x* ∧ y* when it lies in S_k; a
    meet that is already chosen (x included) ends the branch. So
    consistency and property (P) are both fully propagated and every leaf
    is a profile. The leaves are still checked against the full
    definition, all together and over all of S_k; a failure means the
    pruning is wrong and raises CertificationError.

    The search propagates before it branches. A branch ends as soon as
    some undecided separation has both slots banned; an undecided
    separation with one slot banned, anywhere in S_k, takes its other slot
    (the lowest such first); only when neither applies does the search
    branch, on the lowest undecided separation i, slot 2i before 2i+1. A
    ban only excludes orientations that no profile extending the branch
    holds, so no profile is lost. The leaf order is lexicographic: at a
    branch point every separation below i is decided, so all leaves of the
    branch agree below i, and the leaves under slot 2i precede those under
    2i+1 in the order of the vectors; the order in which the remaining
    slots are taken changes only the search tree, not which leaves it
    reaches.

    Lemma. Let n = |V| ≥ k. No k-profile holds a co-small separation
    (V, Z) when |Z| ≥ 2 or when |Z| ≤ k − 2. Proof: a profile holding
    (V, Z) holds no (V, X) with X ⊊ Z, because (Z, V) ≤ (V, X) makes the
    two inconsistent. If |Z| ≥ 2, take a ≠ b in Z: the profile holds
    (Z − a, V) and (Z − b, V), both of order < k, and the meet of their
    inverses is (V, Z), against (P). If |Z| ≤ k − 2, some X ⊋ Z has
    |X| = |Z| + 1 < k, and (V, Z) is inconsistent with both (X, V) and
    (V, X). So at k ≥ 3 every profile holds (X, V) for every trivial
    separation {X, V} of S_k, at k = 2 it holds (∅, V), and at k = 1 the
    lemma forces nothing.

    The forced sizes. Every X of size < k gives a separation (X, V) of S_k
    (as k ≤ n, X ≠ V), so the forced X are all the vertex sets of a forced
    size, and the forced sizes (those s < k with s ≥ 2 or s ≤ k − 2) are
    0, ..., k − 1 at k ≥ 3, 0 at k = 2 and none at k = 1: an interval from
    0 up to `top`. So the forced slots are exactly the (Z, V) with
    |Z| ≤ `top`, and they are closed under unions of at most `top`
    vertices.

    The forced separations get no slot, no table row and no `choose`
    call: every profile holds their (X, V), so the search starts as if
    they were chosen and meets them only through the two closed forms
    below. That loses no ban and no kill. A forced (X, V) is inconsistent
    only with slots (V, D), D ⊊ X, whose separations are forced too, so
    no open slot is inconsistent with a forced one. The meet (V, X ∪ Y)
    of two forced inverses is either outside S_k or the unchosen slot of
    the forced (X ∪ Y, V). A ban on a slot of a forced separation would be
    void, as it is decided. What is left are the meets of an open slot
    with a forced one, and the meets of two open slots that land on a
    forced separation.

    Closed form 1 (an open slot against the forced inverses). Let
    x = (A, B) be an open slot and y = (X, V) a forced one. Then
    x* ∧ y* = (B ∩ V, A ∪ X) = (B, A ∪ X). So the slots that x meets the
    forced inverses into are exactly the slots t = (B, D) of S_k with
    A ⊆ D and D ∖ A ⊆ X ⊆ D for some forced X: D = A ∪ X gives these,
    and conversely they give A ∪ X = D. Between D ∖ A and D lies a set of
    every size from |D ∖ A| to |D|, so some forced X lies there iff
    |D ∖ A| ≤ `top`. Such a t is a forced slot only as t = (B, V) with
    |B| ≤ `top`, and then it is one: V ∖ A ⊆ B, as A ∪ B = V, so
    |V ∖ A| ≤ `top`. That slot is chosen, so x is killed. No such t is the
    unchosen slot (V, Z) of a forced separation: that needs B = V, so
    x = (A, V) with |A| > `top`, as x is open, and D ⊇ A then has more
    than `top` vertices. So `fixed[x]` is x's own bit when |B| ≤ `top`
    (`choose` adds x to the chosen slots before it tests `fixed[x]`), and
    otherwise the mask of the open t = (B, D) with A ⊆ D and
    |D ∖ A| ≤ `top`, built once per open slot from the slots whose first
    side is B. `choose(x)` ends the branch when a chosen slot is in
    `fixed[x]` and bans `fixed[x]` otherwise, as the meets with the forced
    inverses one at a time would.

    Closed form 2 (two open slots meeting on a forced separation). Let x
    and y be open slots on the branch and z = x* ∧ y* =
    (B(x) ∩ B(y), A(x) ∪ A(y)). If z is a forced slot, that is, its second
    side is V and its first side has at most `top` vertices, z is chosen
    and ends the branch. z is never the unchosen slot (V, Z) of a forced
    separation: that needs B(x) = B(y) = V, so x = (A(x), V) with
    |A(x)| > `top`, as x is open, and Z = A(x) ∪ A(y) is larger still.
    Every other meet outside the open slots lies outside S_k. So `choose`
    looks each meet up among the open slots, and ends the branch on one
    whose code is that of some (Z, V) with |Z| ≤ `top`: Z itself, below
    `ceiling` and with at most `top` bits. Every code below `ceiling` has
    second side V, as `ceiling` ≤ 2^n, and every such Z lies below it. At
    k = 2 no such meet reaches the test: the only forced slot is (∅, V),
    and B(x) ∩ B(y) = ∅ gives B(x) ⊆ V ∖ B(y) ⊆ A(y) and B(y) ⊆ A(x),
    that is x* ≤ y, so whichever of x and y is chosen first has banned the
    other through its consistency row. At k = 1 nothing is forced. So the
    test runs at k ≥ 3 only.

    So the search over the open separations reaches the leaves, in their
    order, of the search over all of S_k with the forced slots chosen
    first. The forced part of S_k is taken in the block order of
    `enumerate_separations`: at k ≥ 3 it is the k prefixes (P, V) of
    block A and one run of block B, whose (V, X) are turned to (X, V) once
    per call, so each forced orientation is built once beside S_k's own
    member. Each profile fills the open positions of one tuple, `base`,
    that holds the forced orientations at their S_k positions. The
    certificate takes the open slots as the search has them, followed by
    each forced orientation and its inverse: a full leaf is a search leaf
    with the forced orientations added as one mask.
    """
    s_k = enumerate_separations(g, k, max_n=max_n, max_k=max_k, max_sk=max_sk)
    if k > g.num_vertices:
        # (V, V) ∈ S_k is its own inverse and its own meet with itself, so
        # every orientation of S_k violates (P)
        return ()
    shift, verts = g.n, g.vertices
    # the lemma's forced slots (X, V): those with |X| ≤ `top`, the largest
    # forced size (−1 when none is forced). In the block order of
    # `enumerate_separations` they are, at k ≥ 3, every trivial separation:
    # the k prefixes (P, V) in block A and the run s_k[lo:hi] of the (V, X)
    # of block B; at k = 2 the one (∅, V) = s_k[0]; at k = 1 none. `where`
    # lists the S_k positions of the open separations, `forced` the forced
    # orientations, and `base` S_k with block B turned to (X, V)
    top = k - 1 if k >= 3 else k - 2
    if k >= 3:
        # block B is not empty, as {v_1} is no prefix; blocks A and C are
        # s_k[:lo] and s_k[hi:], so only the open separations are scanned
        lo, hi = k, len(s_k)
        while s_k[lo][0] != verts:
            lo += 1
        while s_k[hi - 1][0] != verts:
            hi -= 1
        where = [j for j in range(lo) if s_k[j][1] != verts] + list(range(hi, len(s_k)))
        # built as Separation._make builds them, with no Python call each
        turned = list(map(tuple.__new__, repeat(Separation), map(_swapped, s_k[lo:hi])))
        forced = [s for s in s_k[:lo] if s[1] == verts] + turned
        base = [*s_k[:lo], *turned, *s_k[hi:]]
    else:
        where, forced, base = list(range(k - 1, len(s_k))), list(s_k[: k - 1]), list(s_k)
    # the open separations in S_k order, sorted stably by order
    where.sort(key=lambda j: s_k[j].order)
    slots = [x for j in where for x in (s_k[j], star(s_k[j]))]
    full = (1 << len(slots)) - 1
    evens = full // 3  # slot 2i of every open separation i

    # per-vertex columns at bit 2i of open separation i = (a, b): a holds
    # v / b holds v; shifted by one they read the inverse slot 2i+1 = (b, a)
    in_a = [0] * g.n
    in_b = [0] * g.n
    for x in range(0, len(slots), 2):
        a, b = slots[x]
        for v in iter_bits(a):
            in_a[v] |= 1 << x
        for v in iter_bits(b):
            in_b[v] |= 1 << x
    # A holds v / A holds v and B misses v
    a_has = [ca | cb << 1 for ca, cb in zip(in_a, in_b)]
    a_only = [(ca & ~cb) | (cb & ~ca) << 1 for ca, cb in zip(in_a, in_b)]
    # cons_bad[x]: the slots y of other separations with x* ≤ y, i.e.
    # B(x) ⊆ A(y) and B(y) ⊆ A(x); x* ≤ y and y* ≤ x coincide (the
    # involution reverses the order), so the relation is symmetric. For
    # x = (a, b), a vertex of a ∩ b must lie in A(y), and one of b ∖ a in
    # A(y) but not in B(y); the inverse slot swaps b ∖ a for a ∖ b, so both
    # slots share the AND over a ∩ b
    cons_bad = [0] * len(slots)
    for x in range(0, len(slots), 2):
        a, b = slots[x]
        both = full & ~(3 << x)
        for v in iter_bits(a & b):
            both &= a_has[v]
        bad, inv_bad = both, both
        for v in iter_bits(b & ~a):
            bad &= a_only[v]
        for v in iter_bits(a & ~b):
            inv_bad &= a_only[v]
        cons_bad[x], cons_bad[x + 1] = bad, inv_bad

    # fixed[x] (closed form 1): x's own bit when |B| ≤ `top`, and otherwise
    # the slots (B, D) with A ⊆ D and |D ∖ A| ≤ `top`
    by_first = {}
    for t, (a, b) in enumerate(slots):
        by_first.setdefault(a, []).append((b, 1 << t))
    fixed = [
        1 << x
        if b.bit_count() <= top
        else sum(bit for d, bit in by_first[b] if not a & ~d and (d & ~a).bit_count() <= top)
        for x, (a, b) in enumerate(slots)
    ]

    # a slot (a, b) is coded as (V ∖ b) << n | a, so that the code of the
    # meet x* ∧ y* = (B(x) ∩ B(y), A(x) ∪ A(y)) is the AND of the codes of
    # x* and y*; `path` holds the codes of the inverses of the slots chosen
    # on the branch. A forced slot (Z, V) is coded as Z, below `ceiling`,
    # one more than the set of the `top` highest vertices; `ceiling` is 0
    # at k ≤ 2, where no path meet is forced (closed form 2)
    codes = [((verts & ~b) << shift) | a for a, b in slots]
    slot_bit = {code: 1 << x for x, code in enumerate(codes)}.get
    ceiling = sum(1 << v for v in vertices_of(verts)[::-1][:top]) + 1 if k >= 3 else 0
    path = []

    def choose(x, chosen, banned):
        """Add slot x to the branch; None when the result violates (P)."""
        chosen |= 1 << x
        if chosen & fixed[x]:
            return None
        banned |= cons_bad[x] | fixed[x]
        inverse = codes[x ^ 1]
        meets = [inverse & other for other in path]
        for t in filter(None, map(slot_bit, meets)):
            if chosen & t:
                return None
            banned |= t
        # closed form 2: a meet (Z, V), |Z| ≤ `top`, is a chosen forced slot
        if (
            ceiling
            and meets
            and min(meets) < ceiling
            and any(z < ceiling and z.bit_count() <= top for z in meets)
        ):
            return None
        path.append(inverse)
        return chosen, banned

    leaves = []

    def rec(chosen, banned):
        # separations with one slot banned extend the branch in place, the
        # lowest first; only a separation with both slots free opens a
        # subtree
        while True:
            undecided = evens & ~(chosen | chosen >> 1)
            if banned & banned >> 1 & undecided:
                return
            single = (banned ^ banned >> 1) & undecided
            if not single:
                break
            x = (single & -single).bit_length() - 1
            # the slot of separation x // 2 that is not banned
            state = choose(x | banned >> x & 1, chosen, banned)
            if state is None:
                return
            chosen, banned = state
        if not undecided:
            leaves.append(chosen)
            return
        x = (undecided & -undecided).bit_length() - 1
        depth = len(path)
        for slot in (x, x + 1):
            state = choose(slot, chosen, banned)
            if state is not None:
                rec(*state)
                del path[depth:]

    rec(0, 0)

    # each leaf fills the open positions of `base`. The certificate takes
    # the open slots as they are, followed by each forced orientation and its
    # inverse, all of which every leaf holds
    rows = []
    for leaf in leaves:
        chosen = base[:]
        for x in iter_bits(leaf):
            chosen[where[x >> 1]] = slots[x]
        rows.append(tuple(chosen))
    forced_slots = [None] * (2 * len(forced))
    forced_slots[::2] = forced
    forced_slots[1::2] = map(_swapped, forced)
    forced_bits = (4 ** len(forced) - 1) // 3 << len(slots)
    full_leaves = [leaf | forced_bits for leaf in leaves]
    if not _leaves_are_profiles(g, s_k, slots + forced_slots, full_leaves):
        raise CertificationError("profile search reached a leaf that is not a profile")
    return tuple(Profile(k, row) for row in rows)


# ---------------------------------------------------------------------------
# flags

def _submasks(mask: int):
    """Every subset of `mask`, `mask` itself first and ∅ last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def is_robust(g: Graph, p: Profile) -> bool:
    """Robustness as defined by Diestel, Hundertmark & Lemanczyk, "Profiles
    of separations: in graphs, matroids and beyond" (Combinatorica 2019): a
    member r breaks it if some separation t of G has |r ∨ t| < |r| and
    |r ∨ t*| < |r| while neither join lies in p. Exact on any orientation p
    of S_k, k = p.k; `oracles.brute_is_robust` keeps the scan over the
    whole universe. The work is quadratic in p's non-trivial members (see
    `Profile`) and linear in the rest.

    Lemma. Let r = (A, B), sep = A ∩ B and (C, D) = (t.a ∩ B, t.b ∩ B), a
    separation of G[B]; every separation of G[B] arises so. A breaking
    r ∨ t = (A ∪ C, D) is x* for some x ∈ p with x* ≥ r and |x| < |r|, so
    D = x.a, C ∖ A = x.b ∖ A, and C ∩ A lies between sep ∖ D and sep. So
    r breaks robustness iff such a choice gives j2 = r ∨ t* = (A ∪ D, C)
    with |j2| < |r| and j2* ∈ p.

    Order slack. Write (xa, xb) = x, so D = xa and
    C = (xb ∖ A) ∪ (sep ∖ xa) ∪ E for some E ⊆ sep ∩ xa. The three parts
    of (A ∪ xa) ∩ C are disjoint: (xa ∩ xb) ∖ A lies outside A, and
    sep ∖ xa and E lie in A, on either side of xa. So
    |r ∨ t*| = |sep ∖ xa| + |E| + |(xa ∩ xb) ∖ A|, and |j2| < |r| iff
    |E| < |sep ∩ xa| − |(xa ∩ xb) ∖ A|, the slack. In terms of the part
    F = (sep ∩ xa) ∖ E that C misses, C = ((xb ∖ A) ∪ sep) ∖ F and
    |j2| < |r| iff |F| > |(xa ∩ xb) ∖ A|.

    Two partners. A breaking t gives r two partners in p, x = (r ∨ t)*
    and x' = j2* = (r ∨ t*)*, and t* gives the same two with their roles
    swapped. So a walk of x over the non-trivial members finds every
    breaking t but those whose two partners are both trivial. Three cases:

    1. r and x non-trivial: the slack walk. The non-trivial members are
       sorted by order, so the walk over x stops at the first x with
       |x| ≥ |r|; an x without slack is skipped, and only the E smaller
       than the slack are tried.
    2. r = (X, V) trivial, x non-trivial. x* ≥ r iff X ⊆ xb; write
       S = xa ∩ xb. Then sep = X and (xb ∖ X) ∪ X = xb, so C = xb ∖ F with
       F ⊆ X ∩ S and |F| > |S ∖ X|, and x' = (xb ∖ F, X ∪ xa). As x
       separates G, (xb ∖ F, xa) does iff no vertex of F has a neighbour
       in xb ∖ xa. So the pair is found from x: for each such nonempty
       F ⊆ S, x' has first side xb ∖ F, and is (xb ∖ F, V), looked up, or
       a non-trivial member, read off an index by first side. Its second
       side d holds xa and gives X ∖ xa = d ∖ xa; the rest of X, X ∩ S,
       lies between F and S with |S ∖ X| < |F|. These X are enumerated
       and (X, V) is looked up, with |X| > |S|. As |X| < k, only the x
       with |S| ≤ k − 2 take part.
    3. x = (Y, V) and x' both trivial, r = (A, B) any member. x* ≥ r iff
       Y ⊆ B. Then (V ∖ A) ∪ sep = B, so C = B ∖ F and
       x' = (B ∖ F, A ∪ Y), which is trivial iff Y holds B ∖ A. So
       Y = (B ∖ A) ∪ ys for some ys ⊆ sep, F ⊆ ys has more than |B ∖ A|
       vertices, and (B ∖ F, Y) separates G[B] iff no edge joins F to
       B ∖ Y = sep ∖ ys. These are enumerated from r's separator, and
       (Y, V) and (B ∖ F, V) are looked up. As |Y| < |r|, r needs
       2|B ∖ A| + 2 ≤ |r|. At k ≤ 4 that leaves B ⊆ A and |B| ≥ 2: a
       co-small (V, B), which no k-profile holds at k ≥ 3 (see
       `enumerate_k_profiles`), so no member of a profile passes. A
       trivial r = (X, V) needs 3|X| ≥ 2n + 2, and |X| < k, so the trivial
       members are read only when 3(k − 1) ≥ 2n + 2. Examples at k = 5:
       on the 4-cycle 0–1, 0–2, 1–3, 2–3, r = (V, V) with Y = {0, 1, 2},
       F = {0} and x' = ({1, 2, 3}, V); on the edgeless graph on five
       vertices, r = ({1, 2, 3, 4}, V) with Y = {0, 2, 3}, F = {2, 3} and
       x' = ({0, 1, 4}, V).
    """
    members, verts, k = p._members, g.vertices, p.k
    adj, neighbours = g.adj, g.neighbours
    ranked = sorted(((a & b).bit_count(), a, b) for a, b in p._nontrivial)
    # case 1
    for order, a, b in ranked:
        sep = a & b
        for x_order, xa, xb in ranked:
            if x_order >= order:
                break
            if a & ~xb or xa & ~b:
                continue
            free = sep & xa
            slack = free.bit_count() - (xa & xb & ~a).bit_count()
            if slack <= 0:
                continue
            forced = (xb & ~a) | (sep & ~xa)
            extra = free
            while True:
                c = forced | extra
                # j2 = (a | xa, c) and j2* = (c, a | xa)
                if (
                    extra.bit_count() < slack
                    and (c, a | xa) in members
                    and not neighbours(c & ~xa) & xa & ~c
                ):
                    return False
                if not extra:
                    break
                extra = (extra - 1) & free

    if k < 3:
        # case 2 needs 1 ≤ |S| ≤ k − 2, and case 3 needs |r| ≥ 2
        return True

    # case 2: x' = (xb ∖ F, d) with d ⊇ xa
    by_first = None
    for s, xa, xb in ranked:
        if s > k - 2:
            break
        sep, away = xa & xb, xb & ~xa
        loose = sum(1 << v for v in iter_bits(sep) if not adj[v] & away)
        if not loose:
            continue
        if by_first is None:
            by_first = {}
            for a, b in p._nontrivial:
                by_first.setdefault(a, []).append(b)
        for f in _submasks(loose):
            if not f:
                break
            za, rest = xb & ~f, sep & ~f
            need = rest.bit_count() - f.bit_count()
            seconds = by_first.get(za, [])
            if (za, verts) in members:
                seconds = [*seconds, verts]
            for d in seconds:
                if xa & ~d:
                    continue
                for extra in _submasks(rest):
                    first = (d & ~xa) | f | extra
                    if (
                        extra.bit_count() > need
                        and first.bit_count() > s
                        and (first, verts) in members
                    ):
                        return False

    # case 3: x = (out ∪ ys, V) and x' = (B ∖ F, V)
    for a, b in p.chosen if 3 * (k - 1) >= 2 * g.num_vertices + 2 else p._nontrivial:
        sep, out = a & b, b & ~a
        order, spare = sep.bit_count(), out.bit_count()
        if 2 * spare + 2 > order:
            continue
        for ys in _submasks(sep):
            if (
                spare < ys.bit_count() < order - spare
                and (out | ys, verts) in members
                and any(
                    f.bit_count() > spare
                    and not neighbours(f) & sep & ~ys
                    and (b & ~f, verts) in members
                    for f in _submasks(ys)
                )
            ):
                return False
    return True


def is_principal(g: Graph, p: Profile, cuts=None) -> bool:
    """P contains (V∖C, C∪X) for some component C of G-X, for every X with
    |X| < k. Subsets X = V(G) admit no such separation and are skipped.

    Lemma (Diestel, Hundertmark & Lemanczyk, "Profiles of separations: in
    graphs, matroids and beyond", Combinatorica 2019). Every regular
    k-profile P of a graph is principal. Proof: suppose that for some X
    with |X| < k, P contains no (V∖C, C∪X). Each such separation has
    separator X, so it lies in S_k and P contains (C∪X, V∖C) for every
    component C of G-X. For two members (C∪X, V∖C) and (D∪X, V∖D), (P)
    forbids their inverses' meet (V∖(C∪D), C∪D∪X), so P contains
    (C∪D∪X, V∖(C∪D)). By induction P contains (D∪X, V∖D) for every
    union D of components, and for D = V∖X that is (V, X): P is not
    regular. So `pipeline_profiles` needs no principality filter; the
    preconditions of `separators_to_separations` and `build_totd` still
    check it, for callers that pass orientations that are not profiles.

    `cuts` is `core.small_separators(g, k)` for some k ≥ p.k, shared by
    `principal_flags`; it is computed here when absent.
    """
    verts, members = g.vertices, p._members
    for x, comps in small_separators(g, p.k) if cuts is None else cuts:
        if x.bit_count() >= p.k:
            break
        if comps and not any((verts & ~comp, comp | x) in members for comp in comps):
            return False
    return True


def principal_flags(g: Graph, profiles) -> tuple[bool, ...]:
    """`is_principal` of each profile, with the components of G - X
    computed once per X with |X| < k for all of them, k the largest profile
    order."""
    profiles = tuple(profiles)
    cuts = small_separators(g, max((p.k for p in profiles), default=0))
    return tuple(is_principal(g, p, cuts) for p in profiles)


def pipeline_profiles(g: Graph, profiles) -> tuple[Profile, ...]:
    """The members of `profiles` that the separator pipeline runs on, in
    input order: the regular robust ones. Regular profiles are principal
    (see `is_principal`), so no principality filter is needed."""
    return tuple(p for p in profiles if p.is_regular(g) and is_robust(g, p))


# ---------------------------------------------------------------------------
# distinguishers

@dataclass(frozen=True)
class DistinguisherSet:
    """All separations of minimum order oriented oppositely by two profiles."""

    first: Profile
    second: Profile
    order: Optional[int]
    seps: tuple[Separation, ...]  # canonical unoriented, sorted

    def __bool__(self) -> bool:
        return bool(self.seps)


def distinguishes(p: Profile, q: Profile, s: Separation) -> bool:
    op, oq = p.orients(s), q.orients(s)
    return op is not None and oq is not None and op == star(oq)


def efficient_distinguishers(g: Graph, p: Profile, q: Profile) -> DistinguisherSet:
    """Minimum-order separations that p and q orient oppositely, read off p:
    the members (A, B) of p with |A ∩ B| < k whose inverse (B, A), a plain
    pair, lies in q. A trivial member (X, V) of p (see `Profile`) is one of
    them only when q holds (V, X), which is non-trivial as X ≠ V; so p's
    non-trivial members are scanned, and q's members (V, X), X ≠ V, whose
    inverse p holds. Only the kept members of minimum order are made
    canonical."""
    if p == q:
        raise PreconditionError("profiles must differ")
    k, verts = min(p.k, q.k), g.vertices
    mine, theirs = p._members, q._members
    dist = [
        (order, x)
        for x in p._nontrivial
        if (order := (x[0] & x[1]).bit_count()) < k and (x[1], x[0]) in theirs
    ]
    dist += [
        (order, Separation(b, a))
        for a, b in q._nontrivial
        if a == verts != b and (order := b.bit_count()) < k and (b, a) in mine
    ]
    if not dist:
        return DistinguisherSet(p, q, None, ())
    best = min(order for order, _ in dist)
    seps = tuple(sorted((canonical(x) for order, x in dist if order == best), key=sep_sort_key))
    return DistinguisherSet(p, q, best, seps)


def distinguisher_sets(g: Graph, profiles) -> dict:
    """`efficient_distinguishers` of every pair of `profiles`, keyed (i, j)
    in `combinations` order, empty sets included."""
    profiles = tuple(profiles)
    return {
        (i, j): efficient_distinguishers(g, profiles[i], profiles[j])
        for i, j in combinations(range(len(profiles)), 2)
    }
