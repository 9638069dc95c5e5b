"""k-profiles of small graphs: enumeration, flags and distinguisher sets."""

from __future__ import annotations

from dataclasses import dataclass, field
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
    star,
    subsets_of_size,
)
from .errors import CertificationError, PreconditionError

DEFAULT_MAX_SK = 64


@dataclass(frozen=True)
class Profile:
    """A consistent orientation of S_k satisfying the profile property.

    `chosen` keeps the order it is given, and equality compares that
    order. `enumerate_k_profiles` gives the members in S_k order (that of
    `enumerate_separations`), which is the order of `to_json`.
    """

    k: int
    chosen: tuple[Separation, ...]
    _members: frozenset = field(compare=False, repr=False, hash=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.chosen))

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
    x* ∧ y* again a member. Both relations are computed from the
    separations, once per unordered pair of the union U of the leaves'
    members, instead of once per leaf.
    """
    m = len(s_k)
    width = 2 * m
    if len(slots) != width or any(slots[x + 1] != slots[x][::-1] for x in range(0, width, 2)):
        return False
    if {canonical(Separation(*slots[x])) for x in range(0, width, 2)} != set(s_k):
        return False
    evens = (4**m - 1) // 3  # slot 2i of every separation i
    if any((leaf | leaf >> 1) & evens != evens or leaf & leaf >> 1 & evens for leaf in leaves):
        return False

    union = 0
    for leaf in leaves:
        union |= leaf
    members = list(iter_bits(union))
    shift, verts = g.n, g.vertices
    # coded as a << n | (V ∖ b), the meet (a ∩ c, b ∪ d) of two separations
    # is the AND of their codes; the two slots of (V, V) share one code
    code_bits = {}
    for x, (a, b) in enumerate(slots):
        code = (a << shift) | (verts & ~b)
        code_bits[code] = code_bits.get(code, 0) | 1 << x
    inverse = [(slots[x][1] << shift) | (verts & ~slots[x][0]) for x in members]
    # x* ≤ y iff B(x) ⊆ A(y) and B(y) ⊆ A(x), iff the code of x* misses
    # ((V ∖ A(y)) << n) | B(y)
    outside = [((verts & ~slots[y][0]) << shift) | slots[y][1] for y in members]
    # clash[x]: the members y > x of other separations with x* ≤ y (the
    # relation is symmetric); meets[x]: (bit of y, bits of x* ∧ y*) for the
    # members y ≥ x whose meet lies in U
    clash = {}
    meets = {}
    for i, x in enumerate(members):
        code = inverse[i]
        clash[x] = sum(
            1 << y
            for y, out in zip(members[i + 1 :], outside[i + 1 :])
            if not code & out and y != x ^ 1
        )
        targets = map(code_bits.get, [code & other for other in inverse[i:]])
        meets[x] = [(1 << y, t) for y, t in zip(members[i:], targets) if t and t & union]
    for leaf in leaves:
        for x in iter_bits(leaf):
            if leaf & clash[x] or any(leaf & y and leaf & t for y, t in meets[x]):
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

    Depth-first search over the unoriented separations sorted by order.
    Separation i has the slots 2i (its orientation (a, b)) and 2i+1
    (orientation (b, a)); a partial orientation is an int of chosen slots
    and an int of banned ones. Choosing a slot x bans every slot
    inconsistent with it and, for each slot y already on the branch, the
    slot x* ∧ y* when it lies in S_k; a meet that is already chosen (x
    included) ends the branch. So consistency and property (P) are both
    fully propagated and every leaf is a profile. The leaves are still
    checked against the full definition, all together; a failure means the
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
    2i+1 in the order of the vectors; the order in which forced slots are
    taken changes only the search tree, not which leaves it reaches.
    """
    s_k = enumerate_separations(g, k, max_n=max_n, max_k=max_k, max_sk=max_sk)
    m = len(s_k)
    if k > g.num_vertices:
        # (V, V) ∈ S_k is its own inverse and its own meet with itself, so
        # every orientation of S_k violates (P)
        return ()
    # s_k is in S_k order, and the stable sort keeps that within an order;
    # slot_of[j] is the slot 2i of s_k[j] (i runs over the inverse of
    # `ranked`), so a leaf lists its members in S_k order
    ranked = sorted(range(m), key=lambda j: s_k[j].order)
    slot_of = [2 * i for i in sorted(range(m), key=ranked.__getitem__)]
    slots = [x for j in ranked for x in (s_k[j], star(s_k[j]))]
    full = (1 << 2 * m) - 1

    # per-vertex columns at bit 2i of separation i = (a, b): a holds v /
    # b holds v; shifted by one they read the inverse slot 2i+1 = (b, a)
    in_a = [0] * g.n
    in_b = [0] * g.n
    for x in range(0, 2 * m, 2):
        a, b = slots[x]
        for v in iter_bits(a):
            in_a[v] |= 1 << x
        for v in iter_bits(b):
            in_b[v] |= 1 << x
    # over all slots: A holds v / A holds v and B misses v
    a_has = [ca | cb << 1 for ca, cb in zip(in_a, in_b)]
    a_only = [(ca & ~cb) | (cb & ~ca) << 1 for ca, cb in zip(in_a, in_b)]
    # cons_bad[x]: the slots y of other separations with x* ≤ y, i.e.
    # B(x) ⊆ A(y) and B(y) ⊆ A(x); x* ≤ y and y* ≤ x coincide (the
    # involution reverses the order), so the relation is symmetric. For
    # x = (a, b), a vertex of a ∩ b must lie in A(y), and one of b ∖ a in
    # A(y) but not in B(y); the inverse slot swaps b ∖ a for a ∖ b, so both
    # slots share the AND over a ∩ b
    cons_bad = []
    for x in range(0, 2 * m, 2):
        a, b = slots[x]
        both = full & ~(3 << x)
        for v in iter_bits(a & b):
            both &= a_has[v]
        bad, inv_bad = both, both
        for v in iter_bits(b & ~a):
            bad &= a_only[v]
        for v in iter_bits(a & ~b):
            inv_bad &= a_only[v]
        cons_bad += (bad, inv_bad)

    # a slot (a, b) is coded as a << n | (V ∖ b), so that the code of the
    # meet x* ∧ y* = (B(x) ∩ B(y), A(x) ∪ A(y)) is the AND of the codes of
    # x* and y*; `path` holds the codes of the inverses of the branch's slots
    shift, verts = g.n, g.vertices
    codes = [(a << shift) | (verts & ~b) for a, b in slots]
    slot_bit = {code: 1 << x for x, code in enumerate(codes)}.get
    path = []

    def choose(x, chosen, banned):
        """Add slot x to the branch; None when the result violates (P)."""
        chosen |= 1 << x
        banned |= cons_bad[x]
        inverse = codes[x ^ 1]
        for t in filter(None, map(slot_bit, [inverse & other for other in path])):
            if chosen & t:
                return None
            banned |= t
        path.append(inverse)
        return chosen, banned

    evens = full // 3  # slot 2i of every separation i
    leaves = []

    def rec(chosen, banned):
        # forced separations extend the branch in place, the lowest first;
        # only a separation with both orientations free opens a subtree
        while True:
            undecided = evens & ~(chosen | chosen >> 1)
            if banned & banned >> 1 & undecided:
                return
            forced = (banned ^ banned >> 1) & undecided
            if not forced:
                break
            x = (forced & -forced).bit_length() - 1
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

    if not _leaves_are_profiles(g, s_k, slots, leaves):
        raise CertificationError("profile search reached a leaf that is not a profile")
    return tuple(
        Profile(k, tuple(slots[x if leaf >> x & 1 else x + 1] for x in slot_of)) for leaf in leaves
    )


# ---------------------------------------------------------------------------
# flags

@dataclass(frozen=True)
class ProfileFlags:
    regular: bool
    robust: bool
    principal: bool


def is_robust(g: Graph, p: Profile) -> bool:
    """Robustness as defined by Diestel, Hundertmark & Lemanczyk, "Profiles
    of separations: in graphs, matroids and beyond" (Combinatorica 2019): a
    member r breaks it if some separation t of G has |r ∨ t| < |r| and
    |r ∨ t*| < |r| while neither join lies in p. Exact, over p's members:

    Lemma. Let r = (A, B), X = A ∩ B and (C, D) = (t.a ∩ B, t.b ∩ B), a
    separation of G[B]; every separation of G[B] arises so. A breaking
    r ∨ t = (A ∪ C, D) is x* for some x ∈ p with x* ≥ r and |x| < |r|, so
    D = x.a, C ∖ A = x.b ∖ A, and C ∩ A lies between X ∖ D and X. So r
    breaks robustness iff such a choice gives j2 = r ∨ t* = (A ∪ D, C) with
    |j2| < |r| and j2* ∈ p: at most 2^(k−1) choices per pair of members.
    `oracles.brute_is_robust` keeps the scan over the whole universe.

    The members are sorted once by order, so the scan over x for a given r
    stops at the first x with |x| ≥ |r|: the lemma needs |x| < |r|, and
    every later x is at least as large. j2* = (C, A ∪ D) is looked up as a
    plain pair in p's member set.
    """
    members = p._members
    ranked = sorted(((a & b).bit_count(), a, b) for a, b in p.chosen)
    for order, a, b in ranked:
        sep = a & b
        for x_order, xa, xb in ranked:
            if x_order >= order:
                break
            if a & ~xb or xa & ~b:
                continue
            d, free = xa, sep & xa
            forced = (xb & ~a) | (sep & ~d)
            extra = free
            while True:
                c = forced | extra
                # j2 = (a | d, c) and j2* = (c, a | d)
                if (
                    ((a | d) & c).bit_count() < order
                    and (c, a | d) in members
                    and not g.neighbours(c & ~d) & d & ~c
                ):
                    return False
                if not extra:
                    break
                extra = (extra - 1) & free
    return True


def is_principal(g: Graph, p: Profile) -> bool:
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
    """
    verts = g.vertices
    for size in range(min(p.k, g.num_vertices)):
        for x in subsets_of_size(verts, size):
            hit = False
            for comp in g.components(x):
                cand = Separation(verts & ~comp, comp | x)
                if cand in p:
                    hit = True
                    break
            if not hit:
                return False
    return True


def profile_flags(g: Graph, p: Profile) -> ProfileFlags:
    return ProfileFlags(
        regular=p.is_regular(g),
        robust=is_robust(g, p),
        principal=is_principal(g, p),
    )


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
    """Minimum-order separations that p and q orient oppositely, read off p."""
    if p == q:
        raise PreconditionError("profiles must differ")
    k = min(p.k, q.k)
    dist = [canonical(x) for x in p.chosen if x.order < k and star(x) in q]
    if not dist:
        return DistinguisherSet(p, q, None, ())
    best = min(s.order for s in dist)
    seps = tuple(sorted((s for s in dist if s.order == best), key=sep_sort_key))
    return DistinguisherSet(p, q, best, seps)
