"""The two splinter engines.

`splinter_finite` implements the finite splinter algorithm over a universe
of separations: if every pair of families satisfies the splinter condition,
a nested transversal exists and is found by fix-and-restrict recursion.

`thin_splinter` implements the canonical levelwise engine over an abstract
instance (a reflexive symmetric nestedness relation, indexed families with
integer orders): level by level it keeps, for every family at that level,
all elements nested with the part built so far that have minimum
k-crossing number. Keeping all minima is what makes the output canonical.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Callable, Optional

from .core import UniverseView, codable, iter_bits, leq, mask_of
from .errors import CertificationError, HypothesisError, PreconditionError


# ---------------------------------------------------------------------------
# finite splinter lemma machinery

@dataclass(frozen=True)
class FiniteSplinterFamily:
    """Indexed non-empty subsets of a universe.

    Membership is taken modulo orientation: an element and its star are the
    same member for the purposes of the splinter condition.
    """

    universe: UniverseView
    families: tuple

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(frozenset(f) for f in self.families))
        elems = set(self.universe.elements)
        for i, fam in enumerate(self.families):
            if not fam:
                raise PreconditionError(f"family {i} is empty")
            if not fam <= elems:
                raise PreconditionError(f"family {i} contains non-universe elements")


def _nested(u: UniverseView, r, s) -> bool:
    return (
        u.leq(r, s)
        or u.leq(r, u.star(s))
        or u.leq(u.star(r), s)
        or u.leq(u.star(r), u.star(s))
    )


def _nested_codes(r: int, rs: int, s: int, ss: int) -> bool:
    """`_nested` on the codes of r, r*, s and s*: r ≤ s, r ≤ s*, r* ≤ s or
    s ≤ r (the last is r* ≤ s*)."""
    return r | s == s or r | ss == ss or rs | s == s or s | r == r


class _Splinters:
    """The splinter condition of one instance, checked whole once and then
    on each restriction that `splinter_finite` makes of it.

    Codes. Every member x and its star x* get a non-negative int code, and
    a corner of two codes is a code, or −1 when it is neither a member nor
    the star of one. When the universe passes `core.codable` with the
    members and their stars, the code of (A, B) is A << w | (full & ~B),
    w the widest of their masks, and a corner is the | of two codes (its
    masks are no wider). Any other universe numbers the members and stars
    and makes corners with u.join. A family's unoriented codes are those
    of its members and their stars, so "x or x* in the family" is one
    lookup (star is an involution, as a UniverseView's must be).

    Nestedness. `nested(r, s)` is `_nested(u, r, s)` for two members. When
    the members are coded as separations and u.leq is `core.leq`, it reads
    the codes: (A, B) ≤ (C, D) iff A ⊆ C and D ⊆ B, iff the code of (A, B)
    lies inside that of (C, D), and r* ≤ s* iff s ≤ r.

    Witnesses. The whole check keeps, for each pair (s, t) of members of
    families i ≠ j that it tests, one of its corners that lies in the two
    families, unoriented: its witness. A restriction keeps the members
    nested with a pick. That relation does not change under star, so a
    member survives exactly when its star does: a surviving s lies in
    family j, unoriented, after the restriction exactly when it did
    before, and every surviving pair keeps its skip conditions. A surviving
    pair passes while its witness is still in family i or j; otherwise the
    witness is a code that left one of them. So a restriction re-tests only
    the pairs whose witness is among the codes that left, in the families
    that lost members, and gives each pair that passes a new witness for
    the next restriction (a code that left one family but is still in the
    other just gets re-tested). The pairs are visited in the order of the
    whole check, (i, j), then s, then t in universe order, so the first
    pair that fails is the one a check of the restricted families from
    scratch would report.
    """

    def __init__(self, u: UniverseView, families: tuple):
        stars = {x: u.star(x) for fam in families for x in fam}
        both = (*stars, *stars.values())
        self.nested = functools.partial(_nested, u)
        if codable(u, both):
            w = max(((x.a | x.b).bit_length() for x in both), default=0)
            full = (1 << w) - 1
            code = {x: x.a << w | (full & ~x.b) for x in both}
            self.corner = operator.or_
            if u.leq is leq:
                pair = {x: (code[x], code[sx]) for x, sx in stars.items()}
                self.nested = lambda r, s: _nested_codes(*pair[r], *pair[s])
        else:
            code = {x: i for i, x in enumerate(dict.fromkeys(both))}
            listed = list(code)
            self.corner = lambda a, b: code.get(u.join(listed[a], listed[b]), -1)
        rank = {x: i for i, x in enumerate(u.elements)}
        # per family: its members in universe order as (x, code of x, code of x*)
        self.members = [
            [(x, code[x], code[stars[x]]) for x in sorted(fam, key=rank.__getitem__)]
            for fam in families
        ]
        unoriented = [self.unoriented(fam) for fam in self.members]
        # (i, j) -> rows [s, cs, cs*, witness per column] and columns (t, ct, ct*):
        # the members of i and of j that the check does not skip
        self.pairs = {
            (i, j): (
                [[s, cs, css, None] for s, cs, css in fam_i if cs not in unoriented[j]],
                [m for m in fam_j if m[1] not in unoriented[i]],
            )
            for i, fam_i in enumerate(self.members)
            for j, fam_j in enumerate(self.members)
            if i != j
        }
        self.failure = self.check(dict(enumerate(families)), set(range(len(families))), set())

    @staticmethod
    def unoriented(fam) -> dict:
        """The unoriented codes of a family's (x, cx, cx*) members, each
        mapped to itself, so that a witness holds the dict's int object."""
        return {c: c for _, cx, cxs in fam for c in (cx, cxs)}

    def restrict(self, active: dict):
        """The first failing (i, j, s, t) of the restriction `active` (family
        index -> the members that survived, in index order), or None. Each
        restriction's families are subsets of the previous one's."""
        changed, removed = set(), set()
        for k, fam in active.items():
            gone = [m for m in self.members[k] if m[0] not in fam]
            if gone:
                changed.add(k)
                removed.update(c for _, cx, cxs in gone for c in (cx, cxs))
                self.members[k] = [m for m in self.members[k] if m[0] in fam]
        return self.check(active, changed, removed)

    def check(self, active: dict, changed: set, removed: set):
        """The first failing (i, j, s, t) of the families `active`, or None.
        Only the pairs of families i, j of which one is in `changed` (lost
        members since the last check) are visited. There a pair is tested
        when its witness is −1 or in `removed` (the codes that left); a row
        without witnesses first takes the corners s ∨ t, and a tested pair
        the first of its corners that lies in the two families."""
        corner, stale = self.corner, {-1, *removed}
        unoriented = {k: self.unoriented(self.members[k]) for k in active}
        for i, fam_i in active.items():
            for j, fam_j in active.items():
                if i == j or not (i in changed or j in changed):
                    continue
                rows, cols = self.pairs[i, j]
                rows = [row for row in rows if row[0] in fam_i]
                live = [p for p, m in enumerate(cols) if m[0] in fam_j]
                self.pairs[i, j] = rows, cols
                get = {**unoriented[i], **unoriented[j]}.get
                for row in rows:
                    s, cs, css, wit = row
                    if wit is None:
                        wit = row[3] = list(
                            map(get, map(corner, repeat(cs), [m[1] for m in cols]), repeat(-1))
                        )
                    if stale.isdisjoint(wit):
                        continue
                    for p in compress(live, map(stale.__contains__, map(wit.__getitem__, live))):
                        t, ct, cts = cols[p]
                        c = get(corner(cs, cts), -1)
                        if c == -1:
                            c = get(corner(css, ct), -1)
                        if c == -1:
                            c = get(corner(css, cts), -1)
                        if c == -1:
                            c = get(corner(cs, ct), -1)
                        if c == -1:
                            return i, j, s, t
                        wit[p] = c
        return None


def splinters_check(f: FiniteSplinterFamily):
    """Check the splinter condition for every pair of families.

    Returns (True, None) or (False, witness) where witness is the first
    offending (i, j, s, t): families i, then j, then s in family i and t in
    family j in universe order. A pair (s, t) with s or s* in family j, or
    t or t* in family i, is skipped; any other pair offends when none of
    its corners s ∨ t, s ∨ t*, s* ∨ t, s* ∨ t* lies in family i or j,
    unoriented. `_Splinters` runs the check.
    """
    failure = _Splinters(f.universe, f.families).failure
    return failure is None, failure


def splinter_finite(f: FiniteSplinterFamily) -> tuple:
    """Pick one element from each family so that the picks are pairwise
    nested. Requires the splinter condition; it is checked on the whole
    instance and on every restricted sub-instance, and a failure raises
    HypothesisError."""
    return _transversal(f, "splinter condition failed on a restricted sub-instance")


def _transversal(f: FiniteSplinterFamily, failure: str) -> tuple:
    """`splinter_finite`, raising HypothesisError(failure) when the whole
    instance does not splinter. The whole instance is checked once, and
    each restriction only on the pairs whose witness it removed (see
    `_Splinters`)."""
    u = f.universe
    check = _Splinters(u, f.families)
    if check.failure is not None:
        raise HypothesisError(failure, witness=check.failure)
    elem_order = {x: i for i, x in enumerate(u.elements)}
    picks: dict[int, object] = {}
    active = dict(enumerate(f.families))
    while active:
        active = _pick(check.nested, active, elem_order, picks)
        if active and (witness := check.restrict(active)) is not None:
            raise HypothesisError(
                "splinter condition failed on a restricted sub-instance", witness=witness
            )
    out = tuple(picks[i] for i in range(len(f.families)))
    for i, x in enumerate(out):
        for y in out[i + 1 :]:
            if not _nested(u, x, y):
                raise CertificationError(f"transversal not nested: {x} vs {y}")
    return out


def _pick(nested: Callable, active: dict, elem_order: dict, picks: dict) -> dict:
    """Pick, for the first family that has one, its first member nested with
    an element of every other family, and record it in picks; return the
    other families restricted to the members nested with the pick.
    `nested(r, s)` tells whether two members are nested."""
    for idx in sorted(active):
        others = [fam for k, fam in active.items() if k != idx]
        for cand in sorted(active[idx], key=elem_order.__getitem__):
            if all(any(nested(cand, x) for x in fam) for fam in others):
                picks[idx] = cand
                return {
                    k: frozenset(x for x in fam if nested(cand, x))
                    for k, fam in active.items()
                    if k != idx
                }
    raise HypothesisError(
        "no family member is nested with an element of every other family",
        witness=tuple(sorted(active)),
    )


# ---------------------------------------------------------------------------
# abstract thin splinter instances

@dataclass(frozen=True)
class SplinterInstance:
    """Input to the thin splinter engine.

    elements: the ground set, in the deterministic order used for output
    assembly. families maps an index key to a non-empty subset; orders maps
    the same keys to non-negative integers. nested is a reflexive predicate
    on elements, symmetric on the instances the lemma is about. The engine
    and its hypothesis check ask it once per ordered pair of elements, to
    fill one crossing table (see `crossing_table`); work that depends on
    one element alone belongs in the construction of the instance, as in
    `separators.build_separator_instance`.

    corner_oracle, when present, must be a pure function of (a, b, target
    key). The engine never calls it. The hypothesis checker asks it once
    per distinct triple and reports every answer that is not a corner of
    a and b.
    """

    elements: tuple
    families: dict
    orders: dict
    nested: Callable
    corner_oracle: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(
            self, "families", {k: frozenset(v) for k, v in self.families.items()}
        )
        ground = set(self.elements)
        for key, fam in self.families.items():
            if not fam:
                raise PreconditionError(f"family {key!r} is empty")
            if not fam <= ground:
                raise PreconditionError(f"family {key!r} leaves the element set")
            order = self.orders.get(key)
            if not isinstance(order, int) or order < 0:
                raise PreconditionError(f"order of {key!r} must be a non-negative integer")

    def family_keys(self) -> list:
        return sorted(self.families, key=repr)



def crossing_number(inst: SplinterInstance, a, k: int) -> int:
    """Number of elements of the instance that cross a and lie in some
    family of order k."""
    level = set()
    for key, fam in inst.families.items():
        if inst.orders[key] == k:
            level |= fam
    return sum(1 for x in level if not inst.nested(a, x))


@dataclass(frozen=True)
class CrossingTable:
    """The crossing relation of an instance as bitmasks over element
    indices, filled one column per element by `crossing_table`.

    Bit j of rows[i] is set when e_i crosses e_j (not nested(e_i, e_j));
    bit i of cols[j] records the same pair from the other end. The relation
    need not be symmetric, so both are kept. fams maps each family key to
    the mask of its members, levels each order to the union of its
    families, and union is the union of all families.
    """

    index: dict
    rows: tuple
    cols: tuple
    fams: dict
    levels: dict
    union: int

    def crossing_number(self, i: int, k: int) -> int:
        return (self.rows[i] & self.levels[k]).bit_count()

    def outside(self, a: int, b: int) -> int:
        """Family members crossing neither a nor b: a corner of a and b
        is crossed by none of them."""
        return self.union & ~(self.cols[a] | self.cols[b])


def crossing_table(inst: SplinterInstance) -> CrossingTable:
    """The crossing table of inst, one column per element b, from one call
    to `inst.nested` per ordered pair."""
    elements, nested = inst.elements, inst.nested
    index = {x: i for i, x in enumerate(elements)}
    rows = [0] * len(elements)
    cols = []
    for j, b in enumerate(elements):
        col = mask_of(i for i, a in enumerate(elements) if not nested(a, b))
        for i in iter_bits(col):
            rows[i] |= 1 << j
        cols.append(col)
    fams = {key: mask_of(index[x] for x in fam) for key, fam in inst.families.items()}
    levels: dict = {}
    union = 0
    for key, m in fams.items():
        levels[inst.orders[key]] = levels.get(inst.orders[key], 0) | m
        union |= m
    return CrossingTable(index, tuple(rows), tuple(cols), fams, levels, union)


@dataclass
class ThinSplinterReport:
    """The violations of an instance and its maximal crossing numbers per
    order, with the crossing table they were read from."""

    violations: list = field(default_factory=list)
    max_crossing: dict = field(default_factory=dict)
    table: Optional[CrossingTable] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations


class _PairTests:
    """The tests of `thinly_splinters_check` on one instance and its
    crossing table. Each crossing pair (a, b) is seen once, through its
    corner mask, and each corner oracle triple is answered once."""

    def __init__(self, inst: SplinterInstance, t: CrossingTable):
        self.inst, self.t = inst, t
        self.keys = inst.family_keys()
        self.orders = [inst.orders[key] for key in self.keys]
        self.reprs = [repr(key) for key in self.keys]
        self.fams = [t.fams[key] for key in self.keys]
        self.families_of = [[] for _ in t.rows]  # per element, its families as positions in keys
        for kx, mask in enumerate(self.fams):
            for i in iter_bits(mask):
                self.families_of[i].append(kx)
        self.rank = [0] * len(t.rows)  # per element, its place in repr order
        for r, i in enumerate(sorted(range(len(t.rows)), key=lambda i: repr(inst.elements[i]))):
            self.rank[i] = r
        self.crossing = {
            k: [t.crossing_number(i, k) for i in range(len(t.rows))] for k in sorted(t.levels)
        }
        self.below = {}  # below[k][x]: the elements whose crossing number at level k is below x
        for k, cn in self.crossing.items():
            masks = [0] * (max(cn) + 2)
            for i, x in enumerate(cn):
                masks[x + 1] |= 1 << i
            for x in range(1, len(masks)):
                masks[x] |= masks[x - 1]
            self.below[k] = masks
        self.answers: dict = {}

    def corner_mask(self, ia: int, ib: int) -> int:
        """The corners of the elements indexed ia and ib: the elements
        crossed by no family member that crosses neither of them."""
        rows, crossed, out = self.t.rows, 0, self.t.outside(ia, ib)
        while out:
            low = out & -out
            crossed |= rows[low.bit_length() - 1]
            out ^= low
        return ((1 << len(rows)) - 1) & ~crossed

    def oracle_miss(self, a, b, key, cmask: int):
        """The corner oracle's answer for (a, b, key) when it is no corner,
        else None."""
        if self.inst.corner_oracle is None:
            return None
        if (a, b, key) not in self.answers:
            self.answers[a, b, key] = self.inst.corner_oracle(a, b, key)
        c = self.answers[a, b, key]
        return None if c is None or cmask >> self.t.index[c] & 1 else c

    def pair_violations(self, ia: int, ib: int, out: list) -> None:
        """Append to out the violations at the crossing pair (a, b) of the
        elements indexed ia and ib, each as (sort key, violation); see
        `thinly_splinters_check` for the keys. Each family of a and of b
        is tested once, and the pairs of families are walked only behind a
        test that fails."""
        keys, orders, reprs, fams = self.keys, self.orders, self.reprs, self.fams
        crossing, below = self.crossing, self.below
        a, b = self.inst.elements[ia], self.inst.elements[ib]
        fams_a, fams_b = self.families_of[ia], self.families_of[ib]
        cmask = self.corner_mask(ia, ib)
        nested_corners = cmask & ~self.t.cols[ia]  # the corners nested with a
        lowest = min(orders[ki] for ki in fams_a)
        top, failing = {}, {}  # per order: the largest repr of b's families, of failing ones
        for kj in fams_b:
            k, r = orders[kj], reprs[kj]
            if k > lowest:  # property 2 and the oracle at kj, for each ki of lower order
                p2 = not nested_corners & fams[kj]
                c = self.oracle_miss(a, b, keys[kj], cmask)
                if p2 or c is not None:
                    for ki in fams_a:
                        if orders[ki] >= k:
                            continue
                        place = 0, ki, kj, ia, ib
                        if p2:
                            out.append(((*place, 0), ("property-2", (keys[ki], keys[kj], a, b))))
                        if c is not None:
                            out.append(((*place, 1), ("corner-oracle", (a, b, keys[kj], c))))
            top[k] = max(top.get(k, r), r)
            if not cmask & fams[kj] & below[k][crossing[k][ib]]:
                failing[k] = max(failing.get(k, r), r)
        within = self.rank[ia] < self.rank[ib]
        for ki in fams_a:
            k, r = orders[ki], reprs[ki]
            if k in top and r < top[k]:  # property 3 and the oracle at ki, for each kj above it
                p3 = (
                    k in failing
                    and r < failing[k]
                    and not cmask & fams[ki] & below[k][crossing[k][ia]]
                )
                c = self.oracle_miss(a, b, keys[ki], cmask)
                if p3 or c is not None:
                    for kj in fams_b:
                        if orders[kj] != k or not r < reprs[kj]:
                            continue
                        place = 0, ki, kj, ia, ib
                        if p3 and not cmask & fams[kj] & below[k][crossing[k][ib]]:
                            out.append(((*place, 0), ("property-3", (keys[ki], keys[kj], a, b))))
                        if c is not None:
                            out.append(((*place, 1), ("corner-oracle", (a, b, keys[ki], c))))
            if within and fams[ki] >> ib & 1:  # property 3 inside ki
                if not cmask & fams[ki] & below[k][max(crossing[k][ia], crossing[k][ib])]:
                    place = 1, ki, self.rank[ia], self.rank[ib]
                    out.append((place, ("property-3", (keys[ki], keys[ki], a, b))))


def thinly_splinters_check(inst: SplinterInstance) -> ThinSplinterReport:
    """Verify the three thin-splinter properties.

    (1) is finiteness of crossing numbers, trivially true here; the maxima
    are recorded. (2): crossing cross-level pairs admit a corner in the
    higher family nested with the lower element. (3): crossing same-level
    pairs admit a corner in one of the two families with strictly lower
    crossing number at that level than the corresponding input.

    Every crossing pair is checked against the instance's crossing table,
    built here and carried by the report as `table`, once, by
    `_PairTests.pair_violations`. The corner mask of a crossing pair
    (a, b) holds its corners. Property 2 at a family kj then holds when
    the mask meets the members of kj nested with a, and property 3 at
    (ki, kj) when it meets the members of ki below a's crossing number or
    those of kj below b's. The corner oracle is asked once per distinct
    (a, b, target) triple, and an answer outside the corner mask is
    reported once per family pair that asks it.

    The report lists the violations in the order of
    `oracles.brute_thin_splinter_report`: a walk over the family pairs
    (ki, kj) in `family_keys()` order with oi < oj, or oi = oj and
    repr(ki) < repr(kj), then a in ki and b in kj in `inst.elements`
    order, each property entry before its oracle entry; then, family by
    family, the pairs a, b inside ki in repr order. The pair pass meets
    them in another order, so it keys each violation by its place in that
    walk: (0, ki, kj, a, b, 0 or 1 for the oracle) across families and
    (1, ki, rank of a, rank of b) inside one, with families as positions
    in `family_keys()`, elements as indices or as ranks in repr order
    (ties by index). The keys are distinct and compare as the walk visits
    them, so one sort gives the walk's order; on an instance that thinly
    splinters the list is empty. Which (ki, kj) the pass admits is decided
    by comparing reprs, as the walk does, not positions: two keys with one
    repr have distinct positions but admit no pair.
    """
    t = crossing_table(inst)
    tests = _PairTests(inst, t)
    rep = ThinSplinterReport(table=t)
    for k, cn in tests.crossing.items():
        rep.max_crossing[k] = max(cn[i] for i in iter_bits(t.union))
    found: list = []
    for ia in iter_bits(t.union):
        for ib in iter_bits(t.rows[ia] & t.union):
            tests.pair_violations(ia, ib, found)
    found.sort(key=operator.itemgetter(0))
    rep.violations = [v for _, v in found]
    return rep


@dataclass(frozen=True)
class ThinSplinterLevel:
    k: int
    added: tuple


@dataclass(frozen=True)
class ThinSplinterResult:
    nested_set: tuple
    levels: tuple[ThinSplinterLevel, ...]


def thin_splinter(inst: SplinterInstance) -> ThinSplinterResult:
    """Canonical nested set meeting every family.

    Levelwise construction: at level k, for every family of order k, all
    elements nested with the previously built set that have minimum
    k-crossing number among those are added. The union over all levels is
    returned together with per-level provenance. The thin-splinter
    hypotheses are checked first, and the output is certified (pairwise
    nested, meets every family, levels monotone) before return. The
    construction reads the crossing table of the check's report.
    """
    rep = thinly_splinters_check(inst)
    if not rep.ok:
        raise HypothesisError(
            "instance does not thinly splinter", witness=tuple(rep.violations[:3])
        )
    table = rep.table
    index, rows = table.index, table.rows
    keys = inst.family_keys()
    nested_set: list = []
    built = 0  # mask of nested_set
    levels = []
    for k in sorted(table.levels):
        added = set()
        for key in keys:
            if inst.orders[key] != k:
                continue
            candidates = [
                a
                for a in sorted(inst.families[key], key=index.__getitem__)
                if not rows[index[a]] & built
            ]
            if not candidates:
                raise HypothesisError(
                    f"family {key!r} has no element nested with the set built "
                    "so far; the thin-splinter hypotheses cannot hold",
                    witness=key,
                )
            cn = {a: table.crossing_number(index[a], k) for a in candidates}
            best = min(cn.values())
            added.update(a for a in candidates if cn[a] == best)
        new = [a for a in sorted(added, key=index.__getitem__) if not built >> index[a] & 1]
        levels.append(ThinSplinterLevel(k, tuple(new)))
        nested_set.extend(new)
        built |= mask_of(index[a] for a in new)

    for i, x in enumerate(nested_set):
        for y in nested_set[i + 1 :]:
            if rows[index[x]] >> index[y] & 1:
                raise CertificationError(f"thin splinter output not nested: {x!r} vs {y!r}")
    for key in keys:
        if not table.fams[key] & built:
            raise CertificationError(f"thin splinter output misses family {key!r}")
    return ThinSplinterResult(tuple(nested_set), tuple(levels))
