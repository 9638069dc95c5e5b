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
from itertools import compress, count, repeat
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
    """The splinter condition of one instance, tested once per ordered
    member pair: whole once, and then on each restriction that
    `splinter_finite` makes of it.

    Masks. Families are bit positions, by index. M(x) is the mask of the
    families that hold x, and U(x) = M(x) | M(x*) that of the families
    that hold x unoriented; U(x) = U(x*), as star is an involution.

    Lemma (the finite splinter condition over member pairs). For members
    s and t let C be the union of U over their corners s ∨ t, s ∨ t*,
    s* ∨ t and s* ∨ t*. Then (i, j, s, t) offends exactly when i is in
    A = M(s) ∖ (U(t) ∪ C) and j is in B = M(t) ∖ (U(s) ∪ C).
    Proof. The walk of `splinters_check` tests (i, j, s, t) when s is in
    family i (i ∈ M(s)) and t in family j (j ∈ M(t)), and skips it when s
    or s* is in family j (j ∈ U(s)) or t or t* in family i (i ∈ U(t)). A
    tested pair offends when no corner c has c or c* in family i or j,
    that is i ∉ U(c) and j ∉ U(c) for all four: i, j ∉ C. Together these
    read i ∈ A and j ∈ B. Then i ≠ j, since i ∈ M(s) ⊆ U(s) and j ∉ U(s).
    So an instance fails exactly when an ordered pair (s, t) of members
    has A and B both non-empty, and its first offence is the least
    (min A, min B, s, t) over those pairs; the pair is ordered, so a join
    that does not commute is read as the walk reads it, s first.

    Keys. Every member and its star gets a key, and a corner of two keys
    is a key. When the universe passes `core.codable` with the members
    and their stars, the key of (A, B) is the int A << w | (full & ~B),
    w the widest of their masks, and a corner is the | of two keys (its
    masks are no wider; the key of its star is the & of the two star
    keys). Any other universe keys an element by itself and makes corners
    with u.join. U is kept under the keys of the members and of their
    stars, so the U of a corner is one lookup of its own key: a corner c
    with U(c) ≠ 0 has c or c* in a family, so it is a member or the star
    of one, and any other corner adds nothing to C.

    Restrictions. A restriction drops families and members of the
    families that stay; masks only lose bits. Bit k of A and of B depends
    only on bit k of M(s), M(t), U(s), U(t) and the U of the corners.
    Dropping family k clears bit k of every mask, so bit k leaves A and
    B, and no pair starts to fail. In a family that stays, A ⊆ M(s) gains
    a bit only where U(t) or C lost one, and B only where U(s) or C lost
    one; a pair that passed (A or B empty) and gained no bit still
    passes. So a restriction re-tests only the pairs (s, t) where U(s),
    U(t) or the U of a corner lost a bit of a family that stays:
    - every pair of a member whose U lost a bit, with any member that is
      still in a family;
    - the pairs watched by the key of such a member or of its star. A
      pair that passes with A empty is watched by those of its corners
      whose U meets a = M(s) ∖ U(t), and with B empty by those whose U
      meets b = M(t) ∖ U(s) (A ⊆ a and B ⊆ b). An empty A gains a bit
      from C only inside a, and while U(t) keeps its bits a can only
      shrink; once U(t) or U(s) loses a bit, the pair is re-tested under
      the first rule and watched anew.
    A pair with s or t in no family has A or B empty, and is not tested.
    The failing pairs of a restriction are among those it re-tests, so
    the least of them is the first offence of the restricted families
    checked from scratch.

    Nestedness. `nested(r, s)` is `_nested(u, r, s)` for the members of
    positions r and s. When the members are coded as separations and
    u.leq is `core.leq`, it reads the codes: (A, B) ≤ (C, D) iff A ⊆ C
    and D ⊆ B, iff the code of (A, B) lies inside that of (C, D), and
    r* ≤ s* iff s ≤ r.
    """

    def __init__(self, u: UniverseView, families):
        """Test the families, sequences of members of u, whole, one test
        per ordered pair of members. Members are numbered as first met, and
        `families` maps each family index to the positions of its members
        in the order given."""
        self.universe = u
        position: dict = {}
        self.families = {
            k: [position.setdefault(x, len(position)) for x in fam]
            for k, fam in enumerate(families)
        }
        self.elements = elements = list(position)
        stars = [u.star(x) for x in elements]
        self.nested = lambda r, s: _nested(u, elements[r], elements[s])
        if codable(u, (*elements, *stars)):
            w = max(((x.a | x.b).bit_length() for x in (*elements, *stars)), default=0)
            full = (1 << w) - 1
            keys = [x.a << w | (full & ~x.b) for x in elements]
            skeys = [x.a << w | (full & ~x.b) for x in stars]
            self.corner = operator.or_
            if u.leq is leq:
                self.nested = lambda r, s: _nested_codes(keys[r], skeys[r], keys[s], skeys[s])
        else:
            keys, skeys, self.corner = elements, stars, u.join
        self.keys, self.skeys = keys, skeys
        self.position = dict(zip(keys, range(len(keys))))
        self.M = M = [0] * len(elements)
        for k, fam in self.families.items():
            for m in fam:
                M[m] |= 1 << k
        self.U = U = {}
        for m, skey in enumerate(skeys):
            star_at = self.position.get(skey)
            U[keys[m]] = U[skey] = M[m] if star_at is None else M[m] | M[star_at]
        self.watch: dict = {}  # key -> the pairs (s, t) watched by it
        every = range(len(elements))
        self.failure = self.check_pairs([(s, every) for s in every])

    def restrict(self, kept: dict):
        """The first failing (i, j, s, t) of the restriction `kept` (family
        index -> the positions of the members that stay, in the order of
        `families`), or None. Each family of `kept` is a subset of its
        previous members, and the families missing from `kept` are
        dropped."""
        M, U, keys, skeys, position = self.M, self.U, self.keys, self.skeys, self.position
        for k in self.families.keys() - kept.keys():
            clear = ~(1 << k)
            for m in self.families.pop(k):
                M[m] &= clear
                U[keys[m]] &= clear
                U[skeys[m]] &= clear
        lost = set()  # positions of the members whose U lost a bit
        for k, fam in kept.items():
            bit = 1 << k
            gone = set(self.families[k]).difference(fam)
            self.families[k] = fam
            for m in gone:
                M[m] &= ~bit
            for m in gone:
                star_at = position.get(skeys[m])
                if star_at is None or not M[star_at] & bit:
                    U[keys[m]] &= ~bit
                    U[skeys[m]] &= ~bit
                    lost.add(m)
                    if star_at is not None:
                        lost.add(star_at)
        alive = [m for m, mask in enumerate(M) if mask]
        rows: dict = {}
        for m in lost:
            if M[m]:
                rows.setdefault(m, set()).update(alive)
                for s in alive:
                    rows.setdefault(s, set()).add(m)
        watch = self.watch
        for m in lost:
            for key in {keys[m], skeys[m]}:
                for s, t in watch.get(key, ()):
                    if M[s] and M[t]:
                        rows.setdefault(s, set()).add(t)
        return self.check_pairs(rows.items())

    def check_pairs(self, rows):
        """Test the pairs (s, t) of `rows`, an iterable of (s, positions t),
        by the lemma, and watch each pair that passes by its corners. The
        first failing (i, j, s, t), read off all the failing pairs, or
        None."""
        M, U, keys, skeys, watch = self.M, self.U, self.keys, self.skeys, self.watch
        corner, get = self.corner, U.get
        failing = []
        for s, ts in rows:
            ms, us, ks, kss = M[s], U[keys[s]], keys[s], skeys[s]
            if not ms:
                continue
            for t in ts:
                a = ms & ~U[keys[t]]
                if not a:
                    continue
                b = M[t] & ~us
                if not b:
                    continue
                kt, kts = keys[t], skeys[t]
                c1, c2, c3, c4 = corner(ks, kt), corner(ks, kts), corner(kss, kt), corner(kss, kts)
                u1, u2, u3, u4 = get(c1, 0), get(c2, 0), get(c3, 0), get(c4, 0)
                c = u1 | u2 | u3 | u4
                if not a & ~c:
                    empty = a  # A stays empty while no corner meeting a loses a bit of it
                elif not b & ~c:
                    empty = b
                else:
                    failing.append((s, t, a & ~c, b & ~c))
                    continue
                for key, uc in ((c1, u1), (c2, u2), (c3, u3), (c4, u4)):
                    if uc & empty:
                        watch.setdefault(key, set()).add((s, t))
        if not failing:
            return None
        rank = {x: r for r, x in enumerate(self.universe.elements)}
        elements = self.elements
        i, j, _, _, s, t = min(
            (next(iter_bits(a)), next(iter_bits(b)), rank[elements[s]], rank[elements[t]], s, t)
            for s, t, a, b in failing
        )
        return i, j, elements[s], elements[t]


def splinters_check(f: FiniteSplinterFamily):
    """Check the splinter condition for every pair of families.

    Returns (True, None) or (False, witness) where witness is the first
    offending (i, j, s, t): families i, then j, then s in family i and t in
    family j in universe order. A pair (s, t) with s or s* in family j, or
    t or t* in family i, is skipped; any other pair offends when none of
    its corners s ∨ t, s ∨ t*, s* ∨ t, s* ∨ t* lies in family i or j,
    unoriented. `_Splinters` runs the check, one test per ordered pair of
    members.
    """
    failure = _Splinters(f.universe, f.families).failure
    return failure is None, failure


def splinter_finite(f: FiniteSplinterFamily) -> tuple:
    """Pick one element from each family so that the picks are pairwise
    nested. Requires the splinter condition; it is checked on the whole
    instance and on every restricted sub-instance, and a failure raises
    HypothesisError."""
    return _transversal(f, "splinter condition failed on the whole instance")


def _transversal(f: FiniteSplinterFamily, failure: str) -> tuple:
    """`splinter_finite`, raising HypothesisError(failure) when the whole
    instance does not splinter. The whole instance is tested once, one
    test per ordered member pair, and each restriction only on the pairs
    it touched (see `_Splinters`)."""
    u = f.universe
    rank = {x: i for i, x in enumerate(u.elements)}
    check = _Splinters(u, [sorted(fam, key=rank.__getitem__) for fam in f.families])
    if check.failure is not None:
        raise HypothesisError(failure, witness=check.failure)
    picks: dict[int, object] = {}
    while check.families and (kept := _pick(check, picks)):
        if (witness := check.restrict(kept)) is not None:
            raise HypothesisError(
                "splinter condition failed on a restricted sub-instance", witness=witness
            )
    out = tuple(picks[i] for i in range(len(f.families)))
    for i, x in enumerate(out):
        for y in out[i + 1 :]:
            if not _nested(u, x, y):
                raise CertificationError(f"transversal not nested: {x} vs {y}")
    return out


def _pick(check: _Splinters, picks: dict) -> dict:
    """Pick, for the first family that has one, its first member nested with
    an element of every other family, and record it in picks; return the
    other families restricted to the members nested with the pick. The
    families of `check.families` are keyed in ascending order and list the
    positions of their members in universe order."""
    nested, families = check.nested, check.families
    for idx, fam in families.items():
        others = [other for k, other in families.items() if k != idx]
        for cand in fam:
            if all(any(nested(cand, x) for x in other) for other in others):
                picks[idx] = check.elements[cand]
                return {
                    k: [x for x in other if nested(cand, x)]
                    for k, other in families.items()
                    if k != idx
                }
    raise HypothesisError(
        "no family member is nested with an element of every other family",
        witness=tuple(families),
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

    The elements must be distinct, which is checked: the crossing table
    numbers them by position.

    corner_oracle, when present, must be a pure function of (a, b). It
    returns a mapping from each target family key that has an answer for
    a and b to that answer; a key missing from the mapping has no answer.
    The engine never calls it. The hypothesis checker asks it once per
    crossing pair that asks about some target, and reports every answer
    it reads that is not a corner of a and b. An answer may be any value,
    an element or not: a corner is anything with which every family
    member nested with both a and b is nested, asked through `nested` for
    a non-element (`oracles.is_corner`).
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
        if len(ground) != len(self.elements):
            raise PreconditionError("elements must be distinct")
        for key, fam in self.families.items():
            if not fam:
                raise PreconditionError(f"family {key!r} is empty")
            if not fam <= ground:
                raise PreconditionError(f"family {key!r} leaves the element set")
            order = self.orders.get(key)
            if type(order) is not int or order < 0:
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
    families, and union is the union of all families. crossing maps each
    order k, ascending, to the k-crossing number of every element, by
    index: the number of members of level k that it crosses, as
    `crossing_number` counts them.
    """

    index: dict
    rows: tuple
    cols: tuple
    fams: dict
    levels: dict
    union: int
    crossing: dict

    def outside(self, a: int, b: int) -> int:
        """Family members crossing neither a nor b: a corner of a and b
        is crossed by none of them."""
        return self.union & ~(self.cols[a] | self.cols[b])


def crossing_table(inst: SplinterInstance) -> CrossingTable:
    """The crossing table of inst, one column per element b, from one call
    to `inst.nested` per ordered pair; each crossing number is counted off
    its element's row once, for the check and the construction alike."""
    elements, nested = inst.elements, inst.nested
    index = {x: i for i, x in enumerate(elements)}
    rows = [0] * len(elements)
    cols = []
    for j, b in enumerate(elements):
        bit, col = 1 << j, 0
        for i in compress(count(), map(operator.not_, map(nested, elements, repeat(b)))):
            col |= 1 << i
            rows[i] |= bit
        cols.append(col)
    fams = {key: mask_of(index[x] for x in fam) for key, fam in inst.families.items()}
    levels: dict = {}
    union = 0
    for key, m in fams.items():
        levels[inst.orders[key]] = levels.get(inst.orders[key], 0) | m
        union |= m
    crossing = {k: [(row & levels[k]).bit_count() for row in rows] for k in sorted(levels)}
    return CrossingTable(index, tuple(rows), tuple(cols), fams, levels, union, crossing)


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


class _Unions:
    """`over(mask)` is the union of values[i] over the bits i of mask. Each
    byte of the index range has a table of the unions of its 256 subsets,
    so a mask costs one lookup per byte, all made by `map` and `reduce`
    (the "four Russians" table method: Arlazarov, Dinic, Kronrod and
    Faradzev, 1970)."""

    def __init__(self, values: list):
        self.tables = []
        for start in range(0, len(values), 8):
            table = [0]
            for value in values[start : start + 8]:
                table += [x | value for x in table]
            self.tables.append(table)

    def over(self, mask: int) -> int:
        chunks = mask.to_bytes(len(self.tables), "little")
        return functools.reduce(operator.or_, map(list.__getitem__, self.tables, chunks), 0)


class _PairTests:
    """The tests of `thinly_splinters_check` on one instance and its
    crossing table. Each crossing pair (a, b) is seen once, through its
    corner mask, and the corner oracle is asked once for the pair's
    answers, when the pair asks about some target.

    Families are positions in `family_keys()`, that is in repr order, and
    a set of families is a mask over them. `families_of` gives each
    element's, `levels` each order's (ascending), `lower[kj]` those of
    lower order than kj, `later[ki]` those of ki's order with a larger
    repr, the kj that the walk pairs with ki at one level, and
    `smaller[kx]` those with a smaller repr than kx. A repr, not a
    position, decides which pairs the walk makes, so two keys with one
    repr are never paired."""

    def __init__(self, inst: SplinterInstance, t: CrossingTable):
        self.inst, self.t = inst, t
        self.keys = inst.family_keys()
        orders = [inst.orders[key] for key in self.keys]
        reprs = [repr(key) for key in self.keys]
        self.families_of = [0] * len(t.rows)
        for kx, mask in enumerate(map(t.fams.__getitem__, self.keys)):
            for i in iter_bits(mask):
                self.families_of[i] |= 1 << kx
        self.crossed_by = _Unions(t.rows).over  # the elements crossed by one of a mask
        self.bit_of = {x: 1 << i for x, i in t.index.items()}
        level: dict = {}
        first, last = {}, {}  # per repr, the first and last position holding it
        for kx, (k, r) in enumerate(zip(orders, reprs)):
            level[k] = level.get(k, 0) | 1 << kx
            first.setdefault(r, kx)
            last[r] = kx
        self.levels = sorted(level.items())
        lower, under = {}, 0  # per order, the families of all lower orders
        for k, mask in self.levels:
            lower[k], under = under, under | mask
        self.lower = [lower[k] for k in orders]
        self.smaller = [(1 << first[r]) - 1 for r in reprs]
        self.later = [level[k] & -(2 << last[r]) for k, r in zip(orders, reprs)]
        self.rank = [0] * len(t.rows)  # per element, its place in repr order
        for r, i in enumerate(sorted(range(len(t.rows)), key=lambda i: repr(inst.elements[i]))):
            self.rank[i] = r
        self.below = {}  # below[k][x]: the elements whose crossing number at level k is below x
        for k, cn in t.crossing.items():
            masks = [0] * (max(cn) + 2)
            for i, x in enumerate(cn):
                masks[x + 1] |= 1 << i
            for x in range(1, len(masks)):
                masks[x] |= masks[x - 1]
            self.below[k] = masks

    def corner_mask(self, ia: int, ib: int) -> int:
        """The corners of the elements indexed ia and ib: the elements
        crossed by no family member that crosses neither of them."""
        return ((1 << len(self.t.rows)) - 1) & ~self.crossed_by(self.t.outside(ia, ib))

    def meeting(self, mask: int) -> int:
        """The families that hold an element of mask."""
        families_of, out = self.families_of, 0
        while mask:
            low = mask & -mask
            out |= families_of[low.bit_length() - 1]
            mask ^= low
        return out

    def oracle_misses(self, ia: int, ib: int, asked: int, cmask: int) -> dict:
        """The corner oracle's answers for the elements indexed ia and ib
        and the targets at the positions of `asked` that are no corners,
        by position, from one call to the oracle. An element is read off
        the corner mask cmask. Any other answer is a corner when every
        family member crossing neither a nor b is nested with it, asked
        through `nested` as `oracles.is_corner` asks it."""
        elements, keys, bit_of = self.inst.elements, self.keys, self.bit_of
        answers = self.inst.corner_oracle(elements[ia], elements[ib])
        misses = {}
        for kx in iter_bits(asked):
            c = answers.get(keys[kx])
            if c is None or bit_of.get(c, 0) & cmask:
                continue
            outside = iter_bits(self.t.outside(ia, ib))
            if c in bit_of or not all(self.inst.nested(elements[x], c) for x in outside):
                misses[kx] = c
        return misses

    def pair_violations(self, ia: int, ib: int, out: list) -> None:
        """Append to out the violations at the crossing pair (a, b) of the
        elements indexed ia and ib, each as (sort key, violation); see
        `thinly_splinters_check` for the keys.

        The tests are family masks, made level by level, and the pairs of
        families are walked only behind a test that fails. At a level, fa
        and fb hold the families of a and of b there.
        - Property 2 and its oracle are asked at the kj of b above a's
          lowest level (`ask2`), which are the kj with some ki of a in
          lower[kj]. Property 2 fails at those that hold no corner nested
          with a (`fail2`).
        - Property 3 and its oracle are asked at the ki of a whose repr is
          below that of b's largest family at its level (`top`, `ask3`),
          which are the ki with some kj of b in later[ki]. b's side of
          (ki, kj) fails at the kj in `failing`, a's side at the ki in
          `p3`, those with no corner in ki below a's crossing number, and
          the pair fails when both sides do. a's side is only tested when
          some asked ki has a smaller repr than a failing kj.
        - Inside a family of both, the test reads the larger crossing
          number (`inside`).
        Each test is the one the walk of `oracles.brute_thin_splinter_report`
        makes at that place, on the same corner mask, and each mask bit
        stands for one family position, so the pass finds the walk's
        violations; a violation's key names its place (ki, kj, a, b)
        however the pass reaches it, so the one sort of the report puts
        them in the walk's order."""
        smaller, crossing, below, meeting = self.smaller, self.t.crossing, self.below, self.meeting
        fams_a, fams_b = self.families_of[ia], self.families_of[ib]
        cmask = self.corner_mask(ia, ib)
        within = self.rank[ia] < self.rank[ib]
        ask2 = ask3 = failing = p3 = inside = seen_a = 0
        for k, level in self.levels:
            fa, fb = fams_a & level, fams_b & level
            if fb and seen_a:
                ask2 |= fb
            if fa and fb:
                cn_a, cn_b = crossing[k][ia], crossing[k][ib]
                top = smaller[fb.bit_length() - 1]  # the reprs below b's largest here
                asked = fa & top
                if asked:
                    ask3 |= asked
                    fail_b = fb & ~meeting(cmask & below[k][cn_b])
                    failing |= fail_b
                    if fail_b and asked & smaller[fail_b.bit_length() - 1]:
                        p3 |= asked & ~meeting(cmask & below[k][cn_a])
                if within and fa & fb:
                    inside |= fa & fb & ~meeting(cmask & below[k][max(cn_a, cn_b)])
            seen_a |= fa
        nested_corners = cmask & ~self.t.cols[ia]  # the corners nested with a
        fail2 = ask2 & ~meeting(nested_corners) if ask2 else 0
        asked = ask2 | ask3
        has_oracle = self.inst.corner_oracle is not None
        misses = self.oracle_misses(ia, ib, asked, cmask) if asked and has_oracle else {}
        missed = mask_of(misses) if misses else 0
        if not fail2 | p3 | inside | missed:
            return
        keys, lower, later = self.keys, self.lower, self.later
        a, b = self.inst.elements[ia], self.inst.elements[ib]
        for kj in iter_bits(ask2 & (fail2 | missed)):
            for ki in iter_bits(fams_a & lower[kj]):
                place = 0, ki, kj, ia, ib
                if fail2 >> kj & 1:
                    out.append(((*place, 0), ("property-2", (keys[ki], keys[kj], a, b))))
                if kj in misses:
                    out.append(((*place, 1), ("corner-oracle", (a, b, keys[kj], misses[kj]))))
        for ki in iter_bits(ask3 & (p3 | missed)):
            for kj in iter_bits(fams_b & later[ki]):
                place = 0, ki, kj, ia, ib
                if p3 >> ki & 1 and failing >> kj & 1:
                    out.append(((*place, 0), ("property-3", (keys[ki], keys[kj], a, b))))
                if ki in misses:
                    out.append(((*place, 1), ("corner-oracle", (a, b, keys[ki], misses[ki]))))
        for ki in iter_bits(inside):
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
    those of kj below b's. The corner oracle is asked once per crossing
    pair that asks about some target, for all of the pair's answers, and
    an answer that is no corner (an element outside the corner mask, or a
    non-element that a member crossing neither a nor b crosses) is
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
    for k, cn in t.crossing.items():
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
    for k, crossing in table.crossing.items():
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
            cn = {a: crossing[index[a]] for a in candidates}
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
