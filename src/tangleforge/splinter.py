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

from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import UniverseView, iter_bits, mask_of
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


def _contains_unoriented(u: UniverseView, fam, x) -> bool:
    return x in fam or u.star(x) in fam


def _corners(u: UniverseView, r, s):
    return (
        u.join(r, s),
        u.join(r, u.star(s)),
        u.join(u.star(r), s),
        u.join(u.star(r), u.star(s)),
    )


def splinters_check(f: FiniteSplinterFamily):
    """Check the splinter condition for every pair of families.

    Returns (True, None) or (False, witness) where witness is the first
    offending (i, j, s, t) in deterministic order.
    """
    u = f.universe
    fams = f.families
    elem_order = {x: i for i, x in enumerate(u.elements)}

    def ordered(fam):
        return sorted(fam, key=elem_order.__getitem__)

    for i, fam_i in enumerate(fams):
        for j, fam_j in enumerate(fams):
            for s in ordered(fam_i):
                if _contains_unoriented(u, fam_j, s):
                    continue
                for t in ordered(fam_j):
                    if _contains_unoriented(u, fam_i, t):
                        continue
                    if not any(
                        _contains_unoriented(u, fam_i, c) or _contains_unoriented(u, fam_j, c)
                        for c in _corners(u, s, t)
                    ):
                        return False, (i, j, s, t)
    return True, None


def splinter_finite(f: FiniteSplinterFamily) -> tuple:
    """Pick one element from each family so that the picks are pairwise
    nested. Requires the splinter condition; it is re-checked on every
    restricted sub-instance and a failure raises HypothesisError."""
    u = f.universe
    elem_order = {x: i for i, x in enumerate(u.elements)}
    picks: dict[int, object] = {}

    def solve(active: dict):
        if not active:
            return
        ok, witness = splinters_check(
            FiniteSplinterFamily(u, tuple(active.values()))
        )
        if not ok:
            keys = list(active.keys())
            i, j, s, t = witness
            raise HypothesisError(
                "splinter condition failed on a restricted sub-instance",
                witness=(keys[i], keys[j], s, t),
            )
        for idx in sorted(active):
            others = [fam for k, fam in active.items() if k != idx]
            for cand in sorted(active[idx], key=elem_order.__getitem__):
                if all(any(_nested(u, cand, x) for x in fam) for fam in others):
                    picks[idx] = cand
                    rest = {
                        k: frozenset(x for x in fam if _nested(u, cand, x))
                        for k, fam in active.items()
                        if k != idx
                    }
                    solve(rest)
                    return
        raise HypothesisError(
            "no family member is nested with an element of every other family",
            witness=tuple(sorted(active)),
        )

    solve({i: fam for i, fam in enumerate(f.families)})
    out = tuple(picks[i] for i in range(len(f.families)))
    for i, x in enumerate(out):
        for y in out[i + 1 :]:
            if not _nested(u, x, y):
                raise CertificationError(f"transversal not nested: {x} vs {y}")
    return out


# ---------------------------------------------------------------------------
# abstract thin splinter instances

@dataclass(frozen=True)
class SplinterInstance:
    """Input to the thin splinter engine.

    elements: the ground set, in the deterministic order used for output
    assembly. families maps an index key to a non-empty subset; orders maps
    the same keys to non-negative integers. nested is a reflexive predicate
    on elements, symmetric on the instances the lemma is about; it is read
    once per ordered pair (see `crossing_table`). corner_oracle, when
    present, is advisory: the engine never calls it, the hypothesis checker
    uses it for diagnostics.
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
    indices, filled with one `nested` call per ordered pair of elements.

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
    """The crossing table of inst, from |E|² calls to `inst.nested`."""
    index = {x: i for i, x in enumerate(inst.elements)}
    rows = [0] * len(inst.elements)
    cols = [0] * len(inst.elements)
    for i, a in enumerate(inst.elements):
        for j, b in enumerate(inst.elements):
            if not inst.nested(a, b):
                rows[i] |= 1 << j
                cols[j] |= 1 << i
    fams = {key: mask_of(index[x] for x in fam) for key, fam in inst.families.items()}
    levels: dict = {}
    union = 0
    for key, m in fams.items():
        levels[inst.orders[key]] = levels.get(inst.orders[key], 0) | m
        union |= m
    return CrossingTable(index, tuple(rows), tuple(cols), fams, levels, union)


@dataclass
class ThinSplinterReport:
    violations: list = field(default_factory=list)
    max_crossing: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def thinly_splinters_check(
    inst: SplinterInstance, table: Optional[CrossingTable] = None
) -> ThinSplinterReport:
    """Verify the three thin-splinter properties.

    (1) is finiteness of crossing numbers, trivially true here; the maxima
    are recorded. (2): crossing cross-level pairs admit a corner in the
    higher family nested with the lower element. (3): crossing same-level
    pairs admit a corner in one of the two families with strictly lower
    crossing number at that level than the corresponding input.

    Every pair is checked, against the instance's crossing table (built
    here unless `table` is that of `inst`). A corner oracle answers with a
    member of the family it is asked about, or None.
    """
    t = crossing_table(inst) if table is None else table
    index, rows, cols = t.index, t.rows, t.cols
    rep = ThinSplinterReport()
    keys = inst.family_keys()
    crossing = {
        k: [t.crossing_number(i, k) for i in range(len(rows))] for k in sorted(t.levels)
    }
    for k, cn in crossing.items():
        rep.max_crossing[k] = max(cn[i] for i in iter_bits(t.union))

    members = {key: [index[x] for x in inst.families[key]] for key in keys}

    def corners(key, a, b):
        """Indices of the members of family `key` that are corners of the
        elements indexed a and b."""
        out = t.outside(a, b)
        return [c for c in members[key] if not cols[c] & out]

    def oracle_check(a, b, key):
        if inst.corner_oracle is None:
            return
        c = inst.corner_oracle(a, b, key)
        if c is not None and cols[index[c]] & t.outside(index[a], index[b]):
            rep.violations.append(("corner-oracle", (a, b, key, c)))

    for ki in keys:
        for kj in keys:
            oi, oj = inst.orders[ki], inst.orders[kj]
            if oi < oj:
                for a in inst.families[ki]:
                    ia = index[a]
                    for b in inst.families[kj]:
                        ib = index[b]
                        if not rows[ia] >> ib & 1:
                            continue
                        if not any(not cols[ia] >> c & 1 for c in corners(kj, ia, ib)):
                            rep.violations.append(("property-2", (ki, kj, a, b)))
                        oracle_check(a, b, kj)
            elif oi == oj and repr(ki) < repr(kj):
                cn = crossing[oi]
                for a in inst.families[ki]:
                    ia = index[a]
                    for b in inst.families[kj]:
                        ib = index[b]
                        if not rows[ia] >> ib & 1:
                            continue
                        good = any(cn[c] < cn[ia] for c in corners(ki, ia, ib)) or any(
                            cn[c] < cn[ib] for c in corners(kj, ia, ib)
                        )
                        if not good:
                            rep.violations.append(("property-3", (ki, kj, a, b)))
                        oracle_check(a, b, ki)
    # same-level crossings inside one family also fall under property 3
    for ki in keys:
        cn = crossing[inst.orders[ki]]
        fam = sorted(inst.families[ki], key=repr)
        for pos, a in enumerate(fam):
            ia = index[a]
            for b in fam[pos + 1 :]:
                ib = index[b]
                if not rows[ia] >> ib & 1:
                    continue
                worst = max(cn[ia], cn[ib])
                if not any(cn[c] < worst for c in corners(ki, ia, ib)):
                    rep.violations.append(("property-3", (ki, ki, a, b)))
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
    nested, meets every family, levels monotone) before return.
    """
    table = crossing_table(inst)
    rep = thinly_splinters_check(inst, table)
    if not rep.ok:
        raise HypothesisError(
            "instance does not thinly splinter", witness=tuple(rep.violations[:3])
        )
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
