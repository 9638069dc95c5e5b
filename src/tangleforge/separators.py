"""Separator-level machinery: the canonical nested separator set for a
family of profiles, and its conversion into a nested set of separations.

Separators (vertex sets that carry an efficient distinguisher for some
profile pair) come with their own nestedness relation: X is nested with Y
when Y does not properly separate two vertices of X. On genuine
distinguishing separators this relation is symmetric, which is what lets
the thin splinter engine run on separators where it would fail on
separations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Graph,
    Separation,
    canonical,
    is_nested,
    is_separation,
    sep_sort_key,
    star,
    vertices_of,
)
from .errors import CertificationError, PreconditionError
from .profiles import Profile, distinguisher_sets, principal_flags
from .splinter import SplinterInstance, ThinSplinterResult, thin_splinter


def separator_sort_key(mask: int) -> tuple:
    return (mask.bit_count(), vertices_of(mask))


# ---------------------------------------------------------------------------
# the separator nestedness relation

def separator_nested(g: Graph, x: int, y: int) -> bool:
    """x is nested with y: x ⊆ C ∪ y for some component C of G - y.

    Equivalently, y does not properly separate two vertices of x. Symmetric
    when both sets genuinely distinguish profile pairs, not in general.
    """
    if (x | y) & ~g.vertices:
        raise PreconditionError("separators must lie inside the graph")
    return not x & ~y or any(not x & ~(comp | y) for comp in g.components(y))


# ---------------------------------------------------------------------------
# canonical nested separator sets

def build_separator_instance(g: Graph, profiles) -> tuple[SplinterInstance, dict]:
    """The separator families of every profile pair as a splinter instance,
    together with the pairs' distinguisher sets, keyed (i, j) like the
    families. The profiles must be regular, which is checked; robustness is
    the caller's hypothesis (see `profiles.pipeline_profiles`).

    The instance's `nested(a, b)` is `separator_nested(g, a, b)`. One
    `components` call per element b gives the component of G - b at each
    vertex outside b. The rest r = a ∖ b of a lies in one side C ∪ b
    exactly when it lies in C, and the components are disjoint, so C can
    only be the component at r's least vertex: one lookup per call.

    The instance's corner oracle answers every target of a pair (a, b)
    from one pass over the pair's corners, made on its first question
    about the pair and kept in a memo local to this instance (see
    `_first_corners`)."""
    profiles = tuple(profiles)
    if not all(p.is_regular(g) for p in profiles):
        raise PreconditionError("profiles must be regular")
    distinguishers = distinguisher_sets(g, profiles)
    families = {}
    orders = {}
    owners: dict = {}  # a distinguisher, in either orientation -> {key of its pair: separator}
    witnesses: dict[int, dict] = {}  # mask -> its witnesses over all pairs, each once
    for key, dset in distinguishers.items():
        if not dset:
            i, j = key
            raise PreconditionError(f"profiles {i} and {j} are indistinguishable")
        seps = [a & b for a, b in dset.seps]
        families[key] = frozenset(seps)
        orders[key] = dset.order
        for s, sep in zip(dset.seps, seps):
            witnesses.setdefault(sep, {})[s] = None
            owners.setdefault(s, {})[key] = sep
            owners.setdefault(s[::-1], {})[key] = sep

    elements = tuple(sorted(witnesses, key=separator_sort_key))
    comp_at: dict = {}  # y -> {v: the component of G - y holding v}, v as a one-bit mask
    for y in elements:
        at = comp_at[y] = {}
        for comp in g.components(y):
            rest = comp
            while rest:
                low = rest & -rest
                at[low] = comp
                rest ^= low

    def nested(a, b):
        r = a & ~b
        return not r or not r & ~comp_at[b][r & -r]

    corners: dict = {}  # (a, b) -> its `_first_corners`

    def corner_oracle(a, b, target_key):
        """The separator of the first corner of a and b, in witness order,
        that is a member of the target pair's distinguisher set."""
        first = corners.get((a, b))
        if first is None:
            first = corners[a, b] = _first_corners(a, b, witnesses, owners)
        return first.get(target_key)

    instance = SplinterInstance(
        elements=elements,
        families=families,
        orders=orders,
        nested=nested,
        corner_oracle=corner_oracle,
    )
    return instance, distinguishers


def _first_corners(a: int, b: int, witnesses: dict, owners: dict) -> dict:
    """Each pair key with a member among the corners of the separators a
    and b, mapped to the separator of the first such corner.

    A corner is the join (xa ∪ ya, xb ∩ yb) of a witness of a and one of
    b, each in both orientations, taken in witness order: the witnesses of
    a, then those of b, then the orientations of each, so that (p, q) and
    (u, v) give (p ∪ u, q ∩ v), (p ∪ v, q ∩ u), (q ∪ u, p ∩ v) and
    (q ∪ v, p ∩ u) in that order. `owners` maps every member of a pair's
    distinguisher set, in either orientation, to the keys of the pairs
    whose set holds it, each with the member's separator. The corners are
    entered last to first, each over the keys of the ones before it, so a
    key keeps the first corner that reaches it: the corner a scan of that
    key's members alone would stop at."""
    first: dict = {}
    for p, q in reversed(witnesses[a]):
        for u, v in reversed(witnesses[b]):
            for corner in ((q | v, p & u), (q | u, p & v), (p | v, q & u), (p | u, q & v)):
                first.update(owners.get(corner, ()))
    return first


@dataclass(frozen=True)
class NestedSeparators:
    """The canonical nested separator set with the input it was built from:
    the profiles and the distinguisher set of each pair, keyed (i, j)."""

    separators: tuple[int, ...]
    result: ThinSplinterResult
    instance: SplinterInstance
    profiles: tuple[Profile, ...]
    distinguishers: dict


def canonical_nested_separators(g: Graph, profiles) -> NestedSeparators:
    """Canonical nested set of separators efficiently distinguishing every
    pair of the given (distinguishable, robust, regular) profiles.
    Regularity is checked; robustness is the caller's hypothesis."""
    profiles = tuple(profiles)
    instance, distinguishers = build_separator_instance(g, profiles)
    result = thin_splinter(instance) if instance.families else ThinSplinterResult((), ())
    separators = tuple(sorted(result.nested_set, key=separator_sort_key))
    return NestedSeparators(separators, result, instance, profiles, distinguishers)


# ---------------------------------------------------------------------------
# separators -> separations

def separators_to_separations(g: Graph, nested: NestedSeparators) -> tuple[Separation, ...]:
    """Convert a nested separator set into a nested set of separations that
    still distinguishes every profile pair efficiently: each pair's
    distinguisher set, as `nested` carries it, meets the output.

    Separators are processed in ascending size (ties by vertex order). For
    each separator the tight components of its complement receive one
    emission each; non-tight components are grouped with the tight
    component their already-emitted separations point to, which is exactly
    the bookkeeping that keeps the accumulated set nested. Disconnected
    graphs need no special handling: cross-component profile pairs place
    the empty separator in the set, and its emissions are precisely the
    component separations.
    """
    for idx, principal in enumerate(principal_flags(g, nested.profiles)):
        if not principal:
            raise PreconditionError(
                f"profile {idx} is not principal; non-principal profiles do not "
                "in general admit a nested distinguishing set of separations"
            )
    verts = g.vertices
    emitted: list[Separation] = []

    for x in sorted(nested.separators, key=separator_sort_key):
        comps = g.components(x)
        tight = [c for c in comps if g.neighbours(c) == x]
        loose = [c for c in comps if g.neighbours(c) != x]
        grouped: dict[int, int] = {c: 0 for c in tight}
        for s in emitted:
            if x & ~s.a and x & ~s.b:
                raise CertificationError("separator not covered by an emitted side")
            if not x & ~s.a and not x & ~s.b:
                raise CertificationError("separator inside both sides of an emission")
            away = s if not x & ~s.a else star(s)  # orient with x on the a-side
            b = away.b
            tight_hits = [c for c in tight if c & b]
            if len(tight_hits) > 1:
                raise CertificationError("emission side meets two tight components")
            if tight_hits:
                for d in loose:
                    if d & b:
                        grouped[tight_hits[0]] |= d
        for c, d in itertools.combinations(tight, 2):
            if grouped[c] & grouped[d]:
                raise CertificationError("grouped component sets overlap")
        for c in tight:
            block = c | grouped[c]
            new = canonical(Separation(block | x, verts & ~block))
            if new not in emitted:
                emitted.append(new)

    out = tuple(sorted(emitted, key=sep_sort_key))
    for s in out:
        if not is_separation(g, s):
            raise CertificationError(f"emitted pair is not a separation: {s}")
    for s, t in itertools.combinations(out, 2):
        if not is_nested(s, t):
            raise CertificationError(f"output not nested: {s} vs {t}")
    for dset in nested.distinguishers.values():
        if set(dset.seps).isdisjoint(out):
            raise CertificationError(
                "a profile pair is not efficiently distinguished by the output"
            )
    return out
