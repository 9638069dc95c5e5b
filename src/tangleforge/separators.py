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

import functools
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
    if x & ~g.vertices:
        raise PreconditionError("separators must lie inside the graph")
    return _nested_with(g, y)(x)


def _nested_with(g: Graph, y: int):
    """The predicate x ↦ separator_nested(g, x, y) on separators x inside
    the graph, from one `components` call."""
    if y & ~g.vertices:
        raise PreconditionError("separators must lie inside the graph")
    sides = [comp | y for comp in g.components(y)]
    return lambda x: not x & ~y or any(not x & ~side for side in sides)


# ---------------------------------------------------------------------------
# canonical nested separator sets

def build_separator_instance(g: Graph, profiles) -> tuple[SplinterInstance, dict]:
    """The separator families of every profile pair as a splinter instance,
    together with the pairs' distinguisher sets, keyed (i, j) like the
    families. The profiles must be regular, which is checked; robustness is
    the caller's hypothesis (see `profiles.pipeline_profiles`)."""
    profiles = tuple(profiles)
    if not all(p.is_regular(g) for p in profiles):
        raise PreconditionError("profiles must be regular")
    distinguishers = distinguisher_sets(g, profiles)
    families = {}
    orders = {}
    members = {}  # key -> the pair's distinguishers in both orientations
    witnesses: dict[int, dict] = {}  # mask -> its witnesses over all pairs, each once
    for key, dset in distinguishers.items():
        if not dset:
            i, j = key
            raise PreconditionError(f"profiles {i} and {j} are indistinguishable")
        families[key] = frozenset(s.separator for s in dset.seps)
        orders[key] = dset.order
        members[key] = frozenset(dset.seps) | frozenset(map(star, dset.seps))
        for s in dset.seps:
            witnesses.setdefault(s.separator, {})[s] = None

    def nested(a, b):
        return separator_nested(g, a, b)

    def corner_oracle(a, b, target_key):
        """Materialise corners from witnesses and return the separator of
        the first corner separation that distinguishes the target pair
        efficiently. A corner is the join (xa ∪ ya, xb ∩ yb) of a witness
        of a and one of b, each in both orientations, looked up in the
        target's members as a plain pair."""
        want = members[target_key]
        for wa in witnesses[a]:
            for wb in witnesses[b]:
                for xa, xb in (wa, wa[::-1]):
                    for ya, yb in (wb, wb[::-1]):
                        if (xa | ya, xb & yb) in want:
                            return (xa | ya) & xb & yb
        return None

    instance = SplinterInstance(
        elements=tuple(sorted(witnesses, key=separator_sort_key)),
        families=families,
        orders=orders,
        nested=nested,
        corner_oracle=corner_oracle,
        nested_with=functools.partial(_nested_with, g),  # checks each element as y
    )
    return instance, distinguishers


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
