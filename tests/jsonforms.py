"""JSON writers and readers that only the tests use: the dict form the
CLI writes for a Separation and its inverse, and a writer of the tabulated
universe form that `profinite.universe_from_json` and the CLI's system
files read."""

from tangleforge.core import Separation, UniverseView, mask_of, vertices_of


def separation_to_json(s: Separation) -> dict:
    """The dict the CLI's JSON writer writes for s, built here from the
    vertex lists, as the reference the writer is tested against."""
    return {"a": list(vertices_of(s.a)), "b": list(vertices_of(s.b)), "order": s.order}


def separation_from_json(obj: dict) -> Separation:
    return Separation(mask_of(obj["a"]), mask_of(obj["b"]))


def universe_to_json(u: UniverseView) -> dict:
    names = {x: i for i, x in enumerate(u.elements)}
    return {
        "elements": list(range(len(u.elements))),
        "star": [names[u.star(x)] for x in u.elements],
        "order": [u.order_of(x) for x in u.elements],
        "leq": [
            [names[x], names[y]]
            for x in u.elements
            for y in u.elements
            if u.leq(x, y)
        ],
        "join": [
            [names[x], names[y], names[u.join(x, y)]]
            for x in u.elements
            for y in u.elements
        ],
        "meet": [
            [names[x], names[y], names[u.meet(x, y)]]
            for x in u.elements
            for y in u.elements
        ],
    }

