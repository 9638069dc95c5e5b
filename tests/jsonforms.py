"""JSON writers and readers that only the tests use: the inverse of
`core.separation_to_json`, and a writer of the tabulated universe form
that `profinite.universe_from_json` and the CLI's system files read."""

from tangleforge.core import Separation, UniverseView, mask_of


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

