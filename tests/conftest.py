import itertools

import pytest

from fislab import reference


@pytest.fixture
def chain():
    """Four boolean features, x1 & (x2 | x3 & x4), instance all-ones."""
    return reference.and_or_chain_problem()


@pytest.fixture
def single():
    """Two boolean features, only x1 matters, instance (1, 0)."""
    return reference.single_decider_problem()


@pytest.fixture
def brute_hitting_sets():
    """Oracle for minimal hitting sets, independent of the bitmask machinery:
    every subset of the universe that meets each member and stops doing so
    when any one of its features is dropped, by size and then features."""
    def hitting_sets(members, universe):
        members = [set(m) for m in members]

        def hits(c):
            return all(c & m for m in members)

        return [set(c) for r in range(len(universe) + 1)
                for c in itertools.combinations(sorted(universe), r)
                if hits(set(c)) and not any(hits(set(c) - {e}) for e in c)]
    return hitting_sets


def _deep_tree(depth: int) -> str:
    """A tree body's root, as JSON text, that tests feature 1 depth times
    down its 0 branch; each level nests three JSON containers."""
    level = ('{"feature": 1, "branches": [{"value": 1, "child": {"class": 1}}, '
             '{"value": 0, "child": ')
    return level * depth + '{"class": 0}' + "}]}" * depth


@pytest.fixture(params=["tree", "array"])
def deep_document(request):
    """A model document, as JSON text, that nests too deeply for Python's
    json decoder: a tree of 450 levels, or a valid table model with a
    100,000-deep array under a key the parser never reads.  Written as
    text, because json.dumps cannot encode either."""
    head = '{"features": [{"id": 1, "values": [0, 1]}], "classes": [0, 1], '
    tail = '"instance": {"point": [1]}}'
    if request.param == "tree":
        return head + '"body": {"kind": "tree", "root": ' + _deep_tree(450) + "}, " + tail
    return (head + '"body": {"kind": "table", "labels": [0, 1]}, '
            + '"notes": ' + "[" * 100_000 + "]" * 100_000 + ", " + tail)
