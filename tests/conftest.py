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
