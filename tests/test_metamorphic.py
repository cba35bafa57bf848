"""Metamorphic tests of two theorems that hold because every layer reads
only a point's agreement with the instance.

Renumbering the features permutes every score vector, primal and dual.
Renaming one feature's values, with the instance mapped along, leaves every
vector unchanged.  Both run on seeded random problems with mixed domain
sizes and up to three classes.
"""

import itertools
import random

import pytest

from fislab import scores
from fislab.model import Classifier, FeatureDomain, TableBody, make_problem


def random_classifier(rng):
    """A random table over 2..5 features with domain sizes 1..3."""
    while True:
        m = rng.randint(2, 5)
        sizes = [rng.choice((1, 2, 2, 3)) for _ in range(m)]
        classes = list(range(rng.randint(2, 3)))
        space = 1
        for size in sizes:
            space *= size
        labels = [rng.choice(classes) for _ in range(space)]
        if len(set(labels)) > 1:
            break
    features = tuple(FeatureDomain(i, tuple(range(size)))
                     for i, size in enumerate(sizes, start=1))
    return Classifier(features, frozenset(classes), TableBody(tuple(labels)))


def rebuilt(cls, features, to_old):
    """A table classifier over the given features whose label at each point
    is cls's label at to_old(point)."""
    labels = tuple(cls.evaluate(to_old(point))
                   for point in itertools.product(*(d.values for d in features)))
    return Classifier(features, cls.classes, TableBody(labels))


def all_vectors(problem):
    return {(fis_id, dual): scores.compute_fis(fis_id, problem, dual=dual).values
            for fis_id in scores.FIS_IDS for dual in (False, True)}


def random_problems(seed, count=8):
    rng = random.Random(seed)
    for _ in range(count):
        cls = random_classifier(rng)
        point = tuple(rng.choice(d.values) for d in cls.features)
        yield rng, make_problem(cls, point)


@pytest.mark.parametrize("seed", range(4))
def test_renumbering_features_permutes_every_score(seed):
    for rng, problem in random_problems(seed):
        cls = problem.classifier
        m = cls.m
        order = list(range(m))
        rng.shuffle(order)  # new feature j is old feature order[j]
        features = tuple(FeatureDomain(j + 1, cls.features[old].values)
                         for j, old in enumerate(order))

        def to_old(point):
            old = [None] * m
            for j, value in enumerate(point):
                old[order[j]] = value
            return tuple(old)

        renumbered = rebuilt(cls, features, to_old)
        moved = make_problem(renumbered, tuple(problem.v[old] for old in order))
        before, after = all_vectors(problem), all_vectors(moved)
        for key, values in before.items():
            assert after[key] == tuple(values[old] for old in order), key


@pytest.mark.parametrize("seed", range(4))
def test_renaming_one_features_values_keeps_every_score(seed):
    for rng, problem in random_problems(seed + 100):
        cls = problem.classifier
        i = rng.randrange(cls.m)
        old_values = cls.features[i].values
        # new names in a shuffled domain order
        names = [f"v{k}" for k in range(len(old_values))]
        rng.shuffle(names)
        rename = dict(zip(old_values, names))
        back = {name: value for value, name in rename.items()}
        shuffled = list(names)
        rng.shuffle(shuffled)
        features = tuple(FeatureDomain(j + 1, shuffled) if j == i else d
                         for j, d in enumerate(cls.features))

        def to_old(point):
            return point[:i] + (back[point[i]],) + point[i + 1:]

        renamed = rebuilt(cls, features, to_old)
        v = problem.v
        moved = make_problem(renamed, v[:i] + (rename[v[i]],) + v[i + 1:])
        assert moved.c == problem.c
        assert all_vectors(moved) == all_vectors(problem)
