"""Deterministic RNG behaviour."""

import copy
import pickle

import pytest

from repro.sim import DeterministicRandom


def test_same_seed_same_stream():
    a = DeterministicRandom(7)
    b = DeterministicRandom(7)
    assert [a.randint(0, 100) for _ in range(10)] == \
           [b.randint(0, 100) for _ in range(10)]


def test_different_seeds_differ():
    a = DeterministicRandom(7)
    b = DeterministicRandom(8)
    assert [a.randint(0, 10**9) for _ in range(5)] != \
           [b.randint(0, 10**9) for _ in range(5)]


def test_fork_is_independent_of_parent_draw_order():
    parent_a = DeterministicRandom(1)
    child_a = parent_a.fork("x")
    first = child_a.randint(0, 10**9)

    parent_b = DeterministicRandom(1)
    parent_b.randint(0, 100)  # extra parent draw must not affect child
    child_b = parent_b.fork("x")
    assert child_b.randint(0, 10**9) == first


def test_fork_labels_differ():
    parent = DeterministicRandom(1)
    assert parent.fork("x").randint(0, 10**9) != \
           parent.fork("y").randint(0, 10**9)


def test_chance_bounds_validation():
    rng = DeterministicRandom(0)
    with pytest.raises(ValueError):
        rng.chance(1.5)
    with pytest.raises(ValueError):
        rng.chance(-0.1)
    assert rng.chance(1.0) is True
    assert rng.chance(0.0) is False


def test_chance_rate_roughly_matches():
    rng = DeterministicRandom(3)
    hits = sum(1 for _ in range(10_000) if rng.chance(0.3))
    assert 2700 < hits < 3300


def test_bytes_length_and_determinism():
    assert len(DeterministicRandom(5).bytes(1000)) == 1000
    assert DeterministicRandom(5).bytes(32) == DeterministicRandom(5).bytes(32)


def test_shuffle_returns_same_list_object():
    rng = DeterministicRandom(2)
    items = [1, 2, 3, 4, 5]
    result = rng.shuffle(items)
    assert result is items
    assert sorted(items) == [1, 2, 3, 4, 5]


def test_sample_and_choice():
    rng = DeterministicRandom(4)
    population = list(range(100))
    picked = rng.sample(population, 10)
    assert len(set(picked)) == 10
    assert rng.choice(population) in population


@pytest.mark.parametrize("duplicate", [
    lambda rng: pickle.loads(pickle.dumps(rng)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_copy_keeps_drawing_from_its_own_stream(duplicate):
    rng = DeterministicRandom(9)
    rng.random()
    twin = duplicate(rng)
    expected = [rng.random() for _ in range(5)]
    # The original has moved on; the copy must replay the same five
    # draws from its own generator, not continue the original's.
    assert [twin.random() for _ in range(5)] == expected
    assert twin.getstate() == rng.getstate()
    assert twin.random() == rng.random()
