import numpy as np
import pytest

from rpbandits.seeding import derive_entropy, rng_from, seed_sequence


def test_same_labels_same_entropy():
    assert derive_entropy("run", 3, "env") == derive_entropy("run", 3, "env")


def test_different_labels_differ():
    seen = {
        derive_entropy("run", 3, "env"),
        derive_entropy("run", 3, "policy"),
        derive_entropy("run", 4, "env"),
        derive_entropy("other", 3, "env"),
        derive_entropy(3, "run", "env"),
    }
    assert len(seen) == 5


def test_int_str_encodings_do_not_collide():
    # "3" the string and 3 the integer are distinct labels
    assert derive_entropy("3") != derive_entropy(3)
    # concatenation boundaries matter: ("ab", "c") != ("a", "bc")
    assert derive_entropy("ab", "c") != derive_entropy("a", "bc")


def test_negative_ints_supported():
    assert derive_entropy(-1) != derive_entropy(1)


def test_bool_rejected():
    with pytest.raises(TypeError):
        derive_entropy(True)


def test_float_rejected():
    with pytest.raises(TypeError, match="unsupported seed label type"):
        derive_entropy(1.0)


def test_rng_streams_reproducible():
    a = rng_from("x", 1).normal(size=5)
    b = rng_from("x", 1).normal(size=5)
    assert np.array_equal(a, b)
    c = rng_from("x", 2).normal(size=5)
    assert not np.array_equal(a, c)


def test_seed_sequence_spawnable():
    ss = seed_sequence("root")
    children = ss.spawn(3)
    vals = [np.random.default_rng(c).integers(0, 10**9) for c in children]
    assert len(set(vals)) == 3
