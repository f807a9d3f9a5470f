import random
from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType

import pytest

from psys.multiset import (
    EMPTY,
    EnvContent,
    Multiset,
    MultisetSyntaxError,
    MultisetUnderflow,
    format_multiset,
    is_valid_name,
    parse_multiset,
)


def ms(text):
    return parse_multiset(text)


def test_size():
    assert EMPTY.size == 0
    assert ms("a^3 b").size == 4
    assert ms("a^2 b^2 c").size == 5


def test_zero_counts_dropped():
    assert Multiset({"a": 0, "b": 2}) == Multiset({"b": 2})
    assert not Multiset({"a": 0})
    assert Multiset({"a": 0}).items() == ()
    assert Multiset({"a": 1}).__eq__({"a": 1}) is NotImplemented
    assert Multiset({"a": 1}) != {"a": 1}


def test_constructor_rejects_bad_counts():
    with pytest.raises(ValueError):
        Multiset({"a": -1})
    with pytest.raises(TypeError):
        Multiset({"a": 1.5})
    with pytest.raises(TypeError):
        Multiset({"a": True})


class _Plain(Mapping):
    """A Mapping that is no dict and inherits from none."""

    def __init__(self, counts):
        self._counts = dict(counts)

    def __getitem__(self, name):
        return self._counts[name]

    def __iter__(self):
        return iter(self._counts)

    def __len__(self):
        return len(self._counts)


MAPPINGS = [dict, Counter, lambda counts: MappingProxyType(dict(counts)), _Plain]


@pytest.mark.parametrize("mapping", MAPPINGS)
def test_any_mapping_builds_the_multiset_a_dict_builds(mapping):
    counts = {"b": 2, "a": 1, "c": 0}
    built = Multiset(mapping(counts))
    assert built == Multiset(counts) == ms("a b^2")
    assert built.items() == (("a", 1), ("b", 2))


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize(
    "count, error", [(-1, ValueError), (1.0, TypeError), (1.5, TypeError), (True, TypeError)]
)
def test_any_mapping_rejects_bad_counts_as_a_dict_does(mapping, count, error):
    with pytest.raises(error):
        Multiset(mapping({"a": 1, "b": count}))


def test_constructor_from_iterable():
    assert Multiset(["a", "b", "a"]) == ms("a^2 b")


def test_leq():
    assert EMPTY.leq(ms("a^3 b"))
    assert ms("a b").leq(ms("a^3 b"))
    assert not ms("a^4").leq(ms("a^3 b"))
    assert not ms("a").leq(ms("b"))
    assert not ms("b").leq(ms("a"))


def test_add_sub():
    assert ms("a b") + ms("a") == ms("a^2 b")
    assert ms("a^3 b") - ms("a b") == ms("a^2")
    assert ms("a") - ms("a") == EMPTY


def test_sub_underflow():
    with pytest.raises(MultisetUnderflow):
        ms("a") - ms("a^2")
    with pytest.raises(MultisetUnderflow):
        ms("b") - ms("a")


def test_membership_and_count():
    m = ms("a^2 b")
    assert "a" in m and "b" in m and "c" not in m
    assert m.count("a") == 2
    assert m.count("missing") == 0
    assert m.support() == ("a", "b")


def test_env_disjointness_enforced():
    message = r"^finite remainder overlaps the unlimited pool: \['a', 'b'\]$"
    with pytest.raises(ValueError, match=message):
        EnvContent({"b", "a"}, ms("a b c"))


def test_env_content_is_a_value():
    listed, built = EnvContent(["b", "a"], ms("c")), EnvContent({"a", "b"}, ms("c"))
    assert listed == built and hash(listed) == hash(built)
    assert listed != EnvContent({"a"}, ms("c")) and listed != EnvContent({"a", "b"})
    for field in ("infinite", "finite"):
        with pytest.raises(AttributeError):
            setattr(listed, field, frozenset())
    assert repr(EnvContent(["b", "a"], Multiset("c"))) == "EnvContent(['a', 'b'], Multiset('c'))"


def test_parse_basics():
    assert ms("empty") == EMPTY
    assert ms("  empty  ") == EMPTY
    assert ms("a^3 b") == Multiset({"a": 3, "b": 1})
    assert ms("b a a") == Multiset({"a": 2, "b": 1})  # repeats accumulate
    assert ms("a^2 a") == Multiset({"a": 3})


def test_parse_errors_carry_offsets():
    with pytest.raises(MultisetSyntaxError):
        parse_multiset("")
    with pytest.raises(MultisetSyntaxError) as info:
        parse_multiset("a^0")
    assert info.value.offset == 0
    with pytest.raises(MultisetSyntaxError) as info:
        parse_multiset("a b^x")
    assert info.value.offset == 2
    with pytest.raises(MultisetSyntaxError):
        parse_multiset("3a")
    with pytest.raises(MultisetSyntaxError):
        parse_multiset("a^-1")


def test_counts_int_refuses_are_syntax_errors():
    # Past int()'s 4,300-digit limit, or a digit int() does not read.
    for count in ("9" * 5_000, "\u00b2"):
        with pytest.raises(MultisetSyntaxError) as info:
            parse_multiset(f"b a^{count}")
        assert info.value.offset == 2


def test_format():
    assert format_multiset(EMPTY) == "empty"
    assert format_multiset(Multiset({"b": 1, "a": 3})) == "a^3 b"
    assert str(ms("c a^2")) == "a^2 c"


def test_valid_names():
    assert is_valid_name("a")
    assert is_valid_name("p_1")
    assert is_valid_name("_x9")
    assert not is_valid_name("")
    assert not is_valid_name("3a")
    assert not is_valid_name("a-b")
    assert not is_valid_name("a b")
    assert not is_valid_name("empty")  # the empty multiset's literal


def random_ms(rng, names="abcde", hi=6):
    return Multiset({n: rng.randint(0, hi) for n in names})


def test_add_sub_round_trip_property():
    rng = random.Random(17)
    for _ in range(300):
        x, y = random_ms(rng), random_ms(rng)
        assert (x + y) - y == x
        assert y.leq(x + y)


def test_leq_partial_order_property():
    rng = random.Random(18)
    for _ in range(300):
        x, y, z = random_ms(rng, hi=3), random_ms(rng, hi=3), random_ms(rng, hi=3)
        assert x.leq(x)
        if x.leq(y) and y.leq(x):
            assert x == y
        if x.leq(y) and y.leq(z):
            assert x.leq(z)


def test_parse_format_round_trip_property():
    rng = random.Random(19)
    names = ["a", "bb", "c_3", "Dz", "_e"]
    for _ in range(300):
        m = Multiset({n: rng.randint(0, 4) for n in rng.sample(names, rng.randint(0, 5))})
        assert parse_multiset(format_multiset(m)) == m


def test_hash_consistency():
    rng = random.Random(20)
    for _ in range(100):
        m = random_ms(rng)
        again = Multiset(dict(m.items()))
        assert m == again and hash(m) == hash(again)
