import pytest

from arthur_packets.halfint import HalfInt, hi


def test_parse_forms():
    assert hi(3).twice == 6
    assert hi("3").twice == 6
    assert hi("-4").twice == -8
    assert hi("7/2").twice == 7
    assert hi("-7/2").twice == -7
    assert hi("3.5").twice == 7
    assert hi(".5").twice == 1
    assert hi("-.5").twice == -1
    assert hi(HalfInt(5)) == HalfInt(5)


def test_parse_rejects_garbage():
    for bad in ("x", "1/3", "2.25", 1.5, None):
        with pytest.raises((ValueError, TypeError)):
            hi(bad)
    for bad in (True, False):
        with pytest.raises(ValueError):
            hi(bad)


def test_comparisons_and_floor():
    assert hi("7/2") > 3
    assert hi("7/2") < 4
    assert hi(3) == 3
    assert hi(4).as_int() == 4
    with pytest.raises(ValueError):
        hi("1/2").as_int()


def test_json_round_trip():
    assert hi(3).to_json() == 3
    assert hi("7/2").to_json() == "7/2"
    for v in (hi(3), hi("7/2"), hi("-9/2")):
        assert hi(v.to_json()) == v


def test_immutability_and_hash():
    a = hi(1)
    with pytest.raises(AttributeError):
        a.twice = 5
    assert len({hi(1), hi("2/2")}) == 1


def test_pickle_round_trip():
    import pickle

    a = hi("9/2")
    assert pickle.loads(pickle.dumps(a)) == a
