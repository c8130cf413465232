"""The seeded point search of the sampling helpers."""

import pytest

from fullgroups import sampling
from fullgroups.clopen import cylinder, empty
from fullgroups.errors import PreconditionError
from fullgroups.sampling import point_inside
from fullgroups.systems import make_system

ODO2 = make_system({"kind": "odometer", "bases": [2]})


def test_point_inside_finds_a_shift_of_the_primary_point():
    one = cylinder(ODO2, "1")
    assert one.contains_point(point_inside(ODO2, one))


def test_point_inside_refuses_the_empty_set():
    with pytest.raises(PreconditionError, match=r"empty set"):
        point_inside(ODO2, empty(ODO2))


def test_point_search_cap_names_its_knob(monkeypatch):
    # the primary point 0^inf is outside [1]; T of it is the first inside
    monkeypatch.setattr(sampling, "_POINT_SEARCH_CAP", 1)
    with pytest.raises(PreconditionError, match=r"_POINT_SEARCH_CAP = 1\b"):
        point_inside(ODO2, cylinder(ODO2, "1"))
