"""The window ladder of the two spec classes, on the system matrix."""

from hypothesis import given, settings, strategies as st

from fullgroups.clopen import central_cylinder, cylinder
from fullgroups.systems import base_point, make_system

SYSTEMS = {
    "odometer-2": make_system({"kind": "odometer", "bases": [2]}),
    "odometer-2-3": make_system({"kind": "odometer", "bases": [2, 3]}),
    "fibonacci": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "a"}}),
    "thue-morse": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ba"}}),
    "tribonacci": make_system({"kind": "substitution", "rule": {"a": "ab", "b": "ac", "c": "a"}}),
}

systems = st.sampled_from(sorted(SYSTEMS)).map(SYSTEMS.get)


def _contains(outer, inner) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _reference_central_cylinder(spec, x, size):
    # written out per kind, independent of the spec's ladder methods: a
    # one-sided depth window for odometers, a radius window for subshifts
    if spec.kind == "odometer":
        return cylinder(spec, x.window(0, size - 1))
    return cylinder(spec, x.window(-size, size), -size)


@given(systems, st.integers(0, 40))
def test_ladder_size_inverts_ladder_window(spec, step):
    size = spec.floor + step
    assert spec.ladder_size(*spec.ladder_window(size)) == size


@given(systems, st.integers(1, 40))
def test_each_window_contains_the_one_below(spec, step):
    size = spec.floor + step
    assert _contains(spec.ladder_window(size), spec.ladder_window(size - 1))


@given(systems, st.integers(-20, 20), st.integers(0, 20))
def test_ladder_size_is_the_smallest_containing_window(spec, lo, length):
    if spec.kind == "odometer":
        lo = abs(lo)  # odometer coordinates start at 0
    win = (lo, lo + length)
    size = spec.ladder_size(*win)
    assert size >= spec.floor
    assert _contains(spec.ladder_window(size), win)
    if size > spec.floor:
        assert not _contains(spec.ladder_window(size - 1), win)


@settings(max_examples=60, deadline=None)
@given(systems, st.integers(0, 5), st.integers(-3, 3))
def test_central_cylinder_matches_the_old_helpers(spec, step, shift):
    size = spec.floor + step
    x = base_point(spec, "primary")[0].shifted(shift)
    c = central_cylinder(spec, x, size)
    assert c.contains_point(x)
    assert c == _reference_central_cylinder(spec, x, size)
