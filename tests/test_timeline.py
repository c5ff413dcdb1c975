"""Capacity-timeline placement and persistence tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timeline_reference as reference
from cloudreserve import CapacityError, CapacityTimeline
from conftest import job


def test_residual_on_empty_timeline():
    tl = CapacityTimeline.empty(8)
    assert tl.capacity - tl.usage_at(5) == 8


def test_residual_after_commit_and_half_open_boundary():
    tl = CapacityTimeline.empty(8).commit(job("a", 0, 5, 5, 3, 5), 0)
    assert tl.capacity - tl.usage_at(2) == 5
    assert tl.capacity - tl.usage_at(5) == 8  # [0, 5) is half-open


def test_earliest_start_empty_profile():
    tl = CapacityTimeline.empty(4)
    assert tl.earliest_feasible_start(job("j", 0, 10, 2, 4, 8)) == 0


def test_earliest_start_waits_for_drop():
    tl = CapacityTimeline.empty(4).commit(job("a", 0, 5, 5, 3, 15), 0)
    assert tl.earliest_feasible_start(job("j", 0, 10, 2, 2, 4)) == 5


def test_earliest_start_window_too_tight():
    tl = CapacityTimeline.empty(4).commit(job("a", 0, 5, 5, 3, 15), 0)
    assert tl.earliest_feasible_start(job("j", 0, 6, 2, 2, 4)) is None


def test_commit_additivity():
    tl = CapacityTimeline.empty(4)
    tl = tl.commit(job("a", 0, 5, 5, 3, 15), 0)
    tl = tl.commit(job("b", 0, 5, 5, 1, 5), 0)
    assert tl.usage_at(3) == 4


def test_back_to_back_commits_do_not_conflict():
    tl = CapacityTimeline.empty(2)
    tl = tl.commit(job("a", 0, 3, 3, 2, 6), 0)
    tl = tl.commit(job("b", 3, 6, 3, 2, 6), 3)
    assert tl.usage_at(2) == 2 and tl.usage_at(3) == 2 and tl.usage_at(6) == 0


def test_commit_over_capacity_faults():
    tl = CapacityTimeline.empty(4).commit(job("a", 0, 5, 5, 3, 15), 0)
    with pytest.raises(CapacityError):
        tl.commit(job("b", 0, 5, 5, 2, 10), 0)


def test_commit_is_persistent():
    base = CapacityTimeline.empty(4)
    committed = base.commit(job("a", 0, 5, 5, 3, 15), 0)
    assert base.usage_at(1) == 0
    assert committed.usage_at(1) == 3


def test_canonical_form_merges_levels():
    tl = CapacityTimeline.empty(4)
    tl = tl.commit(job("a", 0, 2, 2, 1, 2), 0)
    tl = tl.commit(job("b", 2, 4, 2, 1, 2), 2)
    # one flat segment [0, 4) at level 1: two points (start, 1) and (end, 0)
    assert tl.points == ((Fraction(0), 1), (Fraction(4), 0))


# --- brute-force agreement on integer grids ------------------------------

int_jobs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # arrival
        st.integers(min_value=1, max_value=3),  # length
        st.integers(min_value=0, max_value=3),  # slack
        st.integers(min_value=1, max_value=3),  # demand
    ),
    min_size=0,
    max_size=6,
)


def brute_force_earliest(capacity, committed, probe):
    """Independent search: scan every integer start and check unit segments."""
    a, d, t, c = probe
    for s in range(a, d - t + 1):
        ok = True
        for x in range(s, s + t):
            used = sum(cc for (ss, tt, cc) in committed if ss <= x < ss + tt)
            if used + c > capacity:
                ok = False
                break
        if ok:
            return Fraction(s)
    return None


@settings(max_examples=200, deadline=None)
@given(int_jobs, st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4))
def test_earliest_start_matches_integer_grid_scan(entries, pa, pt, pslack, pc):
    capacity = 4
    tl = CapacityTimeline.empty(capacity)
    committed = []
    for idx, (a, t, slack, c) in enumerate(entries):
        j = job(f"j{idx}", a, a + t + slack, t, c, 1)
        s = tl.earliest_feasible_start(j)
        if s is not None:
            tl = tl.commit(j, s)
            committed.append((s, t, c))
    probe = job("probe", pa, pa + pt + pslack, pt, pc, 1)
    expected = brute_force_earliest(capacity, committed, (pa, pa + pt + pslack, pt, pc))
    assert tl.earliest_feasible_start(probe) == expected


@settings(max_examples=200, deadline=None)
@given(int_jobs)
def test_committed_usage_never_exceeds_capacity(entries):
    capacity = 4
    tl = CapacityTimeline.empty(capacity)
    committed = []
    for idx, (a, t, slack, c) in enumerate(entries):
        j = job(f"j{idx}", a, a + t + slack, t, c, 1)
        s = tl.earliest_feasible_start(j)
        if s is not None:
            tl = tl.commit(j, s)  # never faults for a feasible start
            committed.append((s, t, c))
    for x in range(0, 14):
        probe = Fraction(x, 1)
        used = sum(c for (s, t, c) in committed if s <= probe < s + t)
        assert used == tl.usage_at(probe) <= capacity


# --- differential check against the reference timeline --------------------


def quarters(count: int) -> Fraction:
    return Fraction(count, 4)


@st.composite
def rational_profiles(draw):
    """A capacity and up to 60 arrivals on a quarter grid; an arrival may force
    its commit at an arbitrary start instead of its earliest feasible one."""
    capacity = draw(st.integers(min_value=1, max_value=64))
    arrivals = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=80),  # release, in quarters
            st.integers(min_value=1, max_value=24),  # length, in quarters
            st.integers(min_value=0, max_value=32),  # slack, in quarters
            st.integers(min_value=1, max_value=capacity + 1),  # demand
            st.none() | st.integers(min_value=0, max_value=120),  # forced start, in quarters
        ),
        max_size=60,
    ))
    jobs = [
        (job(f"j{idx}", quarters(a), quarters(a + t + slack), quarters(t), c, 1),
         None if forced is None else quarters(forced))
        for idx, (a, t, slack, c, forced) in enumerate(arrivals)
    ]
    return capacity, jobs


def in_quarters(x: Fraction) -> int:
    """A quarter-grid time on the integer time base L = 4."""
    assert (4 * x).denominator == 1
    return (4 * x).numerator


@settings(max_examples=300, deadline=None)
@given(rational_profiles())
def test_matches_reference_timeline(profile):
    """The timeline agrees with the reference on rational times, and a third
    timeline fed every time scaled by 4 to an int (as the oracle feeds it)
    finds the same starts and keeps the same points, each times 4."""
    capacity, jobs = profile
    fast = CapacityTimeline.empty(capacity)
    slow = reference.CapacityTimeline.empty(capacity)
    scaled = CapacityTimeline.empty(capacity)
    for j, forced in jobs:
        start = fast.earliest_feasible_start(j)
        assert start == slow.earliest_feasible_start(j)
        fit = scaled.earliest_fit(in_quarters(j.a), in_quarters(j.d), in_quarters(j.t), j.c)
        assert fit == (None if start is None else in_quarters(start))
        assert fit is None or type(fit) is int
        if forced is not None:
            start = forced
        if start is None:
            continue
        try:
            expected = slow.commit(j, start)
        except reference.CapacityError as exc:
            with pytest.raises(CapacityError) as caught:
                fast.commit(j, start)
            assert str(caught.value) == str(exc)
            with pytest.raises(CapacityError):
                scaled.add(in_quarters(start), in_quarters(start + j.t), j.c)
            continue
        committed = fast.commit(j, start)
        assert committed.points == expected.points
        assert fast.points == slow.points  # the input timeline is unchanged
        fast, slow = committed, expected
        scaled = scaled.add(in_quarters(start), in_quarters(start + j.t), j.c)
        assert scaled.points == tuple((in_quarters(time), level) for time, level in fast.points)
        assert all(type(time) is int for time, _ in scaled.points)


@settings(max_examples=200, deadline=None)
@given(rational_profiles())
def test_commits_keep_the_profile_canonical(profile):
    capacity, jobs = profile
    tl = CapacityTimeline.empty(capacity)
    committed = []
    for j, forced in jobs:
        start = tl.earliest_feasible_start(j) if forced is None else forced
        if start is None:
            continue
        try:
            tl = tl.commit(j, start)
        except CapacityError:
            continue
        committed.append((start, start + j.t, j.c))
    times = [time for time, _ in tl.points]
    levels = [level for _, level in tl.points]
    assert all(x < y for x, y in zip(times, times[1:]))
    assert all(x != y for x, y in zip([0] + levels, levels))  # usage is 0 before the first
    assert all(0 <= level <= capacity for level in levels)
    assert not levels or levels[-1] == 0
    probes = times + [(x + y) / 2 for x, y in zip(times, times[1:])]
    if times:
        probes += [times[0] - 1, times[-1] + 1]
    for at in probes:
        assert tl.usage_at(at) == sum(c for s, e, c in committed if s <= at < e)


# a probe job (release, length, slack, demand), in quarters but for the demand
probes = st.tuples(
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=1, max_value=65),
)


@settings(max_examples=300, deadline=None)
@given(
    rational_profiles(),
    probes,
    st.integers(min_value=0, max_value=40),  # release raised by, in quarters
    st.integers(min_value=0, max_value=40),  # deadline lowered by, in quarters
)
def test_narrowed_window_keeps_the_earliest_start(profile, probe, later, earlier):
    """A timeline property, on both timelines: earliest-fit in a narrowed
    window (a-hat >= a, d-hat <= d) never starts before the wide window's
    earliest start s*, finds none when s* is None, and returns s* whenever s*
    fits inside the narrowed window."""
    capacity, jobs = profile
    a, t, slack, c = probe
    wide = job("p", quarters(a), quarters(a + t + slack), quarters(t), c, 1)
    narrow = wide.report(a=wide.a + quarters(later), d=wide.d - quarters(earlier))
    for timeline in (CapacityTimeline.empty(capacity), reference.CapacityTimeline.empty(capacity)):
        for j, _ in jobs:
            start = timeline.earliest_feasible_start(j)
            if start is not None:
                timeline = timeline.commit(j, start)
        best = timeline.earliest_feasible_start(wide)
        found = timeline.earliest_feasible_start(narrow)
        if best is None:
            assert found is None
        elif narrow.a <= best and best + wide.t <= narrow.d:
            assert found == best
        else:
            assert found is None or found > best


@settings(max_examples=300, deadline=None)
@given(
    rational_profiles(),
    probes,
    st.integers(min_value=0, max_value=40),  # length raised by, in quarters
    st.integers(min_value=0, max_value=8),  # demand raised by
)
def test_grown_report_never_starts_earlier(profile, probe, longer, wider):
    """On both timelines, a report that grows in the same window (t-hat >= t,
    c-hat >= c) finds no start before the truthful earliest start s*, and
    none at all when s* is None."""
    capacity, jobs = profile
    a, t, slack, c = probe
    truthful = job("p", quarters(a), quarters(a + t + slack), quarters(t), c, 1)
    grown = truthful.report(t=truthful.t + quarters(longer), c=truthful.c + wider)
    for timeline in (CapacityTimeline.empty(capacity), reference.CapacityTimeline.empty(capacity)):
        for j, _ in jobs:
            start = timeline.earliest_feasible_start(j)
            if start is not None:
                timeline = timeline.commit(j, start)
        best = timeline.earliest_feasible_start(truthful)
        found = timeline.earliest_feasible_start(grown)
        if best is None:
            assert found is None
        else:
            assert found is None or found >= best
