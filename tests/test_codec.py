"""Differential tests of the file writers against the hand-written reference
writers in ``codec_reference``: the same objects, the same bytes, and files
that read back equal."""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import codec_reference
from cloudreserve import (
    Instance,
    MarketBounds,
    RandomWorkloadSpec,
    Reservation,
    gen_theorem3,
    gen_theorem5,
    instance_from_dict,
    instance_to_dict,
    load_family,
    save_family,
    write_fields,
)

# Rationals with large numerators and denominators, so every "num/den" form
# (integer shorthand, negative, reducible input) comes up.
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
positives = st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4))
slacks = st.builds(Fraction, st.integers(0, 10**4), st.integers(1, 100))
ids = st.text(min_size=1, max_size=6)


def encoded(obj) -> str:
    """The bytes a writer puts in a file: key order counts, as it does on disk."""
    return json.dumps(obj, indent=2) + "\n"


@st.composite
def instances(draw):
    """Valid instances whose bounds are the jobs' envelope, widened by a draw."""
    count = draw(st.integers(0, 6))
    job_ids = draw(st.lists(ids, min_size=count, max_size=count, unique=True))
    jobs = []
    for job_id in job_ids:
        a, slack = draw(rationals), draw(slacks)
        t, density, c = draw(positives), draw(positives), draw(st.integers(1, 64))
        jobs.append(Reservation(job_id, a, a + t + slack, t, c, density * c * t))
    densities = [j.density for j in jobs] or [Fraction(1)]
    lengths = [j.t for j in jobs] or [Fraction(1)]
    bounds = MarketBounds(
        rho_min=min(densities) / draw(st.sampled_from([1, 2, 3])),
        rho_max=max(densities) * draw(st.sampled_from([1, 2])),
        t_min=min(lengths),
        t_max=max(lengths) + draw(st.sampled_from([0, Fraction(1, 3)])),
    )
    capacity = max([j.c for j in jobs], default=1) + draw(st.integers(0, 3))
    return Instance(capacity=capacity, bounds=bounds, jobs=tuple(jobs))


@settings(max_examples=300, deadline=None)
@given(instances())
def test_instance_writer_matches_reference(inst):
    written = instance_to_dict(inst)
    reference = codec_reference.instance_to_dict(inst)
    assert written == reference
    assert encoded(written) == encoded(reference)
    assert instance_from_dict(json.loads(encoded(written))) == inst


def choices(low, high, min_size):
    """Choice sets inside [low, high]."""
    draws = st.integers(0, 100).map(lambda k: low + (high - low) * Fraction(k, 100))
    return st.lists(draws, min_size=min_size, max_size=4).map(tuple)


@st.composite
def specs(draw):
    rho_min, t_min = draw(positives), draw(positives)
    rho_max, t_max = rho_min * draw(st.integers(1, 8)), t_min * draw(st.integers(1, 8))
    capacity, job_count = draw(st.integers(1, 64)), draw(st.integers(0, 5))
    min_size = 1 if job_count else 0  # a spec that draws no job may leave a set empty
    return RandomWorkloadSpec(
        job_count=job_count,
        capacity=capacity,
        bounds=MarketBounds(rho_min=rho_min, rho_max=rho_max, t_min=t_min, t_max=t_max),
        arrivals=tuple(draw(st.lists(rationals, min_size=min_size, max_size=4))),
        slacks=draw(choices(0, 100, min_size)),
        lengths=draw(choices(t_min, t_max, min_size)),
        demands=tuple(draw(st.lists(st.integers(1, capacity), min_size=min_size, max_size=4))),
        densities=draw(choices(rho_min, rho_max, min_size)),
        seed=draw(st.integers(-10**6, 10**6)),
        tighten_bounds=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(specs())
def test_spec_writer_matches_reference(spec):
    written = write_fields(spec)
    reference = codec_reference.spec_to_dict(spec)
    assert written == reference
    assert encoded(written) == encoded(reference)
    assert RandomWorkloadSpec.from_dict(json.loads(encoded(written))) == spec


families = st.one_of(
    st.builds(
        gen_theorem3,
        st.integers(2, 5000).map(lambda half: 2 * half),
        st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=10**4).filter(
            lambda eps: 0 < eps < Fraction(1, 4)
        ),
    ),
    st.builds(gen_theorem5, st.integers(1, 4), st.integers(1, 4), st.sampled_from([4, 8, 1024])),
)


@settings(max_examples=60, deadline=None)
@given(families)
def test_family_files_match_reference(family):
    with tempfile.TemporaryDirectory() as scratch:
        written = save_family(family, Path(scratch, "written"))
        reference = codec_reference.save_family(family, Path(scratch, "reference"))
        names = sorted(path.name for path in written.iterdir())
        assert names == sorted(path.name for path in reference.iterdir())
        assert "family.json" in names and len(names) == family.size + 1
        for name in names:
            assert Path(written, name).read_bytes() == Path(reference, name).read_bytes()
        assert load_family(written) == family
