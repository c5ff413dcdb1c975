# Reference file writers for the differential tests: the hand-written writers
# that listed each file object's fields by name, one writer per object.  Kept
# verbatim so cloudreserve.model.write_fields, and the instance and family
# writers built on it, can be checked against them for the same objects and
# the same bytes; not imported by the package.

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from cloudreserve.adversary import FAMILY_FORMAT_VERSION, RandomWorkloadSpec, YaoFamily
from cloudreserve.model import INSTANCE_FORMAT_VERSION, Instance, MarketBounds, format_rational

_BOUNDS_FIELDS = ("rho_min", "rho_max", "t_min", "t_max")


def bounds_to_dict(bounds: MarketBounds) -> dict:
    return {name: format_rational(getattr(bounds, name)) for name in _BOUNDS_FIELDS}


def instance_to_dict(inst: Instance) -> dict:
    return {
        "version": INSTANCE_FORMAT_VERSION,
        "capacity": inst.capacity,
        "bounds": bounds_to_dict(inst.bounds),
        "jobs": [
            {
                "id": job.id,
                "a": format_rational(job.a),
                "d": format_rational(job.d),
                "t": format_rational(job.t),
                "c": job.c,
                "v": format_rational(job.v),
            }
            for job in inst.jobs
        ],
    }


def save_instance(inst: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n")


def spec_to_dict(self: RandomWorkloadSpec) -> dict:
    """``RandomWorkloadSpec.to_dict``, as a function of the spec."""
    return {
        "job_count": self.job_count,
        "capacity": self.capacity,
        "bounds": bounds_to_dict(self.bounds),
        "arrivals": [format_rational(x) for x in self.arrivals],
        "slacks": [format_rational(x) for x in self.slacks],
        "lengths": [format_rational(x) for x in self.lengths],
        "demands": list(self.demands),
        "densities": [format_rational(x) for x in self.densities],
        "seed": self.seed,
        "tighten_bounds": self.tighten_bounds,
    }


def save_family(family: YaoFamily, out_dir: Union[str, Path]) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    filenames = []
    for idx, inst in enumerate(family.instances, 1):
        name = f"I{idx:02d}.json"
        save_instance(inst, Path(out, name))
        filenames.append(name)
    manifest = {
        "version": FAMILY_FORMAT_VERSION,
        "kind": family.kind,
        "capacity": family.capacity,
        "bundles": [[job.id for job in bundle] for bundle in family.bundles],
        "instances": filenames,
    }
    if family.epsilon is not None:
        manifest["epsilon"] = format_rational(family.epsilon)
    if family.n is not None:
        manifest["n"] = family.n
        manifest["m"] = family.m
    Path(out, "family.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return out
