"""Golden bytes: generated instances, masks and witnesses are pinned by hash.

Each digest is the sha256 of the canonical ``.inc.json`` text (or of the
JSON of the masks and witness), so any change to a construction's points,
flats, bookkeeping or notes, or to the incidence masks, shows here.
"""

import hashlib
import json

import pytest

from inclab import (
    ConstructionConfig,
    IncidenceInstance,
    build_grid_construction,
    build_sphere_construction,
    embed_configuration,
    find_kst,
    incidence_masks,
)
from inclab.serialization import canonical_json, instance_to_dict


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def instance_digest(out, s, t) -> str:
    inst = IncidenceInstance(out.points, out.flats, s, t)
    return sha256(canonical_json(instance_to_dict(inst, out)))


def grid_inner():
    cfg = ConstructionConfig(d=2, m=25, n=30, seed=5, box_side=2)
    return build_grid_construction(cfg)


CONSTRUCTIONS = {
    # grid d=2 and d=3, each with padding hyperplanes (n > core)
    "grid-d2": lambda: build_grid_construction(
        ConstructionConfig(d=2, m=49, n=80, seed=3, box_side=3)),
    "grid-d3": lambda: build_grid_construction(
        ConstructionConfig(d=3, m=64, n=120, seed=4, box_side=3)),
    # the box side from the formula, not an override
    "grid-d2-auto-box": lambda: build_grid_construction(
        ConstructionConfig(d=2, m=256, n=256, seed=2)),
    # the densest grid sphere in R^4 holds at least m points for every
    # m < 1500, so d=4 pads hyperplanes only
    "sphere-d4": lambda: build_sphere_construction(
        ConstructionConfig(d=4, m=40, n=150, seed=5, box_side=2, s=3)),
    "sphere-d4-auto-box": lambda: build_sphere_construction(
        ConstructionConfig(d=4, m=30, n=400, seed=8, s=3)),
    # the densest sphere of the sizing grid holds 210 points: 6 rational
    # points are padded on it
    "sphere-d5-padded-points": lambda: build_sphere_construction(
        ConstructionConfig(d=5, m=216, n=300, seed=6, box_side=2, s=3)),
    "embed-k-inner-hyperplane": lambda: embed_configuration(grid_inner(), 4, 1, seed=3),
    "embed-k-above": lambda: embed_configuration(grid_inner(), 5, 3, seed=9),
    # the shape the pipeline embeds: R^2 into R^4 as 2-flats
    "embed-2-flats-in-r4": lambda: embed_configuration(grid_inner(), 4, 2, seed=5),
}

DIGESTS = {
    "embed-2-flats-in-r4":
        "4c09fa9f406a8a68c1352864f1298da3feccf328f45e53850d810f464975029e",
    "embed-k-above":
        "c7a8ff6d0fa8ba4d4c978f6d48e453beebd7c1262594d742aa0f86344bdf18c8",
    "embed-k-inner-hyperplane":
        "7bba280f6ec9a123860567772a3d4919f728d25c8dcb4c062c9cd16f601ebb0f",
    "grid-d2":
        "8fffad26ea5c754e6703c8cf5aee29925e81c8a9af21e69b4c2daeb860587aef",
    "grid-d2-auto-box":
        "0ecf19b190dd76e4503b1f569193db0c88d0ce18f9fe3c714b433e4af13644ce",
    "grid-d3":
        "e581dbf42472697eb72611d3fa3c1140e54832334b81b1b5ab7f494fb447df7c",
    "sphere-d4":
        "b19f046f8be21f02c5cf18728828308caaa8b173cabbf454b264c97e2725380c",
    "sphere-d4-auto-box":
        "4815c25f51b1325a8c9406ed5bed6c4072533f96a4f86c576bc1e386acb56da2",
    "sphere-d5-padded-points":
        "1bdff12ce0eacac5e45302693078b9e64514f02ade4e8c7523703df26cd065ef",
    "masks-embed-2-flats-in-r4":
        "7f86dbee9a587194d8d9c9fd36498c6b1eeb1096da96366a25c43da0943548bd",
    "masks-embed-k-above":
        "7f86dbee9a587194d8d9c9fd36498c6b1eeb1096da96366a25c43da0943548bd",
    "masks-grid-d2":
        "7f86dbee9a587194d8d9c9fd36498c6b1eeb1096da96366a25c43da0943548bd",
    "masks-sphere-d5-padded-points":
        "658adf93dae9c898982bfe35cf17f412d06a043398031891c1b1ed275c17c21f",
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_construction_bytes(name):
    out = CONSTRUCTIONS[name]()
    assert instance_digest(out, 2, out.t_measured + 1) == DIGESTS[name]


# instances that gain a K_{2,t} witness once one populated flat is repeated
# t times: planar hyperplanes, non-hyperplane flats after embedding, and
# hyperplanes over rational sphere points
WITNESS_CASES = {
    "grid-d2": grid_inner,
    "embed-k-above": lambda: embed_configuration(grid_inner(), 4, 2, seed=11),
    "embed-2-flats-in-r4": CONSTRUCTIONS["embed-2-flats-in-r4"],
    "sphere-d5-padded-points": CONSTRUCTIONS["sphere-d5-padded-points"],
}


@pytest.mark.parametrize("name", sorted(WITNESS_CASES))
def test_masks_and_witness_bytes(name):
    out = WITNESS_CASES[name]()
    t = out.t_measured + 1
    inst = IncidenceInstance(out.points, out.flats + (out.flats[0],) * t, 2, t)
    witness = find_kst(inst)
    assert witness is not None
    doc = {
        "masks": incidence_masks(inst.points, inst.flats),
        "witness": [list(witness.point_indices), list(witness.flat_indices)],
    }
    assert sha256(json.dumps(doc)) == DIGESTS[f"masks-{name}"]
