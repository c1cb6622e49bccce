"""Byte-identity of rendered canonical bases, one per exact kernel.

The digests pin the reduced echelon bases produced by the jet, tensor and
harmonic kernels.  A change to how their linear systems are assembled or
eliminated must leave every rendering unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from diffhom.harmonic import ik_presentation, perp_basis
from diffhom.jets import JetContext, diff_homog_basis
from diffhom.resources import ResourceCaps
from diffhom.tensors import invariant_tensor_basis

CASES = {
    "diff_homog_basis(JetContext(1,2,3))": (
        lambda: diff_homog_basis(JetContext(1, 2, 3)).elements,
        "6a58dbcb51eefd71951d65f3e1919a93d8e5a003cb5ea4ecc4f6dd08584ab838",
    ),
    "diff_homog_basis(JetContext(2,3,4))": (
        lambda: diff_homog_basis(JetContext(2, 3, 4)).elements,
        "228ba265ce069067b86aab6b82c777ec877b0e7d636ee80e5f83ec072841878c",
    ),
    # 100,947 columns, past the default max_basis_columns
    "diff_homog_basis(JetContext(2,5,6))": (
        lambda: diff_homog_basis(JetContext(2, 5, 6), ResourceCaps(max_basis_columns=110_000)).elements,
        "219987ea9beb875206e437f266055663424adbf0af2ce98cb12c307e36d67d33",
    ),
    "invariant_tensor_basis(3,4)": (
        lambda: invariant_tensor_basis(3, 4),
        "afba9d7bf59d56e9da25ffde1fe98d7ca9006b282ecf5cb5a06b8c6a16845073",
    ),
    "invariant_tensor_basis(4,5)": (
        lambda: invariant_tensor_basis(4, 5),
        "4c4417c9416328eca9e667e46a7e01bb79ef4c8c915ae9af1156efad90b567e9",
    ),
    "perp_basis(ik_presentation(5,2),2)": (
        lambda: perp_basis(ik_presentation(5, 2), 2),
        "764981085deda8b71ba55b0116d79b8a1c2eaf96e2bf160f16d7218a0518655c",
    ),
    "perp_basis(ik_presentation(7,2),2)": (
        lambda: perp_basis(ik_presentation(7, 2), 2),
        "014b2f168b08fe7672bdc9dece9b2b2680c84e17b201e34f47b3af3619b633bd",
    ),
    "perp_basis(ik_presentation(5,3),3)": (
        lambda: perp_basis(ik_presentation(5, 3), 3),
        "a7a23b4a5ea716abbaa13ff3ddbad157bf9690730777be6d620360277a72b150",
    ),
    "perp_basis(ik_presentation(8,1),1)": (
        lambda: perp_basis(ik_presentation(8, 1), 1),
        "4139c58c35facdd93f1c74700d1a2a52c1cb831dab7d1fe2e5a0a9542e3c334a",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rendered_basis_digest(name):
    build, expected = CASES[name]
    rendered = "\n".join(element.render() for element in build())
    assert hashlib.sha256(rendered.encode()).hexdigest() == expected
