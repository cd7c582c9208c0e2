"""Certificates decided by lattices against the enumeration reference.

Each certificate is computed twice: as the library decides it, and inside
``oracles.enumeration_reference()``, where every order condition and every
witness comes from listing elements.  The canonical JSON bytes must agree.
"""

import random

import pytest

from groupwindows import certify, closure_window, fileio, primary_decompose
from groupwindows.control import FAILS, PROPERTIES

from conftest import random_mixed_group, random_staggered_group
import oracles


def _bytes(cert):
    return fileio.canonical_json_bytes(fileio.certificate_to_json(cert))


def _same_as_enumeration(source, prop, window=None):
    cert = certify(source, prop, window=window)
    with oracles.enumeration_reference():
        reference = certify(source, prop, window=window)
    assert _bytes(cert) == _bytes(reference), (prop, window)
    return cert


@pytest.mark.parametrize("n", range(2, 9))
def test_template_and_closure_match_enumeration(shift_template, n):
    closure = closure_window(shift_template, n).group
    for prop in PROPERTIES:
        _same_as_enumeration(shift_template, prop, n)
        _same_as_enumeration(closure, prop)


def test_random_groups_and_parts_match_enumeration():
    rng = random.Random(2718)
    groups = failures = 0
    while groups < 200:
        if groups % 2 == 0:
            g = random_staggered_group(rng, rng.choice((2, 3, 5)))
        else:
            g = random_mixed_group(rng)
        if g is None:
            continue
        groups += 1
        for h in [g] + [part.subgroup for part in primary_decompose(g).parts]:
            for prop in PROPERTIES:
                failures += _same_as_enumeration(h, prop).status == FAILS
    # the sweep must exercise the witnesses, not only the verdicts
    assert failures >= 100
