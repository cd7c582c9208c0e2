"""Echelons that keep only the rows they return, and the lattice caches a
one-prime part shares with its group.

``kernel_subgroup`` back-substitutes only the kernel's half of its pair
echelon, and ``local_section`` inserts only its interval's rows into G's
cached sparse rows: each must equal the full echelon it replaced
(``oracles.full_pair_kernel``, ``oracles.full_window_section``), and
neither may change G's cached rows.  A group whose flats all belong to one
prime is its own part, given by its canonical rows: it must agree with the
part built in a sub-window of its own (``oracles.separate_primary_decompose``),
and every command must write the bytes it writes with that part.
"""

import json
import random
from copy import deepcopy
from math import gcd

from groupwindows import cli, primary_decompose, synthesis, torsion
from groupwindows.cli import main
from groupwindows.control import PROPERTIES, certify
from groupwindows.fileio import group_to_json
from groupwindows.window import kernel_subgroup, local_section, torsion_subgroup

from conftest import subgroup, window_of
from test_local_sections import _intervals, _pool
import oracles


def _prime_powers(g):
    e = g.exponent()
    return [p**k for p in g.window.primes() for k in range(1, e.bit_length()) if e % p**k == 0]


def _one_prime(g):
    """Does one prime own every flat of every coordinate of a nontrivial G?"""
    w = g.window
    return len(w.primes()) == 1 and all(c.factor_orders for c in w.components) and not g.is_trivial()


def _narrow():
    """Given by generators of width 2 (margin 2), canonically of width 3 (margin 3)."""
    w = window_of([2], [2], [2], [2], [4])
    return subgroup(w, (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 2))


def test_kernels_are_the_last_half_of_the_full_pair_echelon(shift_template):
    # the torsion kernels of every prime power of the exponent, and one of
    # random divisors t_f of the m_f
    rng = random.Random(2601)
    checked = 0
    for g in _pool(shift_template):
        mods = g.window.flat_orders
        ts = [[m // gcd(m, q) for m in mods] for q in _prime_powers(g)]
        ts.append([rng.choice([d for d in range(1, m + 1) if m % d == 0]) for m in mods])
        for t in ts:
            assert kernel_subgroup(g, t).basis == oracles.full_pair_kernel(g, t), (g, t)
            checked += 1
    assert checked >= 600


def test_sections_kernels_and_witnesses_leave_the_cached_rows_as_they_were(shift_template):
    # every local section of G and of its torsion subgroups, and the failure
    # witnesses of every certificate of G, read G's sparse rows and never write them
    sections = 0
    for g in _pool(shift_template):
        before = deepcopy((g._sparse_basis, g.basis))
        tors = [torsion_subgroup(g, q) for q in _prime_powers(g)]
        kept = [(tor, deepcopy((tor._sparse_basis, tor.basis))) for tor in tors]
        for h in [g, *tors]:
            for interval in _intervals(g.window.length):
                local_section(h, interval)
                sections += 1
        for prop in PROPERTIES:
            certify(g, prop)
        assert (g._sparse_basis, g.basis) == before, g
        for tor, rows in kept:
            assert (tor._sparse_basis, tor.basis) == rows, (g, tor)
    assert sections >= 10000


def test_a_one_prime_part_is_the_group_canonically_presented(shift_template):
    checked = 0
    for g in [_narrow(), *_pool(shift_template)]:
        if not _one_prime(g):
            continue
        (part,), (want,) = primary_decompose(g).parts, oracles.separate_primary_decompose(g).parts
        h = part.subgroup
        assert part.window is g.window and h.window is g.window
        assert part == want
        assert h.generators == g.canonical_generators == tuple(h.window.from_flat(x.flat) for x in want.subgroup.generators)
        assert h.presentation_margin() == want.subgroup.presentation_margin(), g
        for q in _prime_powers(g):
            assert torsion_subgroup(h, q) is torsion_subgroup(g, q)
        checked += 1
    assert checked >= 100
    # the given presentation is narrower than the canonical one: the part
    # keeps the canonical margin, so it is not G itself
    g = _narrow()
    assert (g.presentation_margin(), primary_decompose(g).parts[0].subgroup.presentation_margin()) == (2, 3)


def _outputs(tmp_path, g, capsys):
    """Exit code, printed text and written bytes of synthesize, verify and decompose on G."""
    tmp_path.mkdir()
    group = tmp_path / "g.json"
    group.write_text(json.dumps(group_to_json(g)))
    runs = []
    for args in (
        ["synthesize", "--input", str(group), "--out", str(tmp_path / "enc.json")],
        ["synthesize", "--input", str(group), "--out", str(tmp_path / "any.json"), "--override-undetermined"],
        ["verify", "--input", str(group), "--encoder", str(tmp_path / "enc.json")],
        ["decompose", "--input", str(group), "--out", str(tmp_path / "dec.json")],
    ):
        code, (out, err) = main(args), capsys.readouterr()
        runs.append((code, out.replace(str(tmp_path), "DIR"), err.replace(str(tmp_path), "DIR")))
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    return runs, files


def test_commands_write_the_bytes_of_the_separate_part(shift_template, tmp_path, monkeypatch, capsys):
    # the narrow group, whose part must keep the canonical margin, and the
    # one-prime pool groups, each with the part built in a sub-window of its
    # own and with the part that keeps G's window
    groups = [_narrow()] + [g for g in _pool(shift_template) if _one_prime(g)][::4]
    for k, g in enumerate(groups):
        got = _outputs(tmp_path / f"shared{k}", g, capsys)
        with monkeypatch.context() as patch:
            for module in (cli, synthesis, torsion):
                patch.setattr(module, "primary_decompose", oracles.separate_primary_decompose)
            want = _outputs(tmp_path / f"separate{k}", g, capsys)
        assert got == want, g
    assert len(groups) >= 30
