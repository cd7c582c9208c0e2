import json
from pathlib import Path

import pytest

from groupwindows import WindowSubgroup, cli, fileio, primary_decompose
from groupwindows.cli import main
from groupwindows.errors import InputError

import oracles

SHIFT_TEMPLATE = {
    "component_template": {"period": 1, "orders": [[4]]},
    "fixed_generators": [{"support": {"1": [2], "2": [1]}}],
    "shifted_generators": [{"start": 2, "stride": 1, "pattern": {"0": [1], "1": [1]}}],
}


@pytest.fixture
def template_path(tmp_path):
    path = tmp_path / "template.json"
    path.write_text(json.dumps(SHIFT_TEMPLATE))
    return str(path)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_check_running_example_fails_every_window(template_path, tmp_path):
    for n in (4, 6, 8):
        out = tmp_path / f"cert{n}.json"
        code = main(
            [
                "check",
                "--input", template_path,
                "--property", "order-controllable",
                "--window", str(n),
                "--out", str(out),
            ]
        )
        assert code == 1
        cert = json.loads(out.read_text())
        assert cert["status"] == "fails"
        assert "witness" in cert
        assert cert["witness_context"]["projection_order"] == 2


def test_check_rectangular_group_holds(tmp_path):
    path = write(
        tmp_path,
        "rect.json",
        {"components": [[4], [2], [4]], "generators": [
            [[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]],
        ]},
    )
    out = tmp_path / "cert.json"
    code = main(["check", "--input", path, "--property", "order-controllable", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["status"] == "holds"
    assert cert["indices"] == {"1": 1, "2": 2}


def test_check_margin_consumes_window(template_path, tmp_path):
    path = write(
        tmp_path,
        "wide.json",
        {
            "component_template": {"period": 1, "orders": [[2]]},
            "fixed_generators": [{"support": {"1": [1], "4": [1]}}],
            "shifted_generators": [],
        },
    )
    code = main(["check", "--input", path, "--property", "weakly-controllable", "--window", "4"])
    assert code == 2


def test_check_max_index_below_one_exits_3(template_path, tmp_path, capsys):
    # one input certified under the margin policy, one whose generator spans
    # the whole window and so is certified as its own universe
    wide = write(tmp_path, "wide.json", {"components": [[2], [2]], "generators": [[[1], [1]]]})
    inputs = (["--input", template_path, "--window", "4"], ["--input", wide])
    for source in inputs:
        for prop in ("controllable", "order-controllable", "rectangular", "weakly-observable"):
            for bad in ("0", "-2"):
                code = main(["check", *source, "--property", prop, "--max-index", bad])
                assert code == 3
                assert "max_index must be at least 1" in capsys.readouterr().err
    assert main(["check", "--input", wide, "--property", "controllable", "--max-index", "1"]) == 0


def test_check_malformed_residue_exits_3(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"components": [[4]], "generators": [[[4]]]})
    code = main(["check", "--input", path, "--property", "rectangular"])
    assert code == 3
    err = capsys.readouterr().err
    assert "generators[0][0][0]" in err and "residue 4" in err


def test_unroll_running_example(template_path, tmp_path):
    out = tmp_path / "g3.json"
    assert main(["unroll", "--input", template_path, "--window", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["components"] == [[4], [4], [4]]
    assert payload["generators"] == [[[2], [1], [0]], [[0], [1], [1]]]
    assert payload["meta"]["skipped"] == [{"pattern": "shifted[0]", "start": 3}]


def test_unroll_empty_template(tmp_path):
    path = write(
        tmp_path,
        "empty.json",
        {"component_template": {"period": 1, "orders": [[4]]}},
    )
    out = tmp_path / "g5.json"
    assert main(["unroll", "--input", path, "--window", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["generators"] == []


def test_unroll_window_below_fixed_support(template_path):
    assert main(["unroll", "--input", template_path, "--window", "1"]) == 3


def test_window_below_one_is_named_before_the_fixed_support(template_path, capsys):
    # a window below 1 is reported as such, not as too short for a generator
    for command in (["check", "--property", "order-controllable"], ["unroll"], ["synthesize"]):
        for bad in ("0", "-3"):
            assert main([*command, "--input", template_path, "--window", bad]) == 3
            err = capsys.readouterr().err
            assert "window length must be >= 1" in err and "fixed generator" not in err


def test_synthesize_crt_window_emits_two_encoders(tmp_path):
    path = write(tmp_path, "z6.json", {"components": [[2, 3]], "generators": [[[1, 0]], [[0, 1]]]})
    out = tmp_path / "enc.json"
    assert main(["synthesize", "--input", path, "--out", str(out)]) == 0
    manifest = json.loads(out.read_text())
    assert manifest["primes"] == [2, 3]
    assert sorted(manifest["files"]) == ["2", "3"]
    for p in ("2", "3"):
        enc = json.loads((tmp_path / manifest["files"][p]).read_text())
        assert len(enc["generators"]) == 1
    assert manifest["verdicts"]["isomorphic_encoder"] is True


def test_synthesize_running_example_fails_without_override(template_path, tmp_path):
    out = tmp_path / "enc.json"
    code = main(
        ["synthesize", "--input", template_path, "--window", "6", "--out", str(out)]
    )
    assert code == 1
    assert not (tmp_path / "enc.p2.json").exists()


# The exact bytes of every file `synthesize` and `verify` write on two inputs:
# the running example's closure at N = 8 and the group Z(2) x Z(3).
PINNED = json.loads((Path(__file__).parent / "pinned_outputs.json").read_text())


def _pinned_inputs(case, tmp_path, template_path):
    """The group file of a pinned case, made as a user would make it."""
    if case == "closure-8":
        group = tmp_path / "group.json"
        argv = ["unroll", "--input", template_path, "--window", "8", "--closure", "--out", str(group)]
        assert main(argv) == 0
        return str(group)
    return write(tmp_path, "z6.json", {"components": [[2, 3]], "generators": [[[1, 0]], [[0, 1]]]})


@pytest.mark.parametrize("case", ["closure-8", "z2-z3"])
def test_synthesize_and_verify_write_the_pinned_bytes(case, tmp_path, template_path):
    group = _pinned_inputs(case, tmp_path, template_path)
    enc = tmp_path / "enc.json"
    assert main(["synthesize", "--input", group, "--out", str(enc)]) == 0
    report = tmp_path / "report.json"
    assert main(["verify", "--input", group, "--encoder", str(enc), "--out", str(report)]) == 0
    for name, text in sorted(PINNED[case].items()):
        assert (tmp_path / name).read_text() == text, name


def _zero_heights(enc):
    enc["heights"] = [0] * len(enc["heights"])
    enc["orders"] = [enc["prime"]] * len(enc["orders"])


def _sum_first_two_socle_elements(enc):
    x0, x1 = enc["socle_elements"][:2]
    mods = enc["components"]
    enc["socle_elements"][0] = [
        [(a + b) % m for a, b, m in zip(r0, r1, ms)] for r0, r1, ms in zip(x0, x1, mods)
    ]


# The failing reports of the closure at N = 8 with its p = 2 encoder tampered.
@pytest.mark.parametrize(
    "case, tamper",
    [
        ("closure-8-heights-zeroed", _zero_heights),
        ("closure-8-first-socle-summed", _sum_first_two_socle_elements),
    ],
)
def test_verify_writes_the_pinned_failing_report(case, tamper, tmp_path, template_path):
    group = _pinned_inputs("closure-8", tmp_path, template_path)
    enc = tmp_path / "enc.json"
    assert main(["synthesize", "--input", group, "--out", str(enc)]) == 0
    enc_path = tmp_path / "enc.p2.json"
    payload = json.loads(enc_path.read_text())
    tamper(payload)
    enc_path.write_text(json.dumps(payload))
    report = tmp_path / "report.json"
    assert main(["verify", "--input", group, "--encoder", str(enc), "--out", str(report)]) == 1
    assert report.read_text() == PINNED[case]["report.json"]


def test_synthesize_verify_round_trip_on_closure(template_path, tmp_path):
    group_path = tmp_path / "c8.json"
    assert main(
        ["unroll", "--input", template_path, "--window", "8", "--closure", "--out", str(group_path)]
    ) == 0
    out = tmp_path / "enc.json"
    assert main(["synthesize", "--input", str(group_path), "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(
        ["verify", "--input", str(group_path), "--encoder", str(out), "--out", str(report)]
    ) == 0
    payload = json.loads(report.read_text())
    assert payload["pass"] is True
    assert payload["combined"]["bijective"] is True


def test_verify_flags_tampered_height(template_path, tmp_path):
    group_path = tmp_path / "c6.json"
    main(["unroll", "--input", template_path, "--window", "6", "--closure", "--out", str(group_path)])
    out = tmp_path / "enc.json"
    main(["synthesize", "--input", str(group_path), "--out", str(out)])
    enc_path = tmp_path / "enc.p2.json"
    enc = json.loads(enc_path.read_text())
    enc["heights"][1] += 1
    enc["orders"][1] *= 2
    enc_path.write_text(json.dumps(enc))
    report = tmp_path / "report.json"
    code = main(["verify", "--input", str(group_path), "--encoder", str(out), "--out", str(report)])
    assert code == 1
    payload = json.loads(report.read_text())
    flagged = [k for k, v in payload["parts"]["2"].items() if not v["pass"]]
    assert "d" in flagged or "e" in flagged


def test_verify_reports_a_socle_element_outside_the_group(tmp_path, capsys):
    # a well-formed encoder whose socle element leaves G fails verify (exit 1)
    # with a report; it is no input error
    group = write(tmp_path, "g.json", {"components": [[2], [2]], "generators": [[[1], [1]]]})
    out = tmp_path / "enc.json"
    assert main(["synthesize", "--input", group, "--out", str(out)]) == 0
    enc_path = tmp_path / "enc.p2.json"
    enc = json.loads(enc_path.read_text())
    enc["socle_elements"] = [[[1], [0]]]
    enc_path.write_text(json.dumps(enc))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["verify", "--input", group, "--encoder", str(out), "--out", str(report)]) == 1
    assert "input error" not in capsys.readouterr().err
    payload = json.loads(report.read_text())
    assert payload["pass"] is False
    assert sorted(k for k, v in payload["parts"]["2"].items() if not v["pass"]) == ["d", "e", "f"]


def test_verify_reports_a_socle_element_of_order_p_squared(tmp_path, capsys):
    # a listed socle element that p does not kill has no socle vector; the
    # clauses that read one fail and verify exits 1 with a report
    group = write(tmp_path, "g.json", {"components": [[4], [4]], "generators": [[[1], [1]]]})
    out = tmp_path / "enc.json"
    assert main(["synthesize", "--input", group, "--out", str(out)]) == 0
    enc_path = tmp_path / "enc.p2.json"
    enc = json.loads(enc_path.read_text())
    assert enc["socle_elements"] == [[[2], [2]]]
    enc["socle_elements"] = [[[1], [1]]]
    enc_path.write_text(json.dumps(enc))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["verify", "--input", group, "--encoder", str(out), "--out", str(report)]) == 1
    assert "input error" not in capsys.readouterr().err
    payload = json.loads(report.read_text())
    assert payload["pass"] is False
    failed = sorted(k for k, v in payload["parts"]["2"].items() if not v["pass"])
    assert {"a", "c", "d", "f"} <= set(failed)


def test_verify_fails_every_clause_reading_an_unkilled_element_where_it_is_read(tmp_path):
    # x_1 = (2, 1) has order 4 but its prefix on [1, 1] has order 2: (b) and
    # eq1 read x_1 from block 1 on, so they fail there
    group = write(tmp_path, "g.json", {"components": [[4], [4]], "generators": [[[1], [0]], [[0], [1]]]})
    out = tmp_path / "enc.json"
    assert main(["synthesize", "--input", group, "--out", str(out)]) == 0
    enc_path = tmp_path / "enc.p2.json"
    enc = json.loads(enc_path.read_text())
    assert enc["socle_elements"] == [[[2], [0]], [[0], [2]]]
    enc["socle_elements"][0] = [[2], [1]]
    enc_path.write_text(json.dumps(enc))
    report = tmp_path / "report.json"
    assert main(["verify", "--input", group, "--encoder", str(out), "--out", str(report)]) == 1
    clauses = json.loads(report.read_text())["parts"]["2"]
    assert clauses["b"] == {"pass": False, "detail": "block 1: projected socle not covered"}
    assert clauses["eq1"] == {"pass": False, "detail": "block 1: projected socle differs from projected span"}


@pytest.mark.parametrize(
    "blocks",
    [
        [{"d": 1, "m": 1}, {"d": 2, "m": 2}, {"d": 3, "m": 9}],
        [],
        [{"d": 1, "m": 2}, {"d": 2, "m": 1}, {"d": 3, "m": 3}],
        [{"d": 1, "m": -1}, {"d": 3, "m": 3}],
    ],
)
def test_verify_refuses_blocks_that_do_not_partition_the_generators(blocks, tmp_path, capsys):
    group = write(
        tmp_path,
        "g.json",
        {"components": [[2], [2], [2]], "generators": [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]]},
    )
    out = tmp_path / "enc.json"
    assert main(["synthesize", "--input", group, "--out", str(out)]) == 0
    enc_path = tmp_path / "enc.p2.json"
    enc = json.loads(enc_path.read_text())
    assert enc["blocks"] == [{"d": 1, "m": 1}, {"d": 2, "m": 2}, {"d": 3, "m": 3}]
    enc["blocks"] = blocks
    enc_path.write_text(json.dumps(enc))
    capsys.readouterr()
    assert main(["verify", "--input", group, "--encoder", str(out)]) == 3
    assert "input error: blocks must" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("blocks", [{"d": 2, "m": 1}, {"d": 1, "m": 2}], "blocks[1].d: depth 1 not above the previous block's 2"),
        ("blocks", [{"d": 1, "m": 1}, {"d": 7, "m": 2}], "blocks[1].d: depth 7 outside [1, 2]"),
        ("n_sequence", {"1": 9, "2": 2}, "n_sequence['1']: index 9 outside [1, 2]"),
        ("heights", [-1, 0], "heights[0]: height -1 is negative"),
        ("heights", [0, -3], "heights[1]: height -3 is negative"),
    ],
    ids=[
        "blocks-decreasing", "blocks-past-the-window", "n-sequence-past-the-window",
        "heights-negative", "heights-negative-float-orders",
    ],
)
def test_verify_names_an_encoder_depth_outside_the_window(key, value, message, tmp_path, capsys):
    group = write(tmp_path, "g.json", {"components": [[4], [4]], "generators": [[[1], [0]], [[0], [1]]]})
    out = tmp_path / "enc.json"
    assert main(["synthesize", "--input", group, "--out", str(out)]) == 0
    enc_path = tmp_path / "enc.p2.json"
    enc = json.loads(enc_path.read_text())
    assert (enc["blocks"], enc["n_sequence"]) == ([{"d": 1, "m": 1}, {"d": 2, "m": 2}], {"1": 1, "2": 2})
    enc[key] = value
    enc_path.write_text(json.dumps(enc))
    capsys.readouterr()
    assert main(["verify", "--input", group, "--encoder", str(out)]) == 3
    assert capsys.readouterr().err == f"input error: {enc_path}.{message}\n"


def _echelon_recorder(monkeypatch):
    """Record every ``row_lattice_basis`` call of a command, but not the loaded group's own basis."""
    from groupwindows import window as window_module

    calls, paused = [], []
    real_basis, real_load = window_module.row_lattice_basis, fileio.load_group_file

    def recorded(rows, width, mods=()):
        if not paused:
            calls.append(([tuple(r) for r in rows], width, tuple(mods)))
        return real_basis(rows, width, mods)

    def load_group_file(path):
        group = real_load(path)
        paused.append(True)
        group.basis
        paused.pop()
        return group

    monkeypatch.setattr(window_module, "row_lattice_basis", recorded)
    monkeypatch.setattr(fileio, "load_group_file", load_group_file)
    return calls


def _echelons_of_generators(calls, group, encoder_paths):
    """How many recorded calls echelon each part's generators y.

    ``WindowSubgroup(window, ys).basis`` echelons the rows of ys with the
    window's factor orders as the moduli of its relations; the rows may be a
    part's own or embedded among every part's in G's window.
    """
    dec = primary_decompose(group)
    parts = {}
    for path in encoder_paths:
        gs, _window, _coords = fileio.load_encoder_file(path)
        part = dec.part(gs.prime)
        own = {y.flat for y in gs.generators}
        parts[gs.prime] = (own, {part.embed(y, group.window).flat for y in gs.generators}, part)
    every = set().union(*(embedded for _, embedded, _ in parts.values()))
    counts = {}
    for p, (own, embedded, part) in parts.items():
        counts[p] = 0
        for rows, width, mods in calls:
            gens = set(rows)
            if (width, mods) == (part.window.flat_length, part.window.flat_orders) and gens == own:
                counts[p] += 1
            elif (width, mods) == (group.window.flat_length, group.window.flat_orders) and embedded <= gens <= every:
                counts[p] += 1
    return counts


def test_verify_echelons_each_parts_generators_once(template_path, tmp_path, monkeypatch):
    # one echelon of each part's y decides every spanning verdict; verify
    # used to echelon them in verify_isomorphic_encoder, in
    # check_implicit_direct_product and, embedded, in its combined check
    closure = tmp_path / "c16.json"
    main(["unroll", "--input", template_path, "--window", "16", "--closure", "--out", str(closure)])
    mixed = write(
        tmp_path,
        "mixed.json",
        {
            "components": [[4, 3], [2, 9], [4, 3]],
            "generators": [
                [[1, 1], [0, 0], [0, 0]], [[0, 0], [1, 3], [0, 0]],
                [[2, 0], [1, 1], [0, 2]], [[0, 0], [0, 0], [1, 0]],
            ],
        },
    )
    for group, primes in ((str(closure), [2]), (mixed, [2, 3])):
        out = tmp_path / "enc.json"
        assert main(["synthesize", "--input", group, "--out", str(out)]) == 0
        with monkeypatch.context() as patch:
            calls = _echelon_recorder(patch)
            assert main(["verify", "--input", group, "--encoder", str(out)]) == 0
        encoders = [str(tmp_path / f"enc.p{p}.json") for p in primes]
        counts = _echelons_of_generators(calls, fileio.load_group_file(group), encoders)
        assert counts == dict.fromkeys(primes, 1), group


def test_verify_compares_windows_a_linear_number_of_times(template_path, tmp_path, monkeypatch):
    # once an encoder's window matches its part's, its elements move onto
    # the part's window, so every later window check is an identity test:
    # the coordinate compares grow linearly in N, not quadratically
    from groupwindows.window import ComponentGroup

    real, compares = ComponentGroup.__eq__, []

    def counted(a, b):
        compares.append(1)
        return real(a, b)

    for n in (8, 16, 32):
        closure, out = str(tmp_path / f"c{n}.json"), str(tmp_path / f"enc{n}.json")
        assert main(["unroll", "--input", template_path, "--window", str(n), "--closure", "--out", closure]) == 0
        assert main(["synthesize", "--input", closure, "--out", out]) == 0
        compares.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ComponentGroup, "__eq__", counted)
            assert main(["verify", "--input", closure, "--encoder", out]) == 0
        assert 0 < len(compares) <= 2 * n, (n, len(compares))


def test_verify_shape_mismatch_exits_3(template_path, tmp_path):
    group_path = tmp_path / "c6.json"
    main(["unroll", "--input", template_path, "--window", "6", "--closure", "--out", str(group_path)])
    out = tmp_path / "enc.json"
    main(["synthesize", "--input", str(group_path), "--out", str(out)])
    other = write(tmp_path, "other.json", {"components": [[2], [2]], "generators": [[[1], [0]]]})
    assert main(["verify", "--input", other, "--encoder", str(out)]) == 3


def test_decompose_crt_window(tmp_path, capsys):
    path = write(tmp_path, "z6.json", {"components": [[2, 3]], "generators": [[[1, 1]]]})
    out = tmp_path / "dec.json"
    assert main(["decompose", "--input", path, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["primes"] == [2, 3]
    assert payload["order"] == 6
    assert payload["parts"]["2"]["order"] == 2
    assert payload["parts"]["3"]["order"] == 3


def test_outputs_byte_identical_across_runs(template_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        main(
            [
                "check",
                "--input", template_path,
                "--property", "order-controllable",
                "--window", "6",
                "--out", str(out),
            ]
        )
    assert a.read_bytes() == b.read_bytes()


def test_certificates_embed_input_hash_and_revalidate(template_path, tmp_path):
    out = tmp_path / "cert.json"
    main(
        [
            "check",
            "--input", template_path,
            "--property", "order-controllable",
            "--window", "6",
            "--out", str(out),
        ]
    )
    cert = json.loads(out.read_text())
    assert cert["input_sha256"] == fileio.sha256_of(SHIFT_TEMPLATE)
    # replay the witness against the unrolled group through the library
    from groupwindows import Certificate, unroll_template

    template = fileio.parse_template(SHIFT_TEMPLATE)
    g = unroll_template(template, 6).group
    witness = g.window.element(cert["witness"])
    replay = Certificate(
        property=cert["property"],
        window=cert["window"],
        status=cert["status"],
        indices={int(k): v for k, v in cert["indices"].items()},
        witness=witness,
        witness_context={
            "i": cert["witness_context"]["i"],
            "n": cert["witness_context"]["n"],
        },
        stabilization={int(k): v for k, v in cert["stabilization"].items()},
        notes={},
    )
    assert oracles.revalidate_witness(replay, g)


def test_encoder_file_round_trip(template_path, tmp_path):
    group_path = tmp_path / "c6.json"
    main(["unroll", "--input", template_path, "--window", "6", "--closure", "--out", str(group_path)])
    out = tmp_path / "enc.json"
    main(["synthesize", "--input", str(group_path), "--out", str(out)])
    gs, window, coords = fileio.load_encoder_file(str(tmp_path / "enc.p2.json"))
    group = fileio.load_group_file(str(group_path))
    assert window == group.window
    assert coords == list(range(1, 7))
    from groupwindows import verify_block_properties, verify_isomorphic_encoder

    assert verify_block_properties(gs, group).passed()
    assert verify_isomorphic_encoder(gs, group)


def test_template_json_parse_errors_name_positions(tmp_path):
    path = write(tmp_path, "t.json", {"component_template": {"period": 1}})
    with pytest.raises(InputError, match="component_template.orders"):
        fileio.load_template_file(path)
    bad = tmp_path / "nota.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="line 1"):
        fileio.load_json(str(bad))


def test_synthesize_override_on_undetermined_window(tmp_path):
    # a fixed generator spanning the whole window consumes the margin; the
    # certificate is undetermined, and only the override lets synthesis run
    path = write(
        tmp_path,
        "wide.json",
        {
            "component_template": {"period": 1, "orders": [[2]]},
            "fixed_generators": [{"support": {"1": [1], "4": [1]}}],
            "shifted_generators": [],
        },
    )
    out = tmp_path / "enc.json"
    assert main(["synthesize", "--input", path, "--window", "4", "--out", str(out)]) == 2
    code = main(
        ["synthesize", "--input", path, "--window", "4", "--out", str(out),
         "--override-undetermined"]
    )
    assert code == 0
    manifest = json.loads(out.read_text())
    assert manifest["verdicts"]["determined"] is False
    assert manifest["verdicts"]["isomorphic_encoder"] is True


def test_check_lists_no_elements(template_path, tmp_path, monkeypatch):
    # every check is decided by lattice inclusions, so none lists elements
    def refuse(self, *args, **kwargs):
        raise AssertionError("check listed the elements of a subgroup")

    monkeypatch.setattr(WindowSubgroup, "elements", refuse)
    expected = {
        "weakly-controllable": 0,
        "controllable": 2,
        "order-controllable": 1,
        "weakly-observable": 1,
        "rectangular": 1,
    }
    for prop, code in expected.items():
        out = tmp_path / f"{prop}.json"
        argv = ["check", "--input", template_path, "--property", prop, "--window", "12"]
        assert main(argv + ["--out", str(out)]) == code, prop
        cert = json.loads(out.read_text())
        assert ("witness" in cert) == (code == 1)


def test_synthesize_and_verify_list_no_elements(template_path, tmp_path, monkeypatch):
    # generators are picked and re-checked from the height filtration, so
    # neither command lists elements
    closure = tmp_path / "c12.json"
    assert main(["unroll", "--input", template_path, "--window", "12", "--closure", "--out", str(closure)]) == 0
    mixed = write(tmp_path, "mixed.json", {
        "components": [[2, 3], [4], [9], [2, 3]],
        "generators": [[[1, 1], [2], [0], [0, 0]], [[0, 0], [1], [3], [0, 0]], [[0, 0], [0], [1], [1, 2]]],
    })

    def refuse(self, *args, **kwargs):
        raise AssertionError("a command listed the elements of a subgroup")

    monkeypatch.setattr(WindowSubgroup, "elements", refuse)
    for k, group in enumerate((str(closure), mixed)):
        out, report = tmp_path / f"enc{k}.json", tmp_path / f"report{k}.json"
        assert main(["synthesize", "--input", group, "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["primes"]) == k + 1
        assert main(["verify", "--input", group, "--encoder", str(out), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["pass"] is True


def test_synthesize_large_arena_exits_0(tmp_path):
    # one coordinate of 21 Z(2) factors: the arena has 2^21 elements, more
    # than WindowSubgroup.elements lists, and no command lists it
    gens = [[[int(k == f) for k in range(21)], [0]] for f in range(21)] + [[[0] * 21, [1]]]
    path = write(tmp_path, "big.json", {"components": [[2] * 21, [4]], "generators": gens})
    out, report = tmp_path / "enc.json", tmp_path / "report.json"
    assert main(["synthesize", "--input", path, "--out", str(out)]) == 0
    manifest = json.loads(out.read_text())
    assert manifest["order"] == 2**23 and manifest["verdicts"]["isomorphic_encoder"] is True
    assert main(["verify", "--input", path, "--encoder", str(out), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["pass"] is True


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []

    def build():
        built.append(1)
        return real()

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", build)
    monkeypatch.setattr(cli, "_parser", None)
    path = write(tmp_path, "g.json", {"components": [[2]], "generators": [[[1]]]})
    for _ in range(2):
        assert main(["decompose", "--input", path, "--out", str(tmp_path / "d.json")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--input", "x.json"], "the following arguments are required: --property"),
        (
            ["check", "--input", "x.json", "--property", "rectangular", "--window", "abc"],
            "argument --window: invalid int value: 'abc'",
        ),
    ],
)
def test_malformed_command_line_exits_3(argv, message, capsys):
    # exit 2 means "undetermined at this window"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: groupwindows check ")
    assert err.endswith(f"groupwindows check: error: {message}\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: groupwindows check ")


def _manifest(tmp_path, edit):
    """A synthesized encoder manifest for Z(2), changed by ``edit``, and its verify argv."""
    group = write(tmp_path, "g.json", {"components": [[2]], "generators": [[[1]]]})
    out = tmp_path / "enc.json"
    assert main(["synthesize", "--input", group, "--out", str(out)]) == 0
    manifest = json.loads(out.read_text())
    edit(manifest, tmp_path)
    out.write_text(json.dumps(manifest))
    return ["verify", "--input", group, "--encoder", str(out)]


def _raw_input(text):
    def build(tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return ["check", "--input", str(path), "--property", "rectangular"]

    return build


def _template_input(**extra):
    return _raw_input(json.dumps({"component_template": {"period": 1, "orders": [[2]]}, **extra}))


def _encoder_coordinates(manifest, tmp_path):
    enc = tmp_path / manifest["files"]["2"]
    payload = json.loads(enc.read_text())
    payload["coordinates"] = 5
    enc.write_text(json.dumps(payload))


def _encoder_n_sequence_key(manifest, tmp_path):
    enc = tmp_path / manifest["files"]["2"]
    payload = json.loads(enc.read_text())
    payload["n_sequence"] = {f"+{k}": n for k, n in payload["n_sequence"].items()}
    enc.write_text(json.dumps(payload))


def _support_key(key):
    # a fixed generator on coordinate "key"; int() would read each of these keys
    def build(tmp_path):
        argv = _template_input(fixed_generators=[{"support": {key: [1]}}])(tmp_path)
        return argv + ["--window", "12"]

    return build


def _unwritable_out(out, command, *options):
    def build(tmp_path):
        group = write(tmp_path, "g.json", {"components": [[2]], "generators": [[[1]]]})
        return [command, "--input", group, *options, "--out", str(out(tmp_path))]

    return build


MALFORMED_INPUTS = {
    "directory": lambda tmp_path: ["check", "--input", str(tmp_path), "--property", "rectangular"],
    "integer-over-digit-limit": _raw_input('{"components": [[' + "1" * 5000 + ']], "generators": []}'),
    "not-utf8": _raw_input(b'{"components": [[2]], "generators": [], "x": "\xff"}'),
    "nested-too-deep": _raw_input("[" * 200_000 + "]" * 200_000),
    "template-fixed-not-list": _template_input(fixed_generators=5),
    "template-shifted-not-list": _template_input(shifted_generators=7),
    "encoder-coordinates-not-list": lambda tmp_path: _manifest(tmp_path, _encoder_coordinates),
    "manifest-files-not-object": lambda tmp_path: _manifest(
        tmp_path, lambda m, _: m.update(files=["enc.p2.json"])
    ),
    "manifest-file-name-not-string": lambda tmp_path: _manifest(
        tmp_path, lambda m, _: m.update(files={"2": 5})
    ),
    "manifest-key-not-its-prime": lambda tmp_path: _manifest(
        tmp_path, lambda m, _: m.update(files={"3": "enc.p2.json"})
    ),
    "manifest-prime-listed-twice": lambda tmp_path: _manifest(
        tmp_path, lambda m, _: m.update(files={"2": "enc.p2.json", "3": "enc.p2.json"})
    ),
    "encoder-n-sequence-key-signed": lambda tmp_path: _manifest(tmp_path, _encoder_n_sequence_key),
    "support-key-underscore": _support_key("1_0"),
    "support-key-spaces": _support_key(" 3 "),
    "support-key-signed": _support_key("+2"),
    "support-key-arabic-indic-digit": _support_key("\u0663"),
    "out-is-directory": _unwritable_out(lambda d: d, "check", "--property", "rectangular"),
    "out-in-missing-directory": _unwritable_out(lambda d: d / "missing" / "enc.json", "synthesize"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_3(case, tmp_path, capsys):
    # exit 1 means "fails"; an unreadable or ill-typed file is an input error
    argv = MALFORMED_INPUTS[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 3
    assert "input error:" in capsys.readouterr().err


ENCODER = {
    "prime": 2,
    "orders": [2],
    "generators": [[[1]]],
    "blocks": [{"d": 1, "m": 1}],
    "heights": [0],
    "n_sequence": {"1": 1},
    "components": [[2]],
    "coordinates": [1],
}


def _template_with(**edit):
    payload = json.loads(json.dumps(SHIFT_TEMPLATE))
    for key, value in edit.items():
        if key == "orders":
            payload["component_template"]["orders"] = value
        else:
            payload["fixed_generators"][0]["support"] = value
    return payload


INT_LIST_ERRORS = {
    "template-orders-entry": (
        fileio.parse_template,
        _template_with(orders=[[4, "x"]]),
        "template.component_template.orders[0][1]: expected an integer, got 'x'",
    ),
    "template-orders-list": (
        fileio.parse_template,
        _template_with(orders=[4]),
        "template.component_template.orders[0]: expected a list, got int",
    ),
    "support-residues-entry": (
        fileio.parse_template,
        _template_with(support={"1": [2], "2": [True]}),
        "template.fixed_generators[0].support['2'][0]: expected an integer, got True",
    ),
    "support-residues-list": (
        fileio.parse_template,
        _template_with(support={"1": 2}),
        "template.fixed_generators[0].support['1']: expected a list, got int",
    ),
    "encoder-heights-entry": (
        fileio.parse_encoder, {**ENCODER, "heights": [0.5]}, "encoder.heights[0]: expected an integer, got 0.5"
    ),
    "encoder-heights-list": (
        fileio.parse_encoder, {**ENCODER, "heights": "0"}, "encoder.heights: expected a list, got str"
    ),
    "encoder-orders-entry": (
        fileio.parse_encoder, {**ENCODER, "orders": [None]}, "encoder.orders[0]: expected an integer, got None"
    ),
    "encoder-orders-list": (
        fileio.parse_encoder, {**ENCODER, "orders": {}}, "encoder.orders: expected a list, got dict"
    ),
    "encoder-coordinates-entry": (
        fileio.parse_encoder,
        {**ENCODER, "coordinates": [1, "2"]},
        "encoder.coordinates[1]: expected an integer, got '2'",
    ),
    "encoder-coordinates-list": (
        fileio.parse_encoder, {**ENCODER, "coordinates": 1}, "encoder.coordinates: expected a list, got int"
    ),
}


@pytest.mark.parametrize("case", sorted(INT_LIST_ERRORS))
def test_integer_list_errors_name_the_list_or_the_entry(case):
    parse, payload, message = INT_LIST_ERRORS[case]
    with pytest.raises(InputError) as exc:
        parse(payload)
    assert str(exc.value) == message


def test_valid_integer_lists_parse():
    gs, _, coords = fileio.parse_encoder(ENCODER)
    assert (gs.heights, gs.orders, coords) == ((0,), (2,), [1])
    template = fileio.parse_template(_template_with(orders=[[4]]))
    assert template.component_orders == ((4,),)
    assert template.fixed_generators[0].support == ((1, (2,)), (2, (1,)))
