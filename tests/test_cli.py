import json

import pytest

from groupwindows import WindowSubgroup, cli, fileio
from groupwindows.cli import main
from groupwindows.errors import InputError, WindowScaleError

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
    from groupwindows import Certificate, unroll_template, revalidate_witness

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
    assert revalidate_witness(replay, g)


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


def test_scale_limit_exits_4(tmp_path, monkeypatch, capsys):
    # a scan over the element limit is not malformed input: own message, exit 4
    path = write(tmp_path, "g.json", {"components": [[2]], "generators": [[[1]]]})

    def refuse(*args, **kwargs):
        raise WindowScaleError("subgroup has 2 elements, beyond the exact-scan limit 1")

    monkeypatch.setattr(cli, "certify", refuse)
    assert main(["check", "--input", path, "--property", "controllable"]) == 4
    err = capsys.readouterr().err
    assert "scale limit: subgroup has 2 elements" in err
    assert "input error" not in err


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
    # neither command, nor the prefix witness, lists elements
    from groupwindows import max_height_prefix_witness, section, socle

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

    g = fileio.load_group_file(str(closure))
    x = socle(section(g, (1, 3)), 2).basis[0]
    assert max_height_prefix_witness(x, 1, g, 3).restrict((1, 1)) == x.restrict((1, 1))


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
