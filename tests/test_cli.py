import base64
import copy
import hashlib
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import almostidem
from almostidem import numlin as nl
from almostidem import channels as chn
from almostidem import serialize as ser
from almostidem import pipeline
from almostidem import starcalc as sc
from almostidem.cli import main, two_level_example, _parse_pairs


def _bits(m) -> bytes:
    return np.ascontiguousarray(m, dtype="<c16").tobytes()


class TestSerialization:
    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = ser.matrix_from_json(ser.matrix_to_json(m))
        np.testing.assert_allclose(back, m)

    def test_channel_roundtrip(self):
        ch = chn.gen_random_ucp(3, 2, seed=1)
        data = ser.channel_to_dict(ch, {"note": "test"})
        assert data["format"] == "aiq-channel/2"
        assert data["choi"]["dtype"] == "<c16" and data["choi"]["shape"] == [9, 9]
        back = ser.channel_from_dict(json.loads(json.dumps(data)))
        assert _bits(back.choi) == _bits(ch.choi)
        # an aiq-channel/1 file, the Choi as nested [re, im] lists, still reads
        lists = {**data, "format": "aiq-channel/1", "choi": ser.matrix_to_json(ch.choi)}
        old = ser.channel_from_dict(json.loads(json.dumps(lists)))
        assert np.array_equal(old.choi, ch.choi)

    def test_b64_roundtrip_is_bit_exact(self):
        big = np.finfo(float).max
        tiny = np.finfo(float).smallest_subnormal
        special = np.array([[-0.0, complex(0.0, -0.0), complex(-0.0, -0.0)],
                            [tiny, complex(-tiny, 3 * tiny), 2.2e-308 / 3],
                            [big, complex(-big, big), complex(0.1, -big)]])
        rng = np.random.default_rng(2)
        for m in (special, special.T, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))):
            # the base64 node and the nested [re, im] lists both keep every bit
            for node in (ser.matrix_to_b64(m), ser.matrix_to_json(m)):
                back = ser.matrix_from_json(json.loads(json.dumps(node)))
                assert back.dtype == complex and back.flags.writeable
                assert _bits(back) == _bits(m)
        signs = ser.matrix_from_json([[[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]]])
        assert np.signbit(signs.real).tolist() == [[True, False, True]]
        assert np.signbit(signs.imag).tolist() == [[True, True, False]]
        ch = chn.Channel.from_choi(special[:2, :2].copy(), 1, 2)
        back = ser.channel_from_dict(json.loads(json.dumps(ser.channel_to_dict(ch))))
        assert _bits(back.choi) == _bits(ch.choi)

    def test_parse_errors(self):
        with pytest.raises(ser.ParseError):
            ser.channel_from_dict({"format": "something-else"})
        with pytest.raises(ser.ParseError):
            ser.matrix_from_json([[1, 2], [3]])

    def test_matrix_writer_matches_per_entry_writer(self):
        def per_entry(m):
            m = np.asarray(m, dtype=complex)
            return [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in m]

        rng = np.random.default_rng(4)
        cases = [
            rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)),
            np.array([[-0.0, 1e-300], [3, -2.5e17]]),
            np.eye(2, dtype=int),
            chn.gen_random_ucp(3, 2, seed=1).choi,
        ]
        for m in cases:
            assert json.dumps(ser.matrix_to_json(m)) == json.dumps(per_entry(m))
        # a channel's Choi is the base64 of each entry's little-endian re, im
        ch = chn.gen_random_ucp(2, 2, seed=3)
        raw = b"".join(struct.pack("<dd", z.real, z.imag) for z in ch.choi.ravel())
        assert ser.channel_to_dict(ch)["choi"] == {
            "dtype": "<c16", "shape": [4, 4], "b64": base64.b64encode(raw).decode()}

    def test_matrix_reader_refuses_malformed(self):
        for bad in ([[[1, 2]], [[3, 4], [5, 6]]], [[[1, "x"]]], [[[1, 2, 3]]],
                    [[[1]]], [[1, 2]], [[[float("nan"), 0.0]]], {"a": 1}, "text",
                    [[[None, 1.0]]], []):
            with pytest.raises(ser.ParseError):
                ser.matrix_from_json(bad)

    def test_b64_reader_refuses_malformed(self):
        good = ser.matrix_to_b64(np.eye(2))
        b64 = lambda *zs: base64.b64encode(np.array(zs, dtype="<c16").tobytes()).decode()
        bad_nodes = [
            ({"b64": b64(1, 0, 0, float("nan"))}, "non-finite entry"),
            ({"b64": b64(1, 0, float("inf"), 1)}, "non-finite entry"),
            ({"b64": b64(1, 0, complex(0, -float("inf")), 1)}, "non-finite entry"),
            ({"b64": b64(1, 0, 0)}, "48 bytes, expected 64"),
            ({"b64": b64(1, 0, 0, 1, 0)}, "80 bytes, expected 64"),
            ({"dtype": "<f8"}, "dtype '<f8'"),
            ({"dtype": ">c16"}, "dtype '>c16'"),
            ({"dtype": "complex128"}, "dtype 'complex128'"),
            ({"shape": [4]}, "shape [4]"),
            ({"shape": [2, 2, 1]}, "shape [2, 2, 1]"),
            ({"shape": [4, 0]}, "shape [4, 0]"),
            ({"shape": [-2, -2]}, "shape [-2, -2]"),
            ({"shape": [2.0, 2]}, "shape [2.0, 2]"),
            ({"shape": [True, 4]}, "shape [True, 4]"),
            ({"shape": "2x2"}, "shape '2x2'"),
            ({"b64": good["b64"][:-1]}, "invalid base64"),
            ({"b64": "@" + good["b64"][1:]}, "invalid base64"),
            ({"b64": "\u00e9" + good["b64"][1:]}, "invalid base64"),
            ({"b64": 12}, "invalid base64"),
        ]
        bad_nodes = [({**good, **edit}, msg) for edit, msg in bad_nodes]
        bad_nodes += [({k: v for k, v in good.items() if k != key}, "expected b64, dtype and shape")
                      for key in good]
        bad_nodes += [({**good, "scale": 1}, "expected b64, dtype and shape"),
                      ({"a": 1}, "expected b64, dtype and shape")]
        for node, msg in bad_nodes:
            with pytest.raises(ser.ParseError, match=re.escape(msg)) as exc:
                ser.matrix_from_json(node)
            assert "\n" not in str(exc.value)
            data = {"format": "aiq-channel/2", "dim_in": 1, "dim_out": 2, "choi": node}
            with pytest.raises(ser.ParseError, match=re.escape(msg)):
                ser.channel_from_dict(data)

    def test_malformed_b64_channel_file_is_one_clean_line(self, tmp_path, capsys):
        path = tmp_path / "ch.json"
        assert main(["gen", "--pinching", "2,1", "--seed", "0", "--out", str(path)]) == 0
        data = json.load(open(path))
        data["choi"]["dtype"] = "<c8"
        json.dump(data, open(path, "w"))
        capsys.readouterr()
        assert main(["factorize", str(path), "--json-out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: ParseError: malformed matrix: dtype '<c8', expected '<c16'"]

    def test_witness_roundtrip(self):
        from almostidem import cbnorm

        rng = np.random.default_rng(6)
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)]
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for witness in (
            cbnorm.Witness(mats[0]),
            cbnorm.Witness(mats[0], "point", mats[2], 1e-4),
        ):
            cert = cbnorm.NormCertificate(0.0, 1.0, 0.5, 3, 0.0, witness=witness)
            data = json.loads(json.dumps(ser.certificate_to_dict(cert)))
            assert list(data["witness"]["lower"]) == ["rho"]
            assert sorted(data["witness"]["upper"]) == (
                ["kind", "rho"] if witness.upper is not None else ["kind"])
            back = ser.certificate_witness_from_dict(data)
            assert back.upper_kind == witness.upper_kind
            assert back.target_rel_gap == witness.target_rel_gap
            assert np.array_equal(back.lower, witness.lower)
            assert (back.upper is None if witness.upper is None
                    else np.array_equal(back.upper, witness.upper))
            # the sigma that earlier reports record beside each rho is not read
            for point in (data["witness"]["lower"], data["witness"]["upper"]):
                point["sigma"] = ser.matrix_to_json(mats[3])
            old = ser.certificate_witness_from_dict(data)
            assert np.array_equal(old.lower, back.lower)
        with pytest.raises(ser.ParseError, match="certificate records no witness"):
            ser.certificate_witness_from_dict({"lower": 0.0})
        # the barrier-center kind of earlier reports is no longer a witness
        center = ser.witness_to_dict(cbnorm.Witness(mats[0]))
        center["upper"] = {"kind": "center", "rho": ser.matrix_to_json(mats[2]),
                           "sigma": ser.matrix_to_json(mats[3]),
                           "x": ser.matrix_to_json(x), "t": 123.5}
        with pytest.raises(ser.ParseError, match="unknown upper witness kind 'center'"):
            ser.certificate_witness_from_dict({"witness": center})
        rho = ser.matrix_to_json(mats[0])
        for bad in ({"lower": {}}, [], {"lower": {"rho": []},
                                        "upper": {"kind": "exact"}, "target_rel_gap": 1e-6},
                    {"lower": {"rho": rho}, "upper": {"kind": "point"}, "target_rel_gap": 1e-6}):
            with pytest.raises(ser.ParseError):
                ser.certificate_witness_from_dict({"witness": bad})

    def test_digest_stability(self):
        # sha256 of the canonical JSON of the choi node: one short string
        ch = chn.gen_random_ucp(2, 2, seed=3)
        node = ser.channel_to_dict(ch)["choi"]
        text = '{"b64":"%s","dtype":"<c16","shape":[4,4]}' % node["b64"]
        assert ser.digest(node) == hashlib.sha256(text.encode()).hexdigest()
        assert ser.digest(ser.channel_to_dict(ch)["choi"]) == ser.digest(node)

    def test_atomic_write(self, tmp_path):
        path = tmp_path / "x.json"
        ser.atomic_write_json(str(path), {"a": 1})
        assert json.load(open(path)) == {"a": 1}
        assert not list(tmp_path.glob("*.tmp"))

    def test_written_report_loads_back_and_is_reproducible(self, tmp_path):
        ch = chn.gen_random_ucp(2, 2, seed=3)
        obj = {"channel": ser.channel_to_dict(ch, {"note": "x"}), "b": [1.5, -0.0, 1e-300],
               "a": {"z": None, "y": True, "x": "text"}}
        first, second = tmp_path / "1.json", tmp_path / "2.json"
        ser.atomic_write_json(str(first), obj)
        ser.atomic_write_json(str(second), obj)
        assert json.load(open(first)) == obj
        assert first.read_bytes() == second.read_bytes()

    def test_report_bytes_equal_the_circular_checked_encoder(self, tmp_path):
        # the writer and the digest skip the cycle check: a report is a tree,
        # and its bytes are those json.dumps writes with the check
        report = pipeline.factorize_channel(chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-2, seed=1),
                                            seed=1)[0]
        path = tmp_path / "report.json"
        ser.atomic_write_json(str(path), report)
        assert path.read_text() == json.dumps(report, sort_keys=True) + "\n"
        assert ser.canonical_dumps(report) == json.dumps(report, sort_keys=True,
                                                         separators=(",", ":"))

    def test_report_written_by_the_checked_encoder_verifies(self):
        # written by atomic_write_json when it still checked for cycles: its
        # recorded input digest is the one digest() takes now
        path = os.path.join(os.path.dirname(__file__), "data", "perturbed_1_1_report.json")
        report = ser.load_json(path)
        assert report["input"]["channel"]["format"] == "aiq-channel/1"
        assert ser.digest(report["input"]["channel"]["choi"]) == report["input"]["digest"]
        assert pipeline.verify_report(report) == []
        assert main(["verify", path]) == 0

    def test_flipped_b64_character_fails_the_input_digest(self, tmp_path, capsys):
        ch_path, rep_path = tmp_path / "ch.json", tmp_path / "rep.json"
        main(["gen", "--pinching", "2,1", "--seed", "0", "--out", str(ch_path)])
        assert main(["factorize", str(ch_path), "--json-out", str(rep_path)]) == 0
        report = json.load(open(rep_path))
        node = report["input"]["channel"]["choi"]
        # the low mantissa byte of the first entry's real part
        node["b64"] = ("B" if node["b64"][1] != "B" else "C").join(
            [node["b64"][:1], node["b64"][2:]])
        json.dump(report, open(rep_path, "w"))
        capsys.readouterr()
        assert main(["verify", str(rep_path)]) == 1
        assert "FAIL: input digest mismatch" in capsys.readouterr().out.splitlines()

    def test_channel_lists_file_factorizes_as_the_b64_file(self, tmp_path):
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        main(["gen", "--idempotent", "(2,1)", "--dim", "4", "--seed", "2", "--out", str(new)])
        data = json.load(open(new))
        m = ser.matrix_from_json(data["choi"])
        json.dump({**data, "format": "aiq-channel/1", "choi": ser.matrix_to_json(m)},
                  open(old, "w"))
        reports = []
        for path in (new, old):
            out = tmp_path / ("rep-" + path.name)
            assert main(["factorize", str(path), "--seed", "1", "--json-out", str(out)]) == 0
            assert main(["verify", str(out)]) == 0
            reports.append(pipeline.strip_timings(json.load(open(out))))
        # the embedded input is rewritten as aiq-channel/2 from the same bits
        assert reports[0]["input"]["channel"]["format"] == "aiq-channel/2"
        assert reports[0] == reports[1]


class TestGenerators:
    def test_two_level_matches_module(self):
        ch = two_level_example(0.04)
        ch.require_ucp()
        assert len(ch.kraus) == 2

    def test_parse_pairs(self):
        assert _parse_pairs("(2,2),(1,3)") == ((2, 2), (1, 3))
        with pytest.raises(ValueError):
            _parse_pairs("junk")


# (command, flag, value) the command does not read: tolerances are fixed
_REFUSED = [("analyze", "--samples", "5")] + [
    (command, flag, value)
    for command in ("analyze", "idempotentize", "reconstruct", "factorize")
    for flag, value in (("--tol", "1e-6"), ("--rank-tol", "1e-3"))
] + [(command, "--extension-n", "3") for command in ("reconstruct", "factorize")]


# (generator kind, flag, value) that kind does not read
_GEN_UNREAD = [
    ("pinching", "--t", "0.5"), ("pinching", "--kraus-rank", "2"),
    ("pinching", "--eta", "0.1"), ("pinching", "--dim", "3"),
    ("perturb", "--kraus-rank", "7"), ("perturb", "--eta", "0.3"), ("perturb", "--dim", "9"),
    ("idempotent", "--t", "0.1"), ("idempotent", "--kraus-rank", "2"),
    ("idempotent", "--eta", "0.1"),
    ("example-twolevel", "--dim", "2"), ("example-twolevel", "--t", "0.1"),
    ("example-twolevel", "--kraus-rank", "2"),
    ("random-ucp", "--t", "0.1"), ("random-ucp", "--eta", "0.1"),
]


# gen arguments with a size that is not positive, and the flag the error names
_GEN_NON_POSITIVE = [
    (["--idempotent", "(2,0)"], "--idempotent"),
    (["--idempotent", "(0,2),(1,1)"], "--idempotent"),
    (["--idempotent", "(2,1)", "--dim", "-2"], "--dim"),
    (["--pinching", "0,2"], "--pinching"),
    (["--pinching", "3,,1"], "--pinching"),
    (["--pinching", "3,-1"], "--pinching"),
    (["--random-ucp", "--dim", "3", "--kraus-rank", "0"], "--kraus-rank"),
    (["--random-ucp", "--dim", "-2"], "--dim"),
    (["--random-ucp", "--dim", "0"], "--dim"),
]


class TestCliCommands:
    def test_gen_analyze_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "ch.json"
        assert main(["gen", "--pinching", "2,1", "--seed", "0", "--out", str(out)]) == 0
        rep_path = tmp_path / "analyze.json"
        assert main(["analyze", str(out), "--json-out", str(rep_path)]) == 0
        report = json.load(open(rep_path))
        assert report["flags"]["cp"] and report["flags"]["unital"]
        assert report["eta"]["upper"] <= 1e-9
        assert report["carrier_dim"] == 3

    def test_gen_perturb_zero_identical(self, tmp_path):
        base = tmp_path / "base.json"
        same = tmp_path / "same.json"
        main(["gen", "--pinching", "2,1", "--seed", "0", "--out", str(base)])
        main(["gen", "--perturb", str(base), "--t", "0", "--seed", "1",
              "--out", str(same)])
        a = json.load(open(base))["choi"]
        b = json.load(open(same))["choi"]
        assert a == b

    def test_reconstruct_and_factorize_reports(self, tmp_path):
        ch_path = tmp_path / "idem.json"
        main(["gen", "--idempotent", "(2,1),(1,2)", "--dim", "6", "--seed", "7",
              "--out", str(ch_path)])
        rep_path = tmp_path / "rec.json"
        assert main(["reconstruct", str(ch_path), "--json-out", str(rep_path),
                     "--samples", "20"]) == 0
        rec = json.load(open(rep_path))
        assert rec["block_dims"] == [2, 1]
        stages = {"idempotentize", "extract", "defects", "reconstruct", "total"}
        assert rec["timings"].keys() == stages
        fact_path = tmp_path / "fact.json"
        assert main(["factorize", str(ch_path), "--json-out", str(fact_path),
                     "--samples", "20"]) == 0
        fact = json.load(open(fact_path))
        times = fact["timings"]
        assert times.keys() == stages | {"raw_factor", "twirl", "upsilon", "certify"}
        assert sum(v for k, v in times.items() if k != "total") <= times["total"]
        assert fact["factorization"]["residual_factor"]["upper"] <= 1e-6
        assert fact["factorization"]["residual_retract"]["upper"] <= 1e-6
        assert all(fact["factorization"]["ucp_flags"].values())

    def test_verify_accepts_and_rejects(self, tmp_path):
        ch_path = tmp_path / "ch.json"
        main(["gen", "--idempotent", "(2,1)", "--dim", "4", "--seed", "2",
              "--out", str(ch_path)])
        rep_path = tmp_path / "fact.json"
        main(["factorize", str(ch_path), "--json-out", str(rep_path),
              "--samples", "15"])
        assert main(["verify", str(rep_path)]) == 0
        tampered = json.load(open(rep_path))
        tampered["factorization"]["delta_choi"][0][0][0] += 0.05
        bad_path = tmp_path / "bad.json"
        json.dump(tampered, open(bad_path, "w"))
        assert main(["verify", str(bad_path)]) == 1

    def test_determinism(self, tmp_path):
        ch_path = tmp_path / "ch.json"
        main(["gen", "--idempotent", "(2,1)", "--dim", "4", "--seed", "9",
              "--out", str(ch_path)])
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main(["factorize", str(ch_path), "--json-out", str(path),
                  "--samples", "15", "--seed", "3"])
            rep = json.load(open(path))
            reports.append(pipeline.strip_timings(rep))
        assert ser.canonical_dumps(reports[0]) == ser.canonical_dumps(reports[1])

    def test_idempotentize_command(self, tmp_path):
        ch_path = tmp_path / "two.json"
        main(["gen", "--example-twolevel", "--eta", "0.04", "--seed", "0",
              "--out", str(ch_path)])
        env_path = tmp_path / "env.json"
        assert main(["idempotentize", str(ch_path), "--json-out", str(env_path)]) == 0
        env = json.load(open(env_path))
        assert env["meta"]["residual"] <= 1e-9
        assert env["meta"]["cp_expected"] is False
        # envelope reproduces the closed form of the example
        envelope = ser.channel_from_dict(env)
        pm = sc.idempotentize(two_level_example(0.04))
        assert nl.operator_norm(envelope.superop - pm.superop) <= 1e-8

    @pytest.mark.parametrize("command,flag,value", _REFUSED,
                             ids=[f"{c}-{f.lstrip('-')}" for c, f, _ in _REFUSED])
    def test_options_a_command_does_not_read_are_refused(
            self, tmp_path, capsys, command, flag, value):
        ch_path = tmp_path / "ch.json"
        main(["gen", "--pinching", "2,1", "--seed", "0", "--out", str(ch_path)])
        with pytest.raises(SystemExit) as exc:
            main([command, str(ch_path), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,flag,value", _GEN_UNREAD,
                             ids=[f"{k}-{f.lstrip('-')}" for k, f, _ in _GEN_UNREAD])
    def test_gen_refuses_options_its_kind_does_not_read(
            self, tmp_path, capsys, kind, flag, value):
        base = tmp_path / "base.json"
        assert main(["gen", "--pinching", "2,1", "--seed", "0", "--out", str(base)]) == 0
        args = {
            "pinching": ["--pinching", "2,1"],
            "perturb": ["--perturb", str(base), "--t", "1e-2"],
            "idempotent": ["--idempotent", "(2,1)", "--dim", "4"],
            "example-twolevel": ["--example-twolevel", "--eta", "0.04"],
            "random-ucp": ["--random-ucp", "--dim", "2", "--kraus-rank", "2"],
        }[kind]
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main(["gen", *args, flag, value, "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"--{kind} does not read {flag}" in err[0]
        assert not out.exists()
        assert main(["gen", *args, "--seed", "1", "--out", str(out)]) == 0

    @pytest.mark.parametrize("args,flag", _GEN_NON_POSITIVE,
                             ids=[" ".join(a) for a, _ in _GEN_NON_POSITIVE])
    def test_gen_refuses_non_positive_sizes(self, tmp_path, capsys, args, flag):
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main(["gen", *args, "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ValueError: " + flag), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "factorize"])
    def test_negative_samples_are_refused(self, tmp_path, capsys, command):
        ch_path, out = tmp_path / "ch.json", tmp_path / "report.json"
        main(["gen", "--pinching", "2,1", "--seed", "0", "--out", str(ch_path)])
        capsys.readouterr()
        assert main([command, str(ch_path), "--samples", "-3", "--json-out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: ValueError: --samples must be non-negative, got -3"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "factorize"])
    def test_samples_help_names_the_amplified_draws(self, capsys, command):
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "amplified stage draws max(samples // 2, 40)" in " ".join(
            capsys.readouterr().out.split())

    def test_demo_exit_code_follows_its_replay_verification(self, monkeypatch, capsys):
        assert main(["demo"]) == 0
        assert "replay verification: ok" in capsys.readouterr().out
        monkeypatch.setattr(pipeline, "verify_report", lambda report: ["one failure"])
        assert main(["demo"]) == 1
        assert "replay verification: ['one failure']" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "(2,2),(1,x)", "(2,2)(1,3)", "(2,2),", "x(2,2)", "(2,2);(1,3)", "(2,2),(1,3),junk",
    ])
    def test_gen_refuses_a_partly_parsed_pair_list(self, tmp_path, capsys, text):
        # the whole text must be a pair list: no pair is kept from a bad one
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main(["gen", "--idempotent", text, "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: ValueError: --idempotent: cannot parse block pairs from {text!r}"]
        assert not out.exists()

    def test_gen_reads_a_spaced_pair_list(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["gen", "--idempotent", " ( 2 , 2 ) ,(1,3) ", "--seed", "1",
                     "--out", str(out)]) == 0
        assert json.load(open(out))["meta"]["pairs"] == [[2, 2], [1, 3]]

    @pytest.mark.parametrize("command", ["gen", "analyze", "reconstruct", "factorize", "demo"])
    def test_negative_seed_is_refused(self, tmp_path, capsys, command):
        ch_path, out = tmp_path / "ch.json", tmp_path / "out.json"
        main(["gen", "--pinching", "2,1", "--seed", "0", "--out", str(ch_path)])
        argv = {
            "gen": ["gen", "--pinching", "2,1", "--out", str(out)],
            "analyze": ["analyze", str(ch_path), "--json-out", str(out)],
            "reconstruct": ["reconstruct", str(ch_path), "--json-out", str(out)],
            "factorize": ["factorize", str(ch_path), "--json-out", str(out)],
            "demo": ["demo"],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: ValueError: --seed must be non-negative, got -1"]
        assert captured.out == "" and not out.exists()

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["analyze", str(missing)]) == 2

    def test_bad_spec_rejected(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["gen", "--idempotent", "junk", "--seed", "0",
                     "--out", str(out)]) == 2


class TestPipelineRoundTrip:
    def test_full_corpus_roundtrip(self, tmp_path):
        # gen -> analyze -> reconstruct -> factorize -> verify on a small corpus
        corpus = [
            ("pinching", ["gen", "--pinching", "2,1", "--seed", "0"]),
            ("idem", ["gen", "--idempotent", "(2,1),(1,1)", "--dim", "5",
                      "--seed", "1"]),
        ]
        for name, cmd in corpus:
            ch_path = tmp_path / f"{name}.json"
            assert main(cmd + ["--out", str(ch_path)]) == 0
            for command, extra in (("analyze", []), ("reconstruct", ["--samples", "15"]),
                                   ("factorize", ["--samples", "15"])):
                rep_path = tmp_path / f"{name}-{command}.json"
                assert main([command, str(ch_path), "--json-out", str(rep_path)] + extra) == 0
                assert json.load(open(rep_path))["kind"] == command
                assert main(["verify", str(rep_path)]) == 0

        # 1e-7 off unital: analyze records it at the fixed tolerance, and
        # verify replays the flag at the same one
        ch = ser.channel_from_dict(json.load(open(tmp_path / "pinching.json")))
        scaled = tmp_path / "scaled.json"
        ser.atomic_write_json(str(scaled), ser.channel_to_dict(
            chn.Channel((1 - 1e-7) * ch.superop, ch.dim_in, ch.dim_out)))
        rep_path = tmp_path / "scaled-analyze.json"
        assert main(["analyze", str(scaled), "--json-out", str(rep_path)]) == 0
        assert json.load(open(rep_path))["flags"]["unital"] is False
        assert main(["verify", str(rep_path)]) == 0


class TestManyBlocks:
    def test_exact_3331_pinching_factorizes(self):
        # four blocks at d=10: the +-doubled product design had 2^4 * 81^3
        # terms here, the direct sum of the block designs has 3 * 9 + 1
        report, _ = pipeline.factorize_channel(chn.gen_pinching((3, 3, 3, 1)), seed=0)
        fact = report["factorization"]
        assert fact["block_dims"] == [3, 3, 3, 1]
        assert report["checkpoints"][-1]["twirl_terms"] == 28
        assert all(fact["ucp_flags"].values())
        assert fact["residual_factor"]["upper"] <= 1e-8
        assert fact["residual_retract"]["upper"] <= 1e-8
        assert max(fact["product_residuals"].values()) <= 1e-8
        assert pipeline.verify_report(report) == []


class TestThreadCount:
    def test_d8_certificates_agree_across_blas_thread_counts(self, tmp_path):
        # d=8 (4,3,1) at t=1e-2, seed 1, factorized in child processes at one
        # BLAS thread and at two: the same block structure, the same
        # near-isomorphism up to roundoff, and every certificate interval of
        # one run meets that of the other
        import check_report

        src = os.path.dirname(os.path.dirname(os.path.abspath(almostidem.__file__)))
        base, pert = str(tmp_path / "base.json"), str(tmp_path / "pert.json")
        assert main(["gen", "--pinching", "4,3,1", "--seed", "1", "--out", base]) == 0
        assert main(["gen", "--perturb", base, "--t", "1e-2", "--seed", "1", "--out", pert]) == 0
        reports = []
        for threads in ("1", "2"):
            out = f"report-{threads}.json"
            env = dict(os.environ, PYTHONPATH=src, ALMOSTIDEM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from almostidem.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "factorize", pert, "--seed", "1", "--json-out", out],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            reports.append(json.load(open(tmp_path / out)))
        one, two = reports
        assert one["block_dims"] == two["block_dims"] == [4, 3, 1]
        hom_one, hom_two = (ser.matrix_from_json(r["hom_coeffs"]) for r in reports)
        assert np.max(np.abs(hom_one - hom_two)) <= 1e-12
        pairs = list(zip(check_report.certificates(one), check_report.certificates(two)))
        assert len(pairs) == 5
        for (where, a), (where_b, b) in pairs:
            assert where == where_b
            assert a["lower"] <= b["upper"] and b["lower"] <= a["upper"], where


@pytest.fixture(scope="module")
def barrier_report(tmp_path_factory):
    """Factorize report of the (2,2), t=1e-3, seed 3 perturbed pinching: its
    twirl distance and retract residual close on the barrier."""
    work = tmp_path_factory.mktemp("witness")
    base, pert, rep = work / "base.json", work / "pert.json", work / "fact.json"
    main(["gen", "--pinching", "2,2", "--seed", "3", "--out", str(base)])
    main(["gen", "--perturb", str(base), "--t", "1e-3", "--seed", "3", "--out", str(pert)])
    assert main(["factorize", str(pert), "--seed", "3", "--json-out", str(rep)]) == 0
    return json.load(open(rep))


def _verified_certificates(report):
    """(name, recorded certificate, map, dim) for the three certificates verify checks."""
    from almostidem import reconstruction as rc

    ch = ser.channel_from_dict(report["input"]["channel"])
    fact = report["factorization"]
    spec = rc.BlockSpec(tuple(fact["block_dims"]))
    d_tot = spec.rep_dim
    delta = chn.Channel.from_choi(ser.matrix_from_json(fact["delta_choi"]), d_tot, ch.dim_in)
    ups = chn.Channel.from_choi(ser.matrix_from_json(fact["upsilon_choi"]), ch.dim_in, d_tot)
    m = ch.superop
    return [
        ("eta", report["checkpoints"][0]["eta"], m @ m - m, ch.dim_in),
        ("residual_factor", fact["residual_factor"],
         delta.superop @ ups.superop - m, ch.dim_in),
        ("residual_retract", fact["residual_retract"],
         ups.superop @ delta.superop - chn.pinch_superop(spec.block_dims), d_tot),
    ]


def _verify(tmp_path, report, name="r.json"):
    path = tmp_path / name
    json.dump(report, open(path, "w"))
    return main(["verify", str(path)])


class TestWitnessVerify:
    def test_report_records_paths_and_witnesses(self, barrier_report):
        from almostidem import cbnorm

        paths = {}
        for name, rec, mp, dim in _verified_certificates(barrier_report):
            paths[name] = rec["path"]
            witness = ser.certificate_witness_from_dict(rec)
            lower, upper = cbnorm.check_cb_witness(mp, dim, dim, witness)
            assert abs(lower - rec["lower"]) <= 1e-9 * max(1.0, rec["lower"])
            assert abs(upper - rec["upper"]) <= 1e-9 * max(1.0, rec["upper"])
        assert paths["residual_retract"] == "barrier"
        twirl = barrier_report["checkpoints"][-1]["distance_to_raw_cb"]
        assert twirl["path"] == "barrier" and twirl["iterations"] > 0

    def test_verify_makes_no_solve(self, barrier_report, tmp_path, monkeypatch, capsys):
        from almostidem import cbnorm

        def no_solve(*args, **kwargs):
            raise AssertionError("verify solved a norm")

        monkeypatch.setattr(cbnorm, "cb_norm", no_solve)
        assert _verify(tmp_path, barrier_report) == 0
        assert capsys.readouterr().err == ""

    def test_tampered_witnesses_and_bounds_are_rejected(self, barrier_report, tmp_path):
        eta = ("checkpoints", 0, "eta")
        retract = ("factorization", "residual_retract")

        def tampered(path, edit):
            rep = copy.deepcopy(barrier_report)
            node = rep
            for key in path:
                node = node[key]
            edit(node)
            return rep

        def other_density(cert):
            rho = np.zeros((4, 4))
            rho[3, 3] = 1.0
            cert["witness"]["lower"]["rho"] = ser.matrix_to_json(rho)

        def scaled_rho(cert):
            # twice rho would raise the primal value by sqrt(2) without the
            # projection onto density matrices; claim that inflated interval
            rho = ser.matrix_from_json(cert["witness"]["lower"]["rho"])
            cert["witness"]["lower"]["rho"] = ser.matrix_to_json(2 * rho)
            cert["lower"] *= np.sqrt(2)
            cert["upper"] = max(cert["upper"], cert["lower"])

        def lowered_upper(cert):
            cert["lower"] *= 0.5
            cert["upper"] = cert["lower"]

        def loose_upper(cert):
            # a valid but loose upper witness, inside a recorded interval
            # widened to match: only the gap target catches it
            cert["witness"]["upper"] = {"kind": "cheap"}
            cert["upper"] *= 10

        def delta_entry(fact):
            fact["delta_choi"][0][0][0] += 0.05

        for path, edit in ((eta, other_density), (retract, other_density),
                           (eta, scaled_rho), (retract, lowered_upper),
                           (retract, loose_upper),
                           (("factorization",), delta_entry)):
            assert _verify(tmp_path, tampered(path, edit)) == 1, edit.__name__

    def test_tampered_flags_are_rejected(self, barrier_report, tmp_path, capsys):
        # each recorded flag is checked both ways against its test: a flag
        # flipped from true to false fails as one flipped from false to true
        ch = ser.channel_from_dict(barrier_report["input"]["channel"])
        analyze_report = pipeline.analyze_channel(ch, seed=3)
        assert _verify(tmp_path, analyze_report) == 0

        def flipped(report, *path):
            rep = copy.deepcopy(report)
            node = rep
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = not node[path[-1]]
            return rep

        block_dims = copy.deepcopy(barrier_report)
        block_dims["block_dims"] = [9]
        for name, rep in (
            ("trace_preserving", flipped(analyze_report, "flags", "trace_preserving")),
            ("eta_domain_ok", flipped(analyze_report, "eta_domain_ok")),
            ("block_dims", block_dims),
            ("delta_cp", flipped(barrier_report, "factorization", "ucp_flags", "delta_cp")),
            ("upsilon_unital",
             flipped(barrier_report, "factorization", "ucp_flags", "upsilon_unital")),
        ):
            capsys.readouterr()
            assert _verify(tmp_path, rep) == 1, name
            assert capsys.readouterr().out.count("FAIL: ") == 1, name

    def test_tampered_structure_is_rejected(self, barrier_report, tmp_path, capsys):
        # the block structure must agree wherever a report records it, and
        # hom_coeffs must have its shape; only list lengths are read
        work = tmp_path / "rec"
        work.mkdir()
        base, pert, path = work / "base.json", work / "pert.json", work / "rec.json"
        main(["gen", "--pinching", "3,1", "--seed", "1", "--out", str(base)])
        main(["gen", "--perturb", str(base), "--t", "1e-2", "--seed", "1", "--out", str(pert)])
        assert main(["reconstruct", str(pert), "--seed", "1", "--json-out", str(path)]) == 0
        rec_report = json.load(open(path))
        assert _verify(tmp_path, rec_report) == 0

        def edited(report, edit):
            rep = copy.deepcopy(report)
            edit(rep)
            return rep

        def stage(rep, name):
            return next(cp for cp in rep["checkpoints"] if cp["stage"] == name)

        def top_dims(rep):
            rep["block_dims"] = [9]

        def both_dims(rep):
            rep["block_dims"] = stage(rep, "reconstruction")["block_dims"] = [9]

        def checkpoint_dims(rep):
            stage(rep, "reconstruction")["block_dims"] = [9]

        def short_row(rep):
            rep["hom_coeffs"][0].pop()

        for name, rep in (
            ("top-level block_dims", edited(rec_report, top_dims)),
            ("both block_dims", edited(rec_report, both_dims)),
            ("hom_coeffs row", edited(rec_report, short_row)),
            ("factorize checkpoint block_dims", edited(barrier_report, checkpoint_dims)),
        ):
            capsys.readouterr()
            assert _verify(tmp_path, rep) == 1, name
            assert capsys.readouterr().out.count("FAIL: ") == 1, name

    @pytest.mark.parametrize("name", ["eta", "residual_factor", "residual_retract"])
    def test_inverted_interval_is_rejected(self, barrier_report, tmp_path, capsys, name):
        # upper recorded 1e-7 below lower: the witness interval still lies
        # inside the recorded one within VERIFY_SLACK, so only the order of
        # the recorded bounds catches it
        rep = copy.deepcopy(barrier_report)
        cert = (rep["checkpoints"][0]["eta"] if name == "eta"
                else rep["factorization"][name])
        assert cert["upper"] - cert["lower"] + 1e-7 < pipeline.VERIFY_SLACK
        cert["upper"] = cert["lower"] - 1e-7
        capsys.readouterr()
        assert _verify(tmp_path, rep) == 1
        out = capsys.readouterr().out
        assert f"recorded {name} interval" in out and "is inverted" in out

    def test_malformed_witness_is_one_clean_line(self, barrier_report, tmp_path, capsys):
        rho = barrier_report["checkpoints"][0]["eta"]["witness"]["lower"]["rho"]
        center = {"kind": "center", "rho": rho, "sigma": rho,
                  "x": ser.matrix_to_json(np.eye(4)), "t": 1.0}
        for key, bad in (("rho", np.eye(3).tolist()), ("rho", ser.matrix_to_json(np.eye(3))),
                         ("upper", center)):
            rep = copy.deepcopy(barrier_report)
            witness = rep["checkpoints"][0]["eta"]["witness"]
            (witness if key == "upper" else witness["lower"])[key] = bad
            capsys.readouterr()
            assert _verify(tmp_path, rep) == 1
            out = capsys.readouterr()
            lines = out.out.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("FAIL: eta witness")
            assert "Traceback" not in out.err

    def test_singular_upper_witness_is_one_clean_line(self, barrier_report, tmp_path, capsys):
        # a point witness whose rho is not positive definite generates no
        # dual point: verify refuses it in one line, without a traceback
        rep = copy.deepcopy(barrier_report)
        upper = rep["factorization"]["residual_retract"]["witness"]["upper"]
        assert upper["kind"] == "point"
        dim = len(upper["rho"])
        upper["rho"] = ser.matrix_to_json(np.diag([1.0] + [0.0] * (dim - 1)))
        capsys.readouterr()
        assert _verify(tmp_path, rep) == 1
        out = capsys.readouterr()
        lines = out.out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("FAIL: residual_retract witness")
        assert "not positive definite" in lines[0]
        assert "Traceback" not in out.err

    def test_report_in_the_earlier_witness_format_verifies(
            self, barrier_report, tmp_path, capsys):
        # earlier reports record a sigma equal to rho beside each witness rho
        def with_sigma(node):
            if isinstance(node, dict):
                out = {k: with_sigma(v) for k, v in node.items()}
                if "rho" in out:
                    out["sigma"] = out["rho"]
                return out
            if isinstance(node, list):
                return [with_sigma(v) for v in node]
            return node

        old = with_sigma(barrier_report)
        points = [rec["witness"][side] for _, rec, _, _ in _verified_certificates(old)
                  for side in ("lower", "upper")]
        assert sum("sigma" in p for p in points) >= 4
        capsys.readouterr()
        assert _verify(tmp_path, old) == 0
        assert capsys.readouterr().err == ""

    def test_report_without_witnesses_is_refused(
            self, barrier_report, tmp_path, monkeypatch, capsys):
        from almostidem import cbnorm

        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items() if k != "witness"}
            if isinstance(node, list):
                return [strip(v) for v in node]
            return node

        def no_solve(*args, **kwargs):
            raise AssertionError("verify solved a norm")

        monkeypatch.setattr(cbnorm, "cb_norm", no_solve)
        capsys.readouterr()
        assert _verify(tmp_path, strip(barrier_report)) == 1
        out = capsys.readouterr()
        lines = out.out.strip().splitlines()
        assert len(lines) == 3 and all(line.startswith("FAIL: ") for line in lines)
        assert all("certificate records no witness" in line for line in lines)
        assert out.err == ""

    def test_report_recording_the_ascent_path_still_verifies(
            self, barrier_report, tmp_path, monkeypatch, capsys):
        # reports written while the solver still had an alternating ascent
        # record "path": "ascent"; verify checks the witnesses, never the path
        from almostidem import cbnorm

        def relabel(node):
            if isinstance(node, dict):
                out = {k: relabel(v) for k, v in node.items()}
                if "witness" in out and "path" in out:
                    out["path"] = "ascent"
                return out
            if isinstance(node, list):
                return [relabel(v) for v in node]
            return node

        def no_solve(*args, **kwargs):
            raise AssertionError("verify solved a norm")

        old = relabel(barrier_report)
        assert [rec["path"] for _, rec, _, _ in _verified_certificates(old)] == ["ascent"] * 3
        monkeypatch.setattr(cbnorm, "cb_norm", no_solve)
        capsys.readouterr()
        assert _verify(tmp_path, old) == 0
        assert capsys.readouterr().err == ""


NUMPY_ONLY = """
import sys
import almostidem.cli, almostidem.pipeline
from almostidem.cli import main
steps = [
    ["gen", "--pinching", "3,1", "--seed", "1", "--out", "base.json"],
    ["gen", "--perturb", "base.json", "--t", "1e-2", "--seed", "1", "--out", "pert.json"],
    ["factorize", "pert.json", "--seed", "1", "--json-out", "report.json"],
    ["verify", "report.json"],
]
print([main(argv) for argv in steps])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


class TestReportCheck:
    """``tests/check_report.py``, the end-to-end check on a written report."""

    def test_passes_a_closed_report_and_fails_stalled_or_bare(self, barrier_report, tmp_path):
        import check_report

        def run(rep, name):
            path = tmp_path / name
            json.dump(rep, open(path, "w"))
            return check_report.main([str(path)])

        assert len(check_report.certificates(barrier_report)) == 5
        assert run(barrier_report, "ok.json") == 0
        stalled = copy.deepcopy(barrier_report)
        stalled["factorization"]["residual_retract"]["stalled"] = True
        assert run(stalled, "stalled.json") == 1
        bare = copy.deepcopy(barrier_report)
        del bare["checkpoints"][0]["eta"]["witness"]
        assert run(bare, "bare.json") == 1
        assert run({"checkpoints": []}, "empty.json") == 1


class TestNumpyOnly:
    def test_pipeline_never_imports_scipy(self, tmp_path):
        # a fresh process: this one may have scipy loaded by the test oracle
        src = os.path.dirname(os.path.dirname(os.path.abspath(almostidem.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        codes, scipy_modules = proc.stdout.strip().splitlines()[-2:]
        assert codes == "[0, 0, 0, 0]"
        assert scipy_modules == "[]"
