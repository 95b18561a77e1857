import copy
import json

import numpy as np
import pytest

from almostidem import numlin as nl
from almostidem import channels as chn
from almostidem import serialize as ser
from almostidem import pipeline
from almostidem import starcalc as sc
from almostidem.cli import main, two_level_example, _parse_pairs


class TestSerialization:
    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = ser.matrix_from_json(ser.matrix_to_json(m))
        np.testing.assert_allclose(back, m)

    def test_channel_roundtrip(self):
        ch = chn.gen_random_ucp(3, 2, seed=1)
        data = ser.channel_to_dict(ch, {"note": "test"})
        assert data["format"] == "aiq-channel/1"
        back = ser.channel_from_dict(data)
        assert nl.operator_norm(back.superop - ch.superop) <= 1e-12

    def test_algebra_roundtrip(self):
        alg = sc.extract_algebra(sc.idempotentize(chn.gen_pinching((2, 1))))
        alg.defects = sc.measure_defects(alg, samples=10, seed=0)
        back = ser.algebra_from_dict(ser.algebra_to_dict(alg))
        assert back.dim == alg.dim
        np.testing.assert_allclose(back.star_tensor, alg.star_tensor, atol=1e-14)
        assert back.defects.method == alg.defects.method

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
        ch = chn.gen_random_ucp(2, 2, seed=3)
        data = ser.channel_to_dict(ch)
        assert json.dumps(data["choi"]) == json.dumps(per_entry(ch.choi))

    def test_matrix_reader_refuses_malformed(self):
        for bad in ([[[1, 2]], [[3, 4], [5, 6]]], [[[1, "x"]]], [[[1, 2, 3]]],
                    [[[1]]], [[1, 2]], [[[float("nan"), 0.0]]], {"a": 1}, "text",
                    [[[None, 1.0]]], []):
            with pytest.raises(ser.ParseError):
                ser.matrix_from_json(bad)

    def test_witness_roundtrip(self):
        from almostidem import cbnorm

        rng = np.random.default_rng(6)
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)]
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for witness in (
            cbnorm.Witness((mats[0], mats[1])),
            cbnorm.Witness((mats[0], mats[1]), "point", (mats[2], mats[3]), 1e-4),
        ):
            cert = cbnorm.NormCertificate(0.0, 1.0, 0.5, 3, 0.0, witness=witness)
            data = json.loads(json.dumps(ser.certificate_to_dict(cert)))
            back = ser.certificate_witness_from_dict(data)
            assert back.upper_kind == witness.upper_kind
            assert back.target_rel_gap == witness.target_rel_gap
            for a, b in zip([*back.lower, *back.upper], [*witness.lower, *witness.upper]):
                assert np.array_equal(a, b)
        with pytest.raises(ser.ParseError, match="certificate records no witness"):
            ser.certificate_witness_from_dict({"lower": 0.0})
        # the barrier-center kind of earlier reports is no longer a witness
        center = ser.witness_to_dict(cbnorm.Witness((mats[0], mats[1])))
        center["upper"] = {"kind": "center", "rho": ser.matrix_to_json(mats[2]),
                           "sigma": ser.matrix_to_json(mats[3]),
                           "x": ser.matrix_to_json(x), "t": 123.5}
        with pytest.raises(ser.ParseError, match="unknown upper witness kind 'center'"):
            ser.certificate_witness_from_dict({"witness": center})
        for bad in ({"lower": {}}, [], {"lower": {"rho": [], "sigma": []},
                                        "upper": {"kind": "exact"}, "target_rel_gap": 1e-6}):
            with pytest.raises(ser.ParseError):
                ser.certificate_witness_from_dict({"witness": bad})

    def test_digest_stability(self):
        ch = chn.gen_random_ucp(2, 2, seed=3)
        d1 = ser.digest(ser.channel_to_dict(ch)["choi"])
        d2 = ser.digest(ser.channel_to_dict(ch)["choi"])
        assert d1 == d2

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


class TestGenerators:
    def test_two_level_matches_module(self):
        ch = two_level_example(0.04)
        ch.require_ucp()
        assert len(ch.kraus) == 2

    def test_parse_pairs(self):
        assert _parse_pairs("(2,2),(1,3)") == ((2, 2), (1, 3))
        with pytest.raises(ValueError):
            _parse_pairs("junk")


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
        fact_path = tmp_path / "fact.json"
        assert main(["factorize", str(ch_path), "--json-out", str(fact_path),
                     "--samples", "20"]) == 0
        fact = json.load(open(fact_path))
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

    def test_options_a_command_does_not_read_are_refused(self, tmp_path, capsys):
        ch_path = tmp_path / "ch.json"
        main(["gen", "--pinching", "2,1", "--seed", "0", "--out", str(ch_path)])
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(ch_path), "--samples", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples 5" in capsys.readouterr().err

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
            rep_path = tmp_path / f"{name}-fact.json"
            assert main(["factorize", str(ch_path), "--json-out", str(rep_path),
                         "--samples", "15"]) == 0
            assert main(["verify", str(rep_path)]) == 0


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
