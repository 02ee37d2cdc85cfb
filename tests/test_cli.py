"""End-to-end tests of the command-line front end (via main(argv))."""

import json
import math

import pytest

from okakit.cli import main


def run_cli(tmp_path, command, payload, extra=()):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(payload))
    code = main([command, "--input", str(inp), "--output", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def series_json(dim, terms, order="exact"):
    return {
        "dim": dim,
        "backend": "exact",
        "center": [["0", "0"]] * dim,
        "terms": [{"exp": list(e), "coeff": [str(c), "0"]} for e, c in terms.items()],
        "order": order,
    }


class TestDivide:
    def test_member_example(self, tmp_path):
        # f = z1 z3 + z2^2, q = 2: in the ideal with exact recombination
        payload = {"series": series_json(3, {(1, 0, 1): 1, (0, 2, 0): 1}), "q": 2}
        code, report = run_cli(tmp_path, "divide", payload)
        assert code == 0
        assert report["pass"] is True
        assert report["result"]["member"] is True
        assert report["result"]["recombination_exact"] is True
        assert len(report["result"]["cofactors"]) == 2

    def test_non_member_reported(self, tmp_path):
        payload = {"series": series_json(2, {(0, 3): 1}), "q": 1}
        code, report = run_cli(tmp_path, "divide", payload)
        assert code == 0  # recombination still exact; membership is just data
        assert report["result"]["member"] is False

    def test_report_envelope(self, tmp_path):
        payload = {"series": series_json(1, {(1,): 2}), "q": 1}
        code, report = run_cli(tmp_path, "divide", payload, extra=["--seed", "7"])
        assert report["command"] == "divide"
        assert report["seed"] == 7
        assert "elapsed_s" in report
        assert report["input"] == payload


class TestSyzygy:
    def test_trivial_generators(self, tmp_path):
        code, report = run_cli(tmp_path, "syzygy", {"mode": "trivial", "p": 3})
        assert code == 0
        gens = report["result"]["generators"]
        assert [(g["i"], g["j"]) for g in gens] == [(1, 2), (1, 3), (2, 3)]

    def test_decompose_minimal(self, tmp_path):
        # (-z2, z1) decomposes to the single coefficient 1 on T_12
        payload = {
            "mode": "decompose",
            "components": [
                series_json(2, {(0, 1): -1}),
                series_json(2, {(1, 0): 1}),
            ],
        }
        code, report = run_cli(tmp_path, "syzygy", payload)
        assert code == 0
        coeffs = report["result"]["coefficients"]
        assert len(coeffs) == 1
        assert (coeffs[0]["i"], coeffs[0]["j"]) == (1, 2)
        assert report["result"]["verification"]["recombined_equals_input"] is True

    def test_non_relation_exits_1(self, tmp_path):
        payload = {"mode": "decompose", "components": [series_json(2, {(0, 0): 1}),
                                                       series_json(2, {})]}
        code, report = run_cli(tmp_path, "syzygy", payload)
        assert code == 1

    def test_general_basis(self, tmp_path):
        payload = {
            "mode": "general", "dim": 2, "q": 2, "N": 3,
            "coefficients": [
                {"i": 3, "j": 1, "series": series_json(2, {(0, 0): 1})},
                {"i": 3, "j": 2, "series": series_json(2, {(0, 0): 1})},
            ],
        }
        code, report = run_cli(tmp_path, "syzygy", payload)
        assert code == 0
        assert len(report["result"]["tau"]) == 1
        assert len(report["result"]["phi"]) == 1


class TestCousinSplit:
    def test_polynomial_density(self, tmp_path):
        payload = {
            "dim": 1,
            "function": {"op": "add", "args": [
                {"op": "pow", "base": {"op": "var", "index": 1}, "exp": 2},
                {"op": "const", "re": 0.5},
            ]},
            "geometry": {"s": 0.0, "delta": 0.25, "theta": 0.5,
                         "re_lo": -1.5, "re_hi": 1.5},
        }
        code, report = run_cli(tmp_path, "cousin-split", payload)
        assert code == 0
        assert report["result"]["max_overlap_residual"] <= 1e-8

    def test_csv_dump(self, tmp_path):
        csv_path = tmp_path / "grid.csv"
        payload = {
            "dim": 1,
            "function": {"op": "const", "re": 1.0},
            "geometry": {"s": 0.0, "delta": 0.2, "theta": 0.4,
                         "re_lo": -1.0, "re_hi": 1.0},
            "csv": str(csv_path),
        }
        code, _ = run_cli(tmp_path, "cousin-split", payload)
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("re,im,phi1_re")
        assert len(lines) > 1

    def test_bad_geometry_exits_2(self, tmp_path):
        payload = {
            "dim": 1,
            "function": {"op": "const", "re": 1.0},
            "geometry": {"s": 2.0, "delta": 0.2, "theta": 0.4,
                         "re_lo": -1.0, "re_hi": 1.0},
        }
        code, _ = run_cli(tmp_path, "cousin-split", payload)
        assert code == 2

    def test_unknown_quadrature_key_exits_2(self, tmp_path):
        payload = {
            "dim": 1,
            "function": {"op": "const", "re": 1.0},
            "geometry": {"s": 0.0, "delta": 0.2, "theta": 0.4,
                         "re_lo": -1.0, "re_hi": 1.0},
            "quadrature": {"panels": 8, "tol": 1e-12},
        }
        code, _ = run_cli(tmp_path, "cousin-split", payload)
        assert code == 2


class TestCousin1:
    def payload(self):
        return {
            "cuboid": {"re": [[-3.0, 3.0]], "im": [[-0.6, 0.6]]},
            "breakpoints": [-1.0, 1.0],
            "delta": 0.3,
            "slabs": [
                {"poles": [{"re": -2.0, "im": 0.1, "coeff_re": 1.5, "coeff_im": -0.5}]},
                {"poles": [{"re": 0.2, "coeff_re": 0.7, "coeff_im": 0.2}]},
                {"poles": [{"re": 2.1, "im": -0.3, "coeff_re": 0.9}]},
            ],
        }

    def test_end_to_end(self, tmp_path):
        code, report = run_cli(tmp_path, "cousin1", self.payload())
        assert code == 0
        chains = report["result"]["chains"]
        assert len(chains) == 1 and chains[0]["pass"]

    def test_pole_on_seam_exits_1(self, tmp_path):
        payload = self.payload()
        payload["slabs"][1]["poles"][0]["re"] = 0.95  # inside the margin
        code, _ = run_cli(tmp_path, "cousin1", payload)
        assert code == 1

    def test_slab_count_checked(self, tmp_path):
        payload = self.payload()
        payload["slabs"] = payload["slabs"][:2]
        code, _ = run_cli(tmp_path, "cousin1", payload)
        assert code == 2

    @pytest.mark.parametrize("cuboid", [
        {"re": [[-3.0, 3.0]]},
        {"im": [[-0.6, 0.6]]},
        {"re": [[-3.0, 3.0, 1.0]], "im": [[-0.6, 0.6]]},
        {"re": [-3.0], "im": [[-0.6, 0.6]]},
    ], ids=["no-im", "no-re", "triple", "not-a-pair"])
    def test_malformed_cuboid_exits_2(self, tmp_path, capsys, cuboid):
        payload = self.payload()
        payload["cuboid"] = cuboid
        code, _ = run_cli(tmp_path, "cousin1", payload)
        assert code == 2
        assert "okakit: input error" in capsys.readouterr().err

    def test_csv_through_pole_writes_only_finite_rows(self, tmp_path):
        csv_path = tmp_path / "sol.csv"
        payload = self.payload()
        # the pole sits on a node of the 21 x 5 dump grid
        payload["slabs"][1] = {"poles": [{"re": 0.0, "im": 0.0, "coeff_re": 0.7}]}
        payload["csv"] = str(csv_path)
        code, _ = run_cli(tmp_path, "cousin1", payload)
        assert code == 0
        rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
        assert len(rows) == 21 * 5 - 1
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        assert not any(float(r) == 0.0 and float(i) == 0.0 for _, r, i, _, _ in rows)


    def test_skipped_residue_checks_listed(self, tmp_path):
        # n = 2 pole loci depend on z': their residue checks are skipped, not passed
        payload = {
            "cuboid": {"re": [[-0.5, 0.5], [-2.0, 2.0]], "im": [[-0.5, 0.5], [-0.5, 0.5]]},
            "breakpoints": [0.0],
            "delta": 0.2,
            "slabs": [{"poles": [{"re": -1.0, "im": 0.1, "coeff_re": 1.5}]},
                      {"poles": [{"re": 1.0, "coeff_re": 0.7}, {"re": 1.2, "order": 2, "coeff_re": 0.4}]}],
        }
        code, report = run_cli(tmp_path, "cousin1", payload)
        assert code == 0
        (chain,) = report["result"]["chains"]
        assert chain["principal_part_errors"] == []
        assert [(c["slab"], c["order"]) for c in chain["skipped_checks"]] == [(0, 1), (1, 1), (1, 2)]
        assert all(c["reason"] for c in chain["skipped_checks"])
        code, report = run_cli(tmp_path, "cousin1", self.payload())
        assert code == 0 and report["result"]["chains"][0]["skipped_checks"] == []


class TestJokuiko:
    def test_end_to_end(self, tmp_path):
        payload = {
            "cuboid": {"re": [[-0.5, 0.5], [-2.0, 2.0]],
                       "im": [[-0.5, 0.5], [-0.5, 0.5]]},
            "breakpoints": [0.0],
            "q": 1,
            "delta": 0.2,
            "target": {"op": "add", "args": [
                {"op": "pow", "base": {"op": "var", "index": 2}, "exp": 2},
                {"op": "const", "re": -1.0},
            ]},
        }
        code, report = run_cli(tmp_path, "jokuiko", payload)
        assert code == 0
        assert all(c["pass"] for c in report["result"]["chains"])

    def test_asymmetric_im_exits_2(self, tmp_path, capsys):
        payload = {
            "cuboid": {"re": [[-0.5, 0.5], [-2.0, 2.0]],
                       "im": [[-0.5, 0.5], [-0.3, 0.5]]},
            "breakpoints": [0.0],
            "q": 1,
            "target": {"op": "var", "index": 2},
        }
        code, _ = run_cli(tmp_path, "jokuiko", payload)
        assert code == 2
        assert "okakit: input error" in capsys.readouterr().err

    def test_inv_target_rejected(self, tmp_path):
        payload = {
            "cuboid": {"re": [[-0.5, 0.5], [-2.0, 2.0]],
                       "im": [[-0.5, 0.5], [-0.5, 0.5]]},
            "q": 1,
            "target": {"op": "inv", "arg": {"op": "var", "index": 2}},
        }
        code, _ = run_cli(tmp_path, "jokuiko", payload)
        assert code == 2


class TestErrorsAndSelftest:
    def test_malformed_json_exits_2(self, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text("{not json")
        code = main(["divide", "--input", str(inp), "--output", str(tmp_path / "o.json")])
        assert code == 2

    def test_missing_field_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "divide", {"q": 1})
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["divide", "--input", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path / "o.json")])
        assert code == 2

    def test_backend_flag_rejected(self, tmp_path):
        payload = {"series": series_json(1, {(1,): 2}), "q": 1}
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, "divide", payload, extra=["--backend", "floating"])
        assert exc.value.code == 2

    def test_selftest_passes(self, tmp_path):
        out = tmp_path / "self.json"
        code = main(["selftest", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert all(report["result"]["checks"].values())
