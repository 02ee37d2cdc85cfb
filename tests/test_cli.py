"""End-to-end tests of the command-line front end (via main(argv))."""

import contextlib
import copy
import io
import json
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okakit import cli, cousin, division, exprtree, series
from okakit.division import ideal_cofactors
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

    def test_divides_once(self, tmp_path, monkeypatch):
        # membership is read off the remainder: is_member used to run the division a second time
        calls = []
        for module in (cli, division):
            monkeypatch.setattr(module, "ideal_cofactors", lambda *a: calls.append(a) or ideal_cofactors(*a))
        for terms, member in (({(1, 0, 1): 1, (0, 2, 0): 1}, True), ({(0, 0, 3): 1}, False)):
            calls.clear()
            code, report = run_cli(tmp_path, "divide", {"series": series_json(3, terms), "q": 2})
            assert (code, report["result"]["member"], len(calls)) == (0, member, 1)

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
        # n = 2 poles are re-extracted at the slab's midpoint z': no residue check is skipped
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
        errors = chain["principal_part_errors"]
        assert [(e["slab"], e["order"]) for e in errors] == [(0, 1), (1, 1), (1, 2)]
        assert all(e["error"] <= report["tolerance"] for e in errors)
        assert chain["skipped_checks"] == [] and chain["pass"]
        code, report = run_cli(tmp_path, "cousin1", self.payload())
        assert code == 0 and report["result"]["chains"][0]["skipped_checks"] == []


    def test_flat_cuboid_checks_every_seam(self, tmp_path):
        # with Im z_n in [0, 0] the seam check samples y = 0 alone; nothing is skipped
        payload = self.payload()
        payload["cuboid"]["im"] = [[0.0, 0.0]]
        for slab in payload["slabs"]:
            slab["poles"][0]["im"] = 0.0
        code, report = run_cli(tmp_path, "cousin1", payload)
        assert code == 0
        (chain,) = report["result"]["chains"]
        assert chain["patch_morera"] == [] and chain["skipped_checks"] == []
        assert len(chain["seam_jumps"]) == len(payload["breakpoints"])
        assert all(jump <= report["tolerance"] for jump in chain["seam_jumps"])
        assert [r["s"] for r in chain["seam_rounding"]] == payload["breakpoints"]
        assert len(chain["principal_part_errors"]) == 3 and chain["pass"]


    @pytest.mark.parametrize("payload", [
        {"cuboid": {"re": [[-3, 3]], "im": [[-0.6, 0.6]]}, "breakpoints": [-1.0, 1.0],
         "slabs": [{"poles": [{"re": -2.0, "im": 0.1, "coeff_re": 1.5}]},
                   {"poles": [{"re": 0.2, "coeff_re": 0.7, "coeff_im": 0.2}]},
                   {"poles": [{"re": 2.1, "im": -0.3, "coeff_re": 0.9}]}]},
        {"cuboid": {"re": [[-0.5, 0.5], [-2.0, 2.0]], "im": [[-0.5, 0.5], [-1.0, 1.0]]}, "breakpoints": [0.0],
         "slabs": [{"poles": [{"re": -1.0, "im": 0.1, "coeff_re": 1.5}]}, {"poles": [{"re": 1.0, "coeff_re": 0.7}]}]},
    ], ids=["n1", "n2"])
    def test_default_delta_seams_within_tolerance(self, tmp_path, payload):
        # without "delta" the margin is a twentieth of a slab: the seams split in closed form, and every seam
        # jump and a priori rounding bound is within the tolerance
        code, report = run_cli(tmp_path, "cousin1", payload)
        assert code == 0
        (chain,) = report["result"]["chains"]
        assert len(chain["seam_jumps"]) == len(payload["breakpoints"])
        assert all(jump <= report["tolerance"] for jump in chain["seam_jumps"])
        assert [r["s"] for r in chain["seam_rounding"]] == payload["breakpoints"]
        assert all(r["bound"] <= report["tolerance"] for r in chain["seam_rounding"])

    @pytest.mark.parametrize("change, seam", [
        ({"slabs": [{"poles": [{"re": -2.0, "im": 0.1, "coeff_re": 1e308}]}]}, 0),
        ({"tolerance": 1e-300}, 1),
    ], ids=["huge-coefficient", "tiny-tolerance"])
    def test_rounding_bound_above_tolerance_exits_1(self, change, seam):
        # a huge coefficient or a tiny tolerance puts a seam's a priori rounding bound above the tolerance, and
        # the report fails on it
        payload = {**VALID["cousin1"], **change}
        payload["slabs"] = change.get("slabs", []) + VALID["cousin1"]["slabs"][len(change.get("slabs", [])):]
        code, out, err = run_stdin("cousin1", payload)
        assert (code, err) == (1, "")
        report = json.loads(out)
        (chain,) = report["result"]["chains"]
        assert not report["pass"] and not chain["pass"]
        assert chain["seam_rounding"][seam]["bound"] > report["tolerance"]

    def test_middle_slab_delta_wide_glues(self):
        # the middle slab is delta wide: while the density at 0.15 held the right half of the seam at -0.15, whose
        # contour ends on the contour pushed left from 0.15, this was refused; each seam now splits its own datum
        payload = {"cuboid": {"re": [[-2, 2]], "im": [[-0.5, 0.5]]}, "breakpoints": [-0.15, 0.15], "delta": 0.3,
                   "slabs": [{"poles": [{"re": -1.2, "im": 0.2, "coeff_re": 1.5},
                                        {"re": -1.0, "im": -0.3, "coeff_re": 2, "coeff_im": -1, "order": 2}]},
                             {"poles": []},
                             {"poles": [{"re": 1.1, "im": 0.1, "coeff_re": -1, "coeff_im": 2},
                                        {"re": 1.3, "im": -0.2, "coeff_re": 0.7, "order": 2}]}]}
        code, out, err = run_stdin("cousin1", payload)
        assert (code, err) == (0, "")
        report = json.loads(out)
        (chain,) = report["result"]["chains"]
        assert chain["pass"] and len(chain["seam_jumps"]) == 2
        assert max(chain["seam_jumps"]) <= report["tolerance"]

    def test_two_terms_of_one_order_at_one_pole_pass(self):
        # the residue ring sees 1.0 + 0.5: each term was compared alone, with errors 0.5 and 1.0
        payload = {"cuboid": {"re": [[-3, 3]], "im": [[-0.6, 0.6]]}, "breakpoints": [-1.0, 1.0], "delta": 0.3,
                   "slabs": [{"poles": [{"re": -2.0, "coeff_re": 1.0}, {"re": -2.0, "coeff_re": 0.5}]},
                             {"poles": [{"re": 0.2}]}, {"poles": [{"re": 2.1}]}]}
        code, out, err = run_stdin("cousin1", payload)
        assert (code, err) == (0, "")
        (chain,) = json.loads(out)["result"]["chains"]
        errors = chain["principal_part_errors"]
        assert len(errors) == 4 and max(e["error"] for e in errors) <= 1e-12 and chain["pass"]


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

    def test_flat_cuboid_checks_every_seam(self, tmp_path):
        # extension reports check the seams, which a flat cuboid has as well; patch Morera is a cousin1 check
        payload = {**VALID["jokuiko"], "cuboid": {"re": [[-0.5, 0.5], [-2, 2]], "im": [[0, 0], [0, 0]]}}
        code, report = run_cli(tmp_path, "jokuiko", payload)
        assert code == 0
        (chain,) = report["result"]["chains"]
        assert chain["patch_morera"] == []
        assert chain["skipped_checks"] == []
        assert len(chain["seam_jumps"]) == len(payload["breakpoints"])
        assert all(jump <= report["tolerance"] for jump in chain["seam_jumps"])
        assert chain["subspace_slices"] == [0.0] and chain["pass"]

    def test_codim_equal_to_dimension_checks_the_origin(self, tmp_path):
        def plus_two(tree):
            return {"op": "add", "args": [{"op": "const", "re": 2.0}, tree]}

        z1, z2 = ({"op": "var", "index": k} for k in (1, 2))
        payload = {**VALID["jokuiko"], "q": 2, "target": {"op": "const", "re": 2.0},
                   "locals": [plus_two({"op": "mul", "args": [z1, z2]}),
                              plus_two({"op": "pow", "base": z2, "exp": 2})]}
        code, report = run_cli(tmp_path, "jokuiko", payload)
        assert code == 0
        (chain,) = report["result"]["chains"]
        assert chain["subspace_slices"] == [0.0] and chain["subspace_sup_error"] == 0.0
        assert chain["skipped_checks"] == [] and chain["pass"]

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


# -- malformed requests ----------------------------------------------------

def run_stdin(command, payload, extra=()):
    """main([command, *extra]) on the JSON payload as stdin: (exit code, stdout, stderr)."""
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(payload))
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, *extra])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


# the README requests, and one of each other kind
VALID = {
    "divide": {"series": {"dim": 3, "terms": [{"exp": [1, 0, 1], "coeff": ["1", "0"]},
                                              {"exp": [0, 2, 0], "coeff": ["1", "0"]}]}, "q": 2},
    "syzygy": {"mode": "decompose",
               "components": [{"dim": 2, "terms": [{"exp": [0, 1], "coeff": ["-1", "0"]}]},
                              {"dim": 2, "terms": [{"exp": [1, 0], "coeff": ["1", "0"]}]}]},
    "cousin1": {"cuboid": {"re": [[-3, 3]], "im": [[-0.6, 0.6]]}, "breakpoints": [-1.0, 1.0], "delta": 0.3,
                "slabs": [{"poles": [{"re": -2.0, "im": 0.1, "coeff_re": 1.5}]},
                          {"poles": [{"re": 0.2, "coeff_re": 0.7, "coeff_im": 0.2}]},
                          {"poles": [{"re": 2.1, "im": -0.3, "coeff_re": 0.9}]}]},
    "jokuiko": {"cuboid": {"re": [[-0.5, 0.5], [-2, 2]], "im": [[-0.5, 0.5], [-0.5, 0.5]]},
                "breakpoints": [0.0], "q": 1, "delta": 0.2,
                "target": {"op": "add", "args": [{"op": "pow", "base": {"op": "var", "index": 2}, "exp": 2},
                                                 {"op": "const", "re": -1.0}]}},
    "cousin-split": {"dim": 1, "function": {"op": "mul", "args": [{"op": "var", "index": 1},
                                                                  {"op": "const", "re": 0.5, "im": 1.0}]},
                     "geometry": {"s": 0.0, "delta": 0.2, "theta": 0.4, "re_lo": -1.0, "re_hi": 1.0}},
    "syzygy-general": {"mode": "general", "dim": 2, "q": 2, "N": 3,
                       "coefficients": [{"i": 3, "j": 1, "series": series_json(2, {(0, 0): 1})}],
                       "vector": [series_json(2, {(0, 1): -1}), series_json(2, {(1, 0): 1}), series_json(2, {})]},
    "syzygy-trivial": {"mode": "trivial", "p": 3},
}


def command_of(kind):
    return kind.split("-")[0] if kind.startswith("syzygy") else kind


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_requests_pass(kind):
    code, out, err = run_stdin(command_of(kind), VALID[kind])
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True


def fields(value, path=()):
    """Every path into a JSON value (the empty path is the value itself)."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from fields(child, path + (key,))


def at(value, path):
    for key in path:
        value = value[key]
    return value


def replaced(value, path, new):
    if not path:
        return new
    out = copy.deepcopy(value)
    at(out, path[:-1])[path[-1]] = new
    return out


# values of a type that no field of the original's type accepts
WRONG_TYPED = {dict: ["x", 5, [1]], list: ["x", 5, {"a": 1}], str: ["x", [1], {"a": 1}],
               int: ["x", [1], {"a": 1}], float: ["x", [1], {"a": 1}]}


def assert_input_error(command, payload, extra=()):
    code, out, err = run_stdin(command, payload, extra)
    assert code == 2, (payload, out, err)
    assert err.startswith("okakit: input error") and "Traceback" not in err
    assert (out, err.count("\n")) == ("", 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_wrong_typed_field_exits_2(data):
    kind = data.draw(st.sampled_from(sorted(VALID)))
    request = VALID[kind]
    path = data.draw(st.sampled_from(list(fields(request))))
    new = data.draw(st.sampled_from(WRONG_TYPED[type(at(request, path))]))
    assert_input_error(command_of(kind), replaced(request, path, new))


def with_pole(pole):
    return {**VALID["cousin1"], "slabs": [{"poles": [pole]}, *VALID["cousin1"]["slabs"][1:]]}


SPLIT_VAR = {**VALID["cousin-split"], "function": {"op": "var", "index": 1}}


def with_cuboid(**axes):
    return {**VALID["cousin1"], "cuboid": {**VALID["cousin1"]["cuboid"], **axes}}


def with_target(target):
    return {**VALID["jokuiko"], "target": target}


def with_geometry(**fields):
    return {**SPLIT_VAR, "geometry": {**SPLIT_VAR["geometry"], **fields}}


@pytest.mark.parametrize("command, payload", [
    # ended in a traceback before one input boundary read every request
    pytest.param("cousin1", {**VALID["cousin1"], "tolerance": "x"}, id="tolerance-str"),
    pytest.param("cousin1", {**VALID["cousin1"], "delta": "x"}, id="delta-str"),
    pytest.param("cousin1", {**VALID["cousin1"], "breakpoints": ["a", 1.0]}, id="breakpoint-str"),
    pytest.param("cousin-split", {**SPLIT_VAR, "quadrature": {"panels": 1.5}}, id="panels-float"),
    pytest.param("cousin1", {**VALID["cousin1"], "slabs": [1, 2, 3]}, id="slab-int"),
    pytest.param("cousin1", with_pole({"re": "x"}), id="pole-re-str"),
    pytest.param("cousin1", with_pole(5), id="pole-int"),
    pytest.param("cousin-split", {**SPLIT_VAR, "dim": "x"}, id="split-dim-str"),
    pytest.param("cousin-split", {**SPLIT_VAR, "grid": {"nx": "a"}}, id="grid-nx-str"),
    pytest.param("cousin-split", {**SPLIT_VAR, "grid": {"nx": 0}}, id="grid-nx-0"),
    pytest.param("cousin-split", {**SPLIT_VAR, "grid": [1]}, id="grid-list"),
    pytest.param("divide", {"series": series_json(2, {(1, 1): 1}), "q": 3}, id="divide-q-above-dim"),
    pytest.param("jokuiko", {**VALID["jokuiko"], "q": 0}, id="jokuiko-q-0"),
    # exited 1, as computation errors do
    pytest.param("syzygy", {"mode": "trivial", "p": 0}, id="trivial-p-0"),
    pytest.param("syzygy", {"mode": "decompose", "components": []}, id="decompose-empty"),
    pytest.param("syzygy", {"mode": "general", "dim": 2, "q": 3, "N": 3}, id="general-q-above-dim"),
    pytest.param("syzygy", {**VALID["syzygy-general"],
                            "coefficients": [{"i": 1, "j": 1, "series": series_json(2, {})}]},
                 id="general-index-out-of-range"),
    # other values out of range
    pytest.param("cousin1", {**VALID["cousin1"], "delta": 0}, id="delta-0"),
    pytest.param("cousin1", {**VALID["cousin1"], "delta": 2.5}, id="delta-above-slab-width"),
    pytest.param("jokuiko", {**VALID["jokuiko"], "delta": 5.0}, id="jokuiko-delta-above-slab-width"),
    pytest.param("jokuiko", {**VALID["jokuiko"], "q": 3}, id="jokuiko-q-above-dim"),
    pytest.param("cousin1", {**VALID["cousin1"], "tolerance": -1e-8}, id="tolerance-negative"),
    pytest.param("cousin-split", {**SPLIT_VAR, "quadrature": {"nodes": 1}}, id="nodes-1"),
    pytest.param("cousin1", with_pole({"re": -2.0, "order": 0}), id="pole-order-0"),
    pytest.param("cousin1", {**VALID["cousin1"], "cuboid": {"re": [], "im": []}}, id="cuboid-empty"),
    pytest.param("cousin-split", {**SPLIT_VAR, "dim": 2}, id="split-dim-mismatch"),
    pytest.param("cousin-split", {**SPLIT_VAR, "grid": {"ny": 0}}, id="grid-ny-0"),
    # read as 1 point, and any size built before a check, until grid sizes were read as integers and bounded
    pytest.param("cousin-split", {**SPLIT_VAR, "grid": {"nx": True}}, id="grid-nx-bool"),
    pytest.param("cousin-split", {**SPLIT_VAR, "grid": {"ny": True}}, id="grid-ny-bool"),
    pytest.param("cousin-split", {**SPLIT_VAR, "grid": {"nx": 300, "ny": 300}}, id="grid-above-limit"),
    pytest.param("cousin-split", {**SPLIT_VAR, "grid": {"nx": cousin.MAX_GRID_POINTS + 1, "ny": 1}},
                 id="grid-row-above-limit"),
    pytest.param("divide", {"series": {**series_json(2, {(1, 1): 1}), "backend": "fast"}, "q": 1},
                 id="series-backend-unknown"),
    pytest.param("syzygy", {"mode": "trivial", "p": 3, "dim": 2}, id="trivial-dim-below-p"),
    # read as dimension 2 and exponent 1 before series.from_json took integers only
    pytest.param("divide", {"series": {**series_json(2, {(1, 1): 1}), "dim": 2.5}, "q": 1}, id="series-dim-float"),
    pytest.param("divide", {"series": {"dim": 2, "terms": [{"exp": [1.5, 0], "coeff": ["1", "0"]}]}, "q": 1},
                 id="series-exp-float"),
    # read as 1 or 0 until series.from_json rejected JSON booleans
    pytest.param("divide", {"series": {**series_json(1, {(1,): 1}), "dim": True}, "q": 1}, id="series-dim-bool"),
    pytest.param("divide", {"series": {"dim": 2, "terms": [{"exp": [True, 0], "coeff": ["1", "0"]}]}, "q": 1},
                 id="series-exp-bool"),
    pytest.param("divide", {"series": {"dim": 2, "terms": [{"exp": [1, 0], "coeff": [True, False]}]}, "q": 1},
                 id="series-coeff-bool"),
    pytest.param("divide", {"series": {**series_json(2, {(1, 1): 1}), "order": True}, "q": 1},
                 id="series-order-bool"),
    # built in proportion to the size before anything bounded it: 2.8 s at dimension
    # 100,000, past 60 s (and 104 MB printed at p = 40) for trivial syzygies of p = 80
    pytest.param("divide", {"series": {"dim": series.MAX_DIM + 1, "terms": []}, "q": 1}, id="series-dim-above-limit"),
    pytest.param("divide", {"series": {"dim": 10 ** 9, "terms": []}, "q": 1}, id="series-dim-huge"),
    pytest.param("syzygy", {"mode": "trivial", "p": series.MAX_DIM + 1}, id="trivial-p-above-limit"),
    pytest.param("syzygy", {"mode": "trivial", "p": 3, "dim": series.MAX_DIM + 1}, id="trivial-dim-above-limit"),
    pytest.param("syzygy", {**VALID["syzygy-general"], "dim": 10 ** 5}, id="general-dim-above-limit"),
    pytest.param("syzygy", {**VALID["syzygy-general"], "N": 10 ** 5}, id="general-N-above-limit"),
    # parsed, then a traceback when the report printed a part longer than str may print
    pytest.param("divide", {"series": {"dim": 2, "terms": [{"exp": [1, 0], "coeff": ["1e5000", "0"]}]}, "q": 1},
                 id="series-numerator-too-long"),
    pytest.param("divide", {"series": {"dim": 2, "terms": [{"exp": [1, 0], "coeff": ["0", "1e-5000"]}]}, "q": 1},
                 id="series-denominator-too-long"),
    # read and run, exiting 0, until every number of a request went through cli._number
    pytest.param("cousin1", with_cuboid(re=[[True, 3]]), id="cuboid-bound-bool"),
    pytest.param("cousin1", with_cuboid(re=[["-3", 3]]), id="cuboid-bound-str"),
    pytest.param("cousin1", {**VALID["cousin1"], "delta": True}, id="delta-bool"),
    pytest.param("cousin1", {**VALID["cousin1"], "breakpoints": [-1.0, True]}, id="breakpoint-bool"),
    pytest.param("cousin1", with_pole({"re": True}), id="pole-re-bool"),
    pytest.param("cousin-split", {**SPLIT_VAR, "function": {"op": "const", "re": True}}, id="const-re-bool"),
    pytest.param("cousin-split", {**SPLIT_VAR, "function": {"op": "var", "index": True}}, id="var-index-bool"),
    pytest.param("cousin-split", {**SPLIT_VAR, "dim": True}, id="split-dim-bool"),
    pytest.param("jokuiko", with_target({"op": "pow", "base": {"op": "var", "index": 2}, "exp": True}),
                 id="pow-exp-bool"),
    # a vacuous pass with an infinite tolerance, a ValueError traceback, a NaN report exiting 1
    pytest.param("cousin1", {**VALID["cousin1"], "tolerance": 1e999}, id="tolerance-1e999"),
    pytest.param("cousin-split", with_geometry(theta=math.nan), id="split-theta-nan"),
    # a NaN panel count ended in a ValueError traceback, and numpy overflow warnings printed before a report
    pytest.param("cousin-split", with_geometry(delta=1e308, re_lo=-1.6e308, re_hi=1.6e308), id="split-delta-huge"),
    pytest.param("cousin-split", with_geometry(theta=1e308), id="split-theta-huge"),
    pytest.param("cousin1", with_cuboid(im=[[-math.inf, math.inf]]), id="cuboid-bound-infinite"),
    pytest.param("divide", {"series": {"dim": 1, "backend": "floating",
                                       "terms": [{"exp": [1], "coeff": [math.inf, 0]}]}, "q": 1},
                 id="series-coeff-infinite"),
    # __pow__ makes k products: still running after 15 s at k = 10^9
    pytest.param("jokuiko", with_target({"op": "pow", "base": {"op": "var", "index": 2}, "exp": 10 ** 9}),
                 id="pow-exp-huge"),
    pytest.param("jokuiko", with_target({"op": "pow", "base": {"op": "var", "index": 2}, "exp": exprtree.MAX_POW + 1}),
                 id="pow-exp-above-limit"),
    # each exponent within MAX_POW, but a lowering of degree 144 took 11.5 s before to_series bounded the degree
    pytest.param("jokuiko", with_target({"op": "pow", "exp": 12, "base": {"op": "pow", "exp": 12, "base": {
        "op": "add", "args": [{"op": "var", "index": 1}, {"op": "var", "index": 2}, {"op": "const", "re": 1}]}}}),
                 id="pow-nested-degree-above-limit"),
    # degree 64 in four variables lowered to 814,385 terms in 282 s before to_series bounded the terms
    pytest.param("jokuiko", {**VALID["jokuiko"],
                             "cuboid": {"re": [[-0.5, 0.5]] * 3 + [[-2, 2]], "im": [[-0.5, 0.5]] * 4},
                             "target": {"op": "pow", "exp": 64, "base": {"op": "add", "args": [
                                 *({"op": "var", "index": j} for j in range(1, 5)), {"op": "const", "re": 1}]}}},
                 id="pow-terms-above-limit"),
])
def test_malformed_request_exits_2(command, payload):
    assert_input_error(command, payload)


@pytest.mark.parametrize("i, j, center", [(2, 1, [["1", "0"], ["0", "0"]]), (1, 1, [["0", "0"]] * 2)],
                         ids=["off-origin", "out-of-range"])
def test_general_coefficient_errors_name_the_request_indices(i, j, center):
    # the request's indices are 1-based, as in the paper: a_{2,1} was reported as (1,0)
    coefficient = {"i": i, "j": j, "series": {**series_json(2, {(0, 0): 1}), "center": center}}
    request = {"mode": "general", "dim": 2, "q": 1, "N": 2, "coefficients": [coefficient]}
    code, out, err = run_stdin("syzygy", request)
    assert (code, out) == (2, "")
    assert f"coefficient a_{{{i},{j}}} " in err


@pytest.mark.parametrize("payload", [
    pytest.param(with_pole({"re": -2.0, "order": 100000}), id="pole-order-huge"),
])
def test_overflow_while_computing_exits_1(payload):
    # finite input whose computation overflows ended in an OverflowError traceback,
    # and then in numpy RuntimeWarnings printed before the one line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_stdin("cousin1", payload)
    assert (code, out, [str(w.message) for w in caught]) == (1, "", [])
    assert len(err.splitlines()) == 1 and err.startswith("okakit: OverflowError: ")


def test_huge_cuboid_bound_passes():
    # Re z_n in [-1e308, 1e308] with seams at +/-1: the closed form samples nothing out there, so the solve
    # passes with no overflow and no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_stdin("cousin1", with_cuboid(re=[[-1e308, 1e308]]))
    assert (code, err, [str(w.message) for w in caught]) == (0, "", [])
    report = json.loads(out)
    (chain,) = report["result"]["chains"]
    assert chain["pass"] and len(chain["seam_jumps"]) == 2 and max(chain["seam_jumps"]) <= report["tolerance"]


@pytest.mark.parametrize("part", ["1e20000000", "-2.5E-20000000", "0e99999999"])
def test_huge_decimal_exponent_exits_2_before_building(monkeypatch, part):
    # Fraction built 10**20000000 whole (about 38 s) before the part was found too long to print
    def fraction(value, *args):
        assert value != part, "Fraction was given the part with the huge exponent"
        return Fraction(value, *args)

    monkeypatch.setattr(series, "Fraction", fraction)
    assert_input_error("divide", {"series": {"dim": 1, "terms": [{"exp": [1], "coeff": ["1", part]}]}, "q": 1})


@pytest.mark.parametrize("part", ["0.001e4301", "1e4299", "5e-4299", "1.5e3", "2/3"])
def test_printable_decimal_parts_still_read(part):
    # the exponent guard refuses only parts that could not print
    code, out, err = run_stdin("divide", {"series": {"dim": 1, "terms": [{"exp": [1], "coeff": [part, "0"]}]}, "q": 1})
    assert code == 0, err
    cofactor = json.loads(out)["result"]["cofactors"][0]
    assert Fraction(cofactor["terms"][0]["coeff"][0]) == Fraction(part)


@pytest.mark.parametrize("payload, extra", [
    pytest.param({**VALID["cousin-split"], "quadrature": {"nodes": 10_000_000}}, (), id="nodes"),
    pytest.param({**VALID["cousin-split"], "quadrature": {"panels": 100_000_000}}, (), id="panels"),
])
def test_huge_quadrature_counts_exit_2_before_allocating(payload, extra):
    # leggauss builds a nodes x nodes matrix: 10^7 nodes ended in a MemoryError
    tracemalloc.start()
    try:
        assert_input_error("cousin-split", payload, extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def no_computation(monkeypatch):
    def computation(*args, **kwargs):
        raise AssertionError("the computation ran before the output path was checked")

    monkeypatch.setattr(cli, "solve_chain", computation)
    monkeypatch.setattr(cli, "cousin_split", computation)


@pytest.mark.parametrize("command, where", [("cousin-split", "csv"), ("cousin1", "csv"), ("cousin1", "--output")])
def test_unwritable_output_exits_2(tmp_path, monkeypatch, command, where):
    # a path in a missing directory ended in a FileNotFoundError traceback;
    # later it exited 2, but only after the whole computation had run
    no_computation(monkeypatch)
    path = str(tmp_path / "missing" / "out")
    if where == "csv":
        assert_input_error(command, {**VALID[command], "csv": path})
    else:
        assert_input_error(command, VALID[command], (where, path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["csv", "--output"])
def test_directory_as_output_exits_2_before_computing(tmp_path, monkeypatch, where):
    no_computation(monkeypatch)
    if where == "csv":
        assert_input_error("cousin1", {**VALID["cousin1"], "csv": str(tmp_path)})
    else:
        assert_input_error("cousin1", VALID["cousin1"], (where, str(tmp_path)))


def test_output_path_check_leaves_existing_file_until_written(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("kept")
    code, _, err = run_stdin("cousin1", {**VALID["cousin1"], "delta": 0}, ("--output", str(out)))
    assert code == 2 and err.startswith("okakit: input error")
    assert out.read_text() == "kept"
    code, _, _ = run_stdin("cousin1", VALID["cousin1"], ("--output", str(out)))
    assert code == 0 and json.loads(out.read_text())["pass"] is True


# -- tolerance and round-trip checks ----------------------------------------

def test_report_gives_the_tolerance_applied():
    code, out, _ = run_stdin("cousin1", {**VALID["cousin1"], "tolerance": 1e-30})
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert report["tolerance"] == 1e-30
    code, out, _ = run_stdin("cousin1", VALID["cousin1"])
    assert code == 0 and json.loads(out)["tolerance"] == 1e-8


def test_one_parser_serves_every_call_without_carrying_flags(monkeypatch):
    specs, quadrature = [], cli._quadrature
    monkeypatch.setattr(cli, "_quadrature", lambda data: specs.append(quadrature(data)) or specs[-1])
    cli._parser.cache_clear()
    try:
        split_with_3 = {**VALID["cousin-split"], "quadrature": {"panels": 3}}
        calls = [("cousin-split", split_with_3, ("--tol", "1e-3", "--seed", "7"), 1e-3, 7, 3),
                 ("cousin-split", VALID["cousin-split"], (), 1e-8, 0, 6),
                 ("divide", VALID["divide"], ("--tol", "1e-6"), 1e-6, 0, None),
                 ("cousin1", VALID["cousin1"], ("--seed", "2"), 1e-8, 2, None),
                 ("syzygy", VALID["syzygy"], (), 1e-8, 0, None)]
        for command, payload, extra, tol, seed, panels in calls:
            specs.clear()
            code, out, err = run_stdin(command, payload, extra)
            report = json.loads(out)
            assert (code, err, report["command"]) == (0, "", command)
            assert (report["tolerance"], report["seed"]) == (tol, seed)
            assert [spec.panels for spec in specs] == ([] if panels is None else [panels])
        # a rejected flag leaves the parser as it was
        with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
            main(["divide", "--panels", "x"])
        code, out, _ = run_stdin("cousin-split", VALID["cousin-split"])
        assert code == 0 and json.loads(out)["tolerance"] == 1e-8
        assert cli._parser.cache_info().misses == 1
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("command, panels", [("divide", "3"), ("cousin1", "8"), ("jokuiko", "8"),
                                             ("cousin-split", "8")])
def test_panels_on_no_subcommand(command, panels):
    # cousin-split reads its panels from the request's "quadrature" alone; the solvers' seams split in closed form
    with pytest.raises(SystemExit) as exit_, contextlib.redirect_stderr(io.StringIO()) as err:
        main([command, "--panels", panels])
    assert exit_.value.code == 2 and "unrecognized arguments: --panels" in err.getvalue()


@pytest.mark.parametrize("command", ["cousin1", "jokuiko"])
def test_quadrature_key_changes_no_solve(command):
    # a solve's seams split in closed form, with no panels: the key is not read
    code, out, err = run_stdin(command, VALID[command])
    code_q, out_q, err_q = run_stdin(command, {**VALID[command], "quadrature": {"panels": 1, "nodes": 2}})
    assert (code, err) == (code_q, err_q) == (0, "")
    report, report_q = json.loads(out), json.loads(out_q)
    assert (report["pass"], report["result"]) == (report_q["pass"], report_q["result"])


def floating_json(dim, terms):
    return {"dim": dim, "backend": "floating",
            "terms": [{"exp": list(e), "coeff": [c.real, c.imag]} for e, c in terms.items()]}


def test_floating_divide_runs_its_check():
    f = floating_json(3, {(1, 0, 1): 0.1 + 0.2j, (0, 2, 0): 1 / 3})
    code, out, _ = run_stdin("divide", {"series": f, "q": 2})
    result = json.loads(out)["result"]
    assert code == 0
    assert result["recombination_exact"] is None
    assert result["verification"] == {"recombined_equals_input": True, "residual_norm": 0.0}


def test_floating_general_decomposition_runs():
    # sigma_3 = z1/3 + z2/10 and v = g * phi_3 + T_12 with g = 0.9 + 0.3i z1 z2, its
    # second slot written with c / 10, which rounds apart from the recombined c * 0.1
    g = {(0, 0): 0.9 + 0j, (1, 1): 0.3j}
    v = [floating_json(2, {**{e: -c / 3 for e, c in g.items()}, (0, 1): -1.0}),
         floating_json(2, {**{e: -c / 10 for e, c in g.items()}, (1, 0): 1.0}),
         floating_json(2, g)]
    payload = {"mode": "general", "dim": 2, "q": 2, "N": 3, "vector": v,
               "coefficients": [{"i": 3, "j": j, "series": floating_json(2, {(0, 0): a})}
                                for j, a in ((1, 1 / 3), (2, 0.1))]}
    code, out, err = run_stdin("syzygy", payload)
    assert (code, err) == (0, "")
    check = json.loads(out)["result"]["verification"]
    assert check["recombined_equals_input"] is True
    assert 0.0 < check["residual_norm"] < 1e-15
