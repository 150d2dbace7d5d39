"""Golden tests for the command-line front end.

Each test writes small fixed instances, runs `cli.main(argv)` in process
and compares stdout byte for byte with the recorded document, together
with the exit code.  The tests at the end start fresh interpreters, to see
what a cold call loads and that each verb family runs on its own imports.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncvx import cli

def _closed_segment(lo: int, hi: int) -> dict:
    """[lo, hi] as its closure and both endpoints."""
    closure = {"dim": 1, "ineq": [["1", str(hi)], ["-1", str(-lo)]]}
    return {"closure": closure, "faces": [[1], [2]]}


INPUTS = {
    # [0, 2], closed: the open segment plus both endpoints
    "a.json": {
        "closure": {"dim": 1, "ineq": [["1", "2"], ["-1", "0"]]},
        "faces": [[1], [2]],
    },
    # the open segment (1, 3)
    "b.json": {"dim": 1, "pieces": [{"dim": 1, "ineq": [["1", "3"], ["-1", "-1"]]}]},
    # x -> {2x + 1}
    "f.json": {"g_affine": {"G": [["2"]], "c": ["1"]}},
    # x -> x + [0, inf)
    "k.json": {
        "g_affine": {"G": [["1"]], "c": ["0"]},
        "cone": {"dim": 1, "ineq": [["-1", "0"]]},
    },
    # x in (0, 1) -> (0, 1)
    "g.json": {
        "n": 1,
        "p": 1,
        "graph": {
            "dim": 2,
            "pieces": [
                {
                    "dim": 2,
                    "ineq": [
                        ["1", "0", "1"],
                        ["-1", "0", "0"],
                        ["0", "1", "1"],
                        ["0", "-1", "0"],
                    ],
                }
            ],
        },
    },
    # x in [0, 1] -> {1}: the open segment and its two endpoints
    "h.json": {
        "n": 1,
        "p": 1,
        "graph": {
            "closure": {
                "dim": 2,
                "ineq": [["1", "0", "1"], ["-1", "0", "0"]],
                "eq": [["0", "1", "1"]],
            },
            "faces": [[1], [2]],
        },
    },
    # y in [1, 2] -> [0, y] on the open trapezoid, y = 1 -> (0, 1) on its
    # open left edge; its domain meets the range of h.json only at y = 1
    "o.json": {
        "n": 1,
        "p": 1,
        "graph": {
            "closure": {
                "dim": 2,
                "ineq": [
                    ["1", "0", "2"],
                    ["-1", "0", "-1"],
                    ["0", "-1", "0"],
                    ["-1", "1", "0"],
                ],
            },
            "faces": [[2]],
        },
    },
    # the triangle x, y >= 0, x + y <= 2 with a duplicate and a redundant
    # row: its interior, the open edge on y = 0 and the vertex (0, 0)
    "t.json": {
        "closure": {
            "dim": 2,
            "ineq": [
                ["-1", "0", "0"],
                ["0", "-1", "0"],
                ["1", "1", "2"],
                ["2", "2", "4"],
                ["1", "0", "5"],
            ],
        },
        "faces": [[2], [1, 2]],
    },
    # the open segment from (0, 1) to (1, 0), its line given by two rows
    "s.json": {
        "dim": 2,
        "pieces": [
            {
                "dim": 2,
                "ineq": [
                    ["1", "1", "1"],
                    ["-2", "-2", "-2"],
                    ["-1", "0", "0"],
                    ["0", "-1", "0"],
                    ["1", "0", "5"],
                ],
            }
        ],
    },
    # mu(x) = inf { |y + 1/2| : y >= x } = max(x + 1/2, 0)
    "ovf.json": {
        "f": {"max_affine": [["0", "1", "1/2"], ["0", "-1", "-1/2"]]},
        "F": {
            "g_affine": {"G": [["1"]], "c": ["0"]},
            "cone": {"dim": 1, "ineq": [["-1", "0"]]},
        },
    },
    # |x| and max(x - 1, 0) on the line; (x, y) -> max(x + 2y, 1 - x)
    "abs.json": {"max_affine": [["1", "0"], ["-1", "0"]]},
    "hinge.json": {"max_affine": [["1", "-1"], ["0", "0"]]},
    "m11.json": [["1", "1"]],
    # duality instances, one per scheme; the last two fenchel ones have
    # domains whose interiors only touch (dom g = [0, 1], dom h = [1, 2])
    # and whose closures are disjoint (dom h = [2, 3])
    "gen.json": {"f": {"max_affine": [["1", "1", "0"], ["-1", "0", "0"]]}, "p": 1},
    "lag.json": {
        "phi": {"max_affine": [["1", "0"], ["-1", "0"]]},
        "theta": _closed_segment(0, 2),
        "G": {"g_affine": {"G": [["1"]], "c": ["-1"]}},
    },
    "lagk.json": {
        "phi": {"max_affine": [["1", "0"], ["-1", "0"]]},
        "theta": _closed_segment(0, 2),
        "G": {
            "g_affine": {"G": [["1"]], "c": ["-1"]},
            "cone": {"dim": 1, "ineq": [["-1", "0"]]},
        },
    },
    "fl.json": {
        "phi": {"max_affine": [["1", "0"]]},
        "theta": _closed_segment(0, 2),
        "G": {
            "g_affine": {"G": [["-1"]], "c": ["1"]},
            "cone": {"dim": 1, "ineq": [["-1", "0"]]},
        },
    },
    "fen.json": {
        "g": {"max_affine": [["1", "0"], ["-1", "0"]]},
        "h": {
            "max_affine": [["1", "-1"]],
            "domain": _closed_segment(0, 2),
        },
        "A": [["1"]],
    },
    "touch.json": {
        "g": {
            "max_affine": [["1", "0"]],
            "domain": _closed_segment(0, 1),
        },
        "h": {
            "max_affine": [["-1", "0"]],
            "domain": _closed_segment(1, 2),
        },
        "A": [["1"]],
    },
    "apart.json": {
        "g": {
            "max_affine": [["1", "0"]],
            "domain": _closed_segment(0, 1),
        },
        "h": {
            "max_affine": [["0", "0"]],
            "domain": _closed_segment(2, 3),
        },
        "A": [["1"]],
    },
    "m12.json": [["1"], ["2"]],
    "m2.json": [["2"]],
    # three pieces whose union is not nearly convex; the first point
    # found outside it is the origin
    "bad.json": {
        "dim": 2,
        "pieces": [
            {
                "dim": 2,
                "ineq": [["0", "-3", "1"], ["0", "10", "1"]],
                "eq": [["4", "-2", "-1"]],
            },
            {"dim": 2, "ineq": [], "eq": [["5", "0", "1"], ["0", "10", "-1"]]},
            {"dim": 2, "ineq": [], "eq": [["12", "0", "-5"], ["0", "3", "-1"]]},
        ],
    },
}


def _write_inputs(folder) -> None:
    for name, doc in INPUTS.items():
        (folder / name).write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)

    def go(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return go


def test_map_sum_certify(run):
    code, out, _ = run("map", "sum", "--certify", "f.json", "g.json")
    assert code == 0
    assert out == (
        '{"certified":true,"map":{"graph":{"dim":2,"pieces":[{"dim":2,"eq":[],'
        '"ineq":[["-2","1","2"],["-1","0","0"],["1","0","1"],["2","-1","-1"]]}]},'
        '"n":1,"p":1},"qc":true}\n'
    )


def test_map_compose_certify(run):
    code, out, _ = run("map", "compose", "--certify", "k.json", "g.json")
    assert code == 0
    assert out == (
        '{"certified":true,"map":{"graph":{"dim":2,"pieces":[{"dim":2,"eq":[],'
        '"ineq":[["-1","0","0"],["0","-1","0"],["0","1","1"],["1","0","1"]]},'
        '{"dim":2,"eq":[],"ineq":[["0","-1","0"],["0","1","1"],["1","0","1"]]}]},'
        '"n":1,"p":1},"qc":true}\n'
    )


def test_map_compose_certify_composes_once(run, monkeypatch):
    from ncvx import svmap

    calls = []
    compose = svmap.compose

    def counted(f, g):
        calls.append(1)
        return compose(f, g)

    monkeypatch.setattr(svmap, "compose", counted)
    code, _, _ = run("map", "compose", "--certify", "k.json", "g.json")
    assert code == 0
    assert len(calls) == 1


def test_map_compose_without_qualification(run):
    # ri(range of h) = {1} misses ri(dom o) = (1, 2): exit 1, map still given
    code, out, _ = run("map", "compose", "h.json", "o.json")
    assert code == 1
    assert out == (
        '{"map":{"graph":{"dim":2,"pieces":[{"dim":2,"eq":[],'
        '"ineq":[["-1","0","0"],["0","-1","0"],["0","1","1"],["1","0","1"]]},'
        '{"dim":2,"eq":[["1","0","0"]],"ineq":[["0","-1","0"],["0","1","1"]]},'
        '{"dim":2,"eq":[["1","0","1"]],"ineq":[["0","-1","0"],["0","1","1"]]}]},'
        '"n":1,"p":1},"qc":false}\n'
    )


def test_verify_lemma74(run):
    code, out, _ = run("verify", "lemma7.4", "--count", "3", "--seed", "0")
    assert code == 0
    assert out == '{"count":3,"failures":[],"passes":3,"theorem":"lemma7.4"}\n'


def test_restrict_certify(run):
    code, out, _ = run("restrict", "--certify", "g.json", "a.json")
    assert code == 0
    assert out == (
        '{"certified":true,"map":{"graph":{"dim":2,"pieces":[{"dim":2,"eq":[],'
        '"ineq":[["-1","0","0"],["0","-1","0"],["0","1","1"],["1","0","1"]]}]},'
        '"n":1,"p":1},"qc":true}\n'
    )


def test_map_eval(run):
    code, out, _ = run("map", "eval", "k.json", "--point=1/2")
    assert code == 0
    assert out == (
        '{"values":{"dim":1,"pieces":[{"dim":1,"eq":[],"ineq":[["-2","-1"]]},'
        '{"dim":1,"eq":[["2","1"]],"ineq":[]}]}}\n'
    )
    code, out, _ = run("map", "eval", "g.json", "--point=1/2")
    assert code == 0
    assert out == (
        '{"values":{"dim":1,"pieces":[{"dim":1,"eq":[],'
        '"ineq":[["-1","0"],["1","1"]]}]}}\n'
    )


def test_product(run):
    code, out, _ = run("product", "a.json", "b.json")
    assert code == 0
    assert out == (
        '{"result":{"dim":2,"pieces":[{"dim":2,"eq":[],'
        '"ineq":[["-1","0","0"],["0","-1","-1"],["0","1","3"],["1","0","2"]]},'
        '{"dim":2,"eq":[["1","0","0"]],"ineq":[["0","-1","-1"],["0","1","3"]]},'
        '{"dim":2,"eq":[["1","0","2"]],"ineq":[["0","-1","-1"],["0","1","3"]]}]}}\n'
    )


def test_image(run):
    code, out, _ = run("image", "a.json", "m12.json")
    assert code == 0
    assert out == (
        '{"result":{"dim":2,"pieces":[{"dim":2,"eq":[["2","-1","0"]],'
        '"ineq":[["0","-1","0"],["0","1","4"]]},'
        '{"dim":2,"eq":[["1","0","0"],["0","1","0"]],"ineq":[]},'
        '{"dim":2,"eq":[["1","0","2"],["0","1","4"]],"ineq":[]}]}}\n'
    )


def test_preimage(run):
    code, out, _ = run("preimage", "b.json", "m2.json")
    assert code == 0
    assert out == (
        '{"qc":true,"result":{"dim":1,"pieces":[{"dim":1,"eq":[],'
        '"ineq":[["-2","-1"],["2","3"]]}]}}\n'
    )


def test_check(run):
    code, out, _ = run("check", "t.json")
    assert code == 0
    assert out == '{"nearly_convex":true,"witness":null}\n'
    code, out, _ = run("check", "bad.json")
    assert code == 1
    assert out == '{"nearly_convex":false,"witness":["0","0"]}\n'


def test_ri(run):
    code, out, _ = run("ri", "t.json")
    assert code == 0
    assert out == (
        '{"ri":{"dim":2,"pieces":[{"dim":2,"eq":[],'
        '"ineq":[["-1","0","0"],["0","-1","0"],["1","1","2"]]}]}}\n'
    )
    code, out, _ = run("ri", "s.json")
    assert code == 0
    assert out == (
        '{"ri":{"dim":2,"pieces":[{"dim":2,"eq":[["1","1","1"]],'
        '"ineq":[["0","-1","0"],["0","1","1"]]}]}}\n'
    )


def test_closure(run):
    code, out, _ = run("closure", "s.json")
    assert code == 0
    assert out == (
        '{"closure":{"dim":2,"eq":[["1","1","1"]],'
        '"ineq":[["0","-1","0"],["0","1","1"]]}}\n'
    )
    code, out, _ = run("closure", "b.json")
    assert code == 0
    assert out == '{"closure":{"dim":1,"eq":[],"ineq":[["-1","-1"],["1","3"]]}}\n'


def test_member(run):
    for point, expected in (("1,0", "true"), ("0,1", "false"), ("0,0", "true")):
        code, out, _ = run("member", "t.json", "--point", point)
        assert (code, out) == (0, '{"member":%s}\n' % expected)
    code, out, _ = run("member", "s.json", "--point=1/2,1/2")
    assert (code, out) == (0, '{"member":true}\n')


def test_intersect(run):
    code, out, _ = run("intersect", "t.json", "s.json")
    assert code == 0
    assert out == (
        '{"qc":true,"result":{"dim":2,"pieces":[{"dim":2,"eq":[["1","1","1"]],'
        '"ineq":[["0","-1","0"],["0","1","1"]]}]}}\n'
    )
    code, out, _ = run("intersect", "a.json", "b.json")
    assert code == 0
    assert out == (
        '{"qc":true,"result":{"dim":1,"pieces":[{"dim":1,"eq":[],'
        '"ineq":[["-1","-1"],["1","2"]]},{"dim":1,"eq":[["1","2"]],"ineq":[]}]}}\n'
    )
    code, out, err = run("intersect", "s.json", "a.json")
    assert (code, out) == (2, "")
    assert "different dims" in err


def test_support(run):
    code, out, _ = run("support", "t.json", "--dual", "1,1")
    assert code == 0
    assert out == '{"support":{"maximizer":["2","0"],"ray":null,"value":"2"}}\n'
    code, out, _ = run("support", "s.json", "--dual=1,-1")
    assert code == 0
    assert out == '{"support":{"maximizer":["1","0"],"ray":null,"value":"1"}}\n'


def test_ncone(run):
    code, out, _ = run("ncone", "t.json", "--point", "0,0")
    assert code == 0
    assert out == (
        '{"normal_cone":{"dim":2,"generators":[["-1","0"],["0","-1"]],"lineality":[]}}\n'
    )
    code, out, _ = run("ncone", "s.json", "--point", "1/2,1/2")
    assert code == 0
    assert out == '{"normal_cone":{"dim":2,"generators":[],"lineality":[["1","1"]]}}\n'
    code, out, _ = run("ncone", "t.json", "--point", "0,1")
    assert code == 1
    assert out == (
        '{"detail":"normal cone requested at a point outside the set",'
        '"error":"PointNotInSet"}\n'
    )


def test_map_inverse(run):
    code, out, _ = run("map", "inverse", "k.json")
    assert code == 0
    assert out == (
        '{"map":{"graph":{"dim":2,"pieces":[{"dim":2,"eq":[],"ineq":[["-1","1","0"]]},'
        '{"dim":2,"eq":[["1","-1","0"]],"ineq":[]}]},"n":1,"p":1}}\n'
    )
    code, out, _ = run("map", "inverse", "f.json")
    assert code == 0
    assert out == (
        '{"map":{"graph":{"dim":2,"pieces":[{"dim":2,"eq":[["1","-2","1"]],'
        '"ineq":[]}]},"n":1,"p":1}}\n'
    )


def test_vectors_with_a_leading_minus(run):
    # each vector option takes the next token, even one argparse would
    # read as an option
    code, out, _ = run("member", "t.json", "--point", "-1/2,0")
    assert (code, out) == (0, '{"member":false}\n')
    code, out, _ = run("support", "t.json", "--dual", "-1,-2")
    assert code == 0
    assert out == '{"support":{"maximizer":["0","0"],"ray":null,"value":"0"}}\n'
    code, out, _ = run("ovf", "subdiff", "ovf.json", "--point", "-1", "--solution", "-1/2")
    assert code == 0
    assert out == '{"qc":true,"subdiff":{"dim":1,"eq":[["1","0"]],"ineq":[]}}\n'
    code, out, _ = run("ovf", "conjugate", "ovf.json", "--dual", "-1/2")
    assert (code, out) == (0, '{"qc":true,"value":"inf","witness":null}\n')
    code, out, err = run("member", "t.json", "--point")
    assert (code, out) == (2, "")
    assert "expected one argument" in err


def test_rationals_take_only_the_wire_form(run, tmp_path):
    # "p/q" or "p": no exponent or underscore, which Fraction would take,
    # so a few bytes cannot stand for a huge coefficient
    code, out, err = run("member", "t.json", "--point=1e2,0")
    assert (code, out) == (2, "")
    assert "not an exact rational: '1e2'" in err
    code, out, _ = run("member", "t.json", "--point", "1_0,0")
    assert (code, out) == (2, "")
    doc = {"dim": 1, "pieces": [{"dim": 1, "ineq": [["1", "1e3"], ["-1", "0"]]}]}
    (tmp_path / "e.json").write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run("ri", "e.json")
    assert (code, out) == (2, "")
    assert "not an exact rational: '1e3'" in err
    doc["pieces"][0]["ineq"][0][1] = " +1000 "
    (tmp_path / "e.json").write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run("ri", "e.json")
    assert code == 0
    assert '"1000"' in out


def test_numbers_past_the_digit_limit_exit_2(run, tmp_path):
    # int() refuses more than 4300 digits with a ValueError, which must
    # reach the user as a parse error, not a traceback
    code, out, err = run("member", "t.json", "--point=" + "1" * 5000 + ",0")
    assert (code, out) == (2, "")
    assert "rational with too many digits" in err
    (tmp_path / "big.json").write_text('{"dim": ' + "1" * 5000 + ', "pieces": []}')
    code, out, err = run("ri", "big.json")
    assert (code, out) == (2, "")
    assert "invalid JSON in big.json" in err


def test_verify_rejects_nonpositive_count(run):
    code, out, err = run("verify", "thm2.4", "--count", "-5")
    assert code == 2
    assert out == ""
    assert "count" in err


def test_not_nearly_convex_detail_is_exact_text(run):
    code, out, _ = run("ri", "bad.json")
    assert code == 1
    assert out == (
        '{"detail":"set is not nearly convex, witness (0, 0)",'
        '"error":"NotNearlyConvex"}\n'
    )
    assert "Fraction(" not in out


def test_parser_is_built_once_and_survives_a_bad_request(run, monkeypatch):
    # main parses with the tree built at import; building one more fails here
    monkeypatch.setattr(cli, "_parser", lambda: pytest.fail("parser rebuilt"))
    code, out, err = run("member", "t.json", "--point")
    assert (code, out) == (2, "")
    assert "expected one argument" in err
    code, out, _ = run("nosuch", "t.json")
    assert (code, out) == (2, "")
    code, out, _ = run("member", "t.json", "--point", "1,0")
    assert (code, out) == (0, '{"member":true}\n')


def test_two_verbs_back_to_back(run):
    code, out, _ = run("closure", "b.json")
    assert (code, out) == (
        0,
        '{"closure":{"dim":1,"eq":[],"ineq":[["-1","-1"],["1","3"]]}}\n',
    )
    code, out, _ = run("support", "t.json", "--dual", "1,1")
    assert (code, out) == (
        0,
        '{"support":{"maximizer":["2","0"],"ray":null,"value":"2"}}\n',
    )


def test_coderiv(run):
    # k.json: x -> x + [0, inf); at the boundary point (1, 1) and inside
    code, out, _ = run("coderiv", "k.json", "--point=1,1", "--dual=1")
    assert (code, out) == (0, '{"coderivative":{"dim":1,"eq":[["1","1"]],"ineq":[]}}\n')
    code, out, _ = run("coderiv", "k.json", "--point=1,2", "--dual=0")
    assert (code, out) == (0, '{"coderivative":{"dim":1,"eq":[["1","0"]],"ineq":[]}}\n')
    code, out, _ = run("coderiv", "k.json", "--point=1,1", "--dual=-1")
    assert (code, out) == (0, '{"coderivative":{"dim":1,"eq":[],"ineq":[["0","-1"]]}}\n')


def test_conj_fn(run):
    code, out, _ = run("conj", "fn", "abs.json")
    assert code == 0
    assert out == (
        '{"conjugate":{"epi":{"dim":2,"pieces":[{"dim":2,"eq":[],'
        '"ineq":[["-1","0","1"],["0","-1","0"],["1","0","1"]]},'
        '{"dim":2,"eq":[["0","1","0"]],"ineq":[["-1","0","1"],["1","0","1"]]},'
        '{"dim":2,"eq":[["1","0","-1"]],"ineq":[["0","-1","0"]]},'
        '{"dim":2,"eq":[["1","0","1"]],"ineq":[["0","-1","0"]]},'
        '{"dim":2,"eq":[["1","0","-1"],["0","1","0"]],"ineq":[]},'
        '{"dim":2,"eq":[["1","0","1"],["0","1","0"]],"ineq":[]}]},"n":1}}\n'
    )
    code, out, _ = run("conj", "fn", "hinge.json", "--dual=1/2")
    assert code == 0
    assert out == (
        '{"conjugate":{"epi":{"dim":2,"pieces":[{"dim":2,"eq":[],'
        '"ineq":[["-1","0","0"],["1","-1","0"],["1","0","1"]]},'
        '{"dim":2,"eq":[["1","-1","0"]],"ineq":[["0","-1","0"],["0","1","1"]]},'
        '{"dim":2,"eq":[["1","0","0"]],"ineq":[["0","-1","0"]]},'
        '{"dim":2,"eq":[["1","0","1"]],"ineq":[["0","-1","-1"]]},'
        '{"dim":2,"eq":[["1","0","0"],["0","1","0"]],"ineq":[]},'
        '{"dim":2,"eq":[["1","0","1"],["0","1","1"]],"ineq":[]}]},"n":1},'
        '"value":"1/2"}\n'
    )


def test_conj_svm_sum_chain(run):
    code, out, _ = run("conj", "svm", "k.json", "--dual=1,-1")
    assert code == 0
    assert out == '{"support":{"maximizer":["0","0"],"ray":null,"value":"0"}}\n'
    code, out, _ = run("conj", "svm", "k.json", "--dual=-1,1")
    assert code == 0
    assert out == '{"support":{"maximizer":null,"ray":["0","1"],"value":"inf"}}\n'
    code, out, _ = run("conj", "sum", "abs.json", "hinge.json", "--dual=1/2")
    assert code == 0
    assert out == (
        '{"value":"0","witness":{"parts":["0","0"],"v":null,"w1":["1/2"],"w2":["0"]}}\n'
    )
    code, out, _ = run("conj", "chain", "hinge.json", "m11.json", "--dual=1/2,1/2")
    assert code == 0
    assert out == '{"attaining":["1/2"],"value":"1/2"}\n'


def test_ovf_eval_and_solutions(run):
    # mu(x) = max(x + 1/2, 0), attained at y = max(x, -1/2)
    code, out, _ = run("ovf", "eval", "ovf.json", "--point=-1")
    assert (code, out) == (0, '{"qc":true,"value":"0"}\n')
    code, out, _ = run("ovf", "solutions", "ovf.json", "--point=-1")
    assert code == 0
    assert out == (
        '{"qc":true,"solutions":{"dim":1,"pieces":[{"dim":1,"eq":[["2","-1"]],"ineq":[]}]}}\n'
    )
    code, out, _ = run("ovf", "solutions", "ovf.json", "--point=1")
    assert code == 0
    assert out == (
        '{"qc":true,"solutions":{"dim":1,"pieces":[{"dim":1,"eq":[["1","1"]],"ineq":[]}]}}\n'
    )


def _flag(name, holds, witness=None, certificate=None):
    return {"certificate": certificate, "holds": holds, "name": name, "witness": witness}


def _check_duality(result, want_code, flags, digest):
    # the flags print strict_feasible's witness and certificate; the whole
    # document (values, witnesses, perturbation and mu) is pinned by digest
    code, out, _ = result
    assert code == want_code
    assert json.loads(out)["qc"] == flags
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_duality_general(run):
    _check_duality(
        run("duality", "general", "gen.json"),
        0,
        [_flag("parameter_origin_interior", True, ["0"])],
        "7433587376a2f433f7dadb509bfdc4e81daea432e2d1789b52f88d73f78a6b85",
    )


def test_duality_lagrange(run):
    flags = [
        _flag("parameter_origin_interior", True, ["0"]),
        _flag("triple_ri_overlap", True, ["1"]),
        _flag("origin_in_ri_image", True, ["0"]),
    ]
    _check_duality(
        run("duality", "lagrange", "lag.json"),
        0,
        flags,
        "b4f44e12f3d150bccde239f44495892a97b5a00636ee485c81e26704ce2e70e9",
    )
    _check_duality(
        run("duality", "lagrange", "lagk.json"),
        0,
        flags + [_flag("cone_ri_overlap", True, ["1/2"])],
        "af8e8a6813e7a5de1e14577276638fa75560132dffccf4f57be5953203b651ba",
    )


def test_duality_fenchel_lagrange(run):
    _check_duality(
        run("duality", "fenchel-lagrange", "fl.json"),
        0,
        [
            _flag("parameter_origin_interior", True, ["0", "0"]),
            _flag("triple_ri_overlap", True, ["1"]),
            _flag("origin_in_ri_image", True, ["0"]),
        ],
        "4b01b5715cbecdf02bd4b3956ebb810b16217b16fb7163adb864d405c4daf7e7",
    )


def test_duality_fenchel(run):
    _check_duality(
        run("duality", "fenchel", "fen.json"),
        0,
        [
            _flag("parameter_origin_interior", True, ["0"]),
            _flag("affine_image_ri_overlap", True, ["1"]),
        ],
        "e14249f3d7ce871947783f28fc44c445f27a526ea7094ac4ff5765f2b367ddfc",
    )
    # the interiors only touch at 1: no strict point and no certificate
    _check_duality(
        run("duality", "fenchel", "touch.json"),
        1,
        [
            _flag("parameter_origin_interior", False),
            _flag("affine_image_ri_overlap", False),
        ],
        "07f62ca9babaaa8ff06deee452623cdc141e977a5d18bcf94edb5a4a6afbff6b",
    )
    # disjoint closures: a Farkas certificate for the closed rows
    _check_duality(
        run("duality", "fenchel", "apart.json"),
        1,
        [
            _flag("parameter_origin_interior", False),
            _flag("affine_image_ri_overlap", False, None, ["0", "1", "1", "0"]),
        ],
        "2267f1ab5f84c732522f3d94e436cf79add85b8bc7eceb1754dfcb7d021fd99a",
    )


# ---------------------------------------------------------------------------
# fresh interpreters: the tests above run with every module already
# imported, so they cannot see what a cold call loads, nor a verb that works
# only because another module was loaded first

SRC = Path(cli.__file__).resolve().parent.parent
HEAVY = ("numpy", "ncvx.oracle", "ncvx.duality", "ncvx.conjugate", "ncvx.variational")

# runs each argv of sys.argv[1] through cli.main in this one process and
# prints, as JSON, which HEAVY modules are loaded after the import and
# after each verb, with the verb's exit code
_LOADS = """
import contextlib, io, json, sys
from ncvx import cli
heavy, argvs = json.loads(sys.argv[1])
seen = [[None, [m for m in heavy if m in sys.modules]]]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([code, [m for m in heavy if m in sys.modules]])
print(json.dumps(seen))
"""


def _fresh(folder, *argv) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *argv], cwd=folder, env=env, capture_output=True, text=True, timeout=300
    )


def _loads_after(folder, argvs) -> list:
    done = _fresh(folder, "-c", _LOADS, json.dumps([HEAVY, argvs]))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_set_and_map_verbs_load_no_oracle_numpy_or_duality_layer(tmp_path):
    _write_inputs(tmp_path)
    argvs = [
        ["member", "t.json", "--point", "1,0"],
        ["check", "t.json"],
        ["closure", "s.json"],
        ["map", "compose", "k.json", "g.json"],
        ["image", "a.json", "m12.json"],
    ]
    assert _loads_after(tmp_path, argvs) == [[None, []]] + [[0, []]] * len(argvs)


def test_only_a_lattice_suite_loads_numpy(tmp_path):
    # lemma7.4 never scans a lattice; thm2.2d compares images on one
    done = _loads_after(tmp_path, [["verify", "lemma7.4", "--count", "1"]])
    assert done[-1] == [0, ["ncvx.oracle", "ncvx.duality", "ncvx.conjugate", "ncvx.variational"]]
    done = _loads_after(tmp_path, [["verify", "thm2.2d", "--count", "1"]])
    assert done[-1] == [0, list(HEAVY)]


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "t.json"),
        ("map", "compose", "k.json", "g.json"),
        ("conj", "fn", "hinge.json", "--dual=1/2"),
        ("support", "t.json", "--dual", "1,1"),
        ("ncone", "t.json", "--point", "0,0"),
        ("ovf", "eval", "ovf.json", "--point=-1"),
        ("ovf", "conjugate", "ovf.json", "--dual=1/2"),
        ("duality", "general", "gen.json"),
        ("verify", "lemma7.4", "--count", "1"),
    ],
    ids=lambda argv: " ".join(w for w in argv if w.isalpha()),
)
def test_each_verb_family_runs_in_a_fresh_process(run, tmp_path, argv):
    done = _fresh(tmp_path, "-m", "ncvx.cli", *argv)
    assert done.stdout.count("\n") == 1
    json.loads(done.stdout)
    assert (done.returncode, done.stdout) == run(*argv)[:2]
