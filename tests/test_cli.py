"""Golden tests for the command-line front end.

Each test writes small fixed instances, runs `cli.main(argv)` in process
and compares stdout byte for byte with the recorded document, together
with the exit code.
"""

import json

import pytest

from ncvx import cli

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


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    for name, doc in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
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
