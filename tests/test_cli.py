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
