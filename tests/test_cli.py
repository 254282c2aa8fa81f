from __future__ import annotations

import json

import pytest

from pureil.cli import main

FAIR_PRODUCT = '{"class":"product","q":1,"x":["1/2","1/2"]}'
LOPSIDED_Y = '{"class":"symmetrized","q":2,"c":["0","1","0","0"]}'
TWO_BY_TWO = '{"nu":2,"rows":[{"bits":"11","mult":1},{"bits":"00","mult":1}]}'
NABLA_DOC = '{"class":"nabla","q":2,"upsilon":' + TWO_BY_TWO + "}"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_fair_product(capsys):
    code, out = run(capsys, "eval", "--f", FAIR_PRODUCT, "--phi", "P1(a1)")
    assert code == 0
    assert out == '{"value": "1/2"}\n'


def test_eval_tautology(capsys):
    code, out = run(capsys, "eval", "--f", FAIR_PRODUCT, "--phi", "P1(a1) | !P1(a1)")
    assert code == 0
    assert json.loads(out) == {"value": "1"}


def test_eval_constants_window(capsys):
    code, out = run(
        capsys, "eval", "--f", FAIR_PRODUCT, "--phi", "P1(a1)", "--constants", "1,2"
    )
    assert code == 0
    assert json.loads(out) == {"value": "1/2"}


def test_eval_constants_not_integers(capsys):
    code, out = run(capsys, "eval", "--f", FAIR_PRODUCT, "--phi", "P1(a1)", "--constants", "x")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "PureILError"
    assert "--constants" in doc["error"]["message"]


def test_eval_formula_error(capsys):
    code, out = run(capsys, "eval", "--f", FAIR_PRODUCT, "--phi", "P1(a1")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "FormulaSyntaxError"
    assert "offset 6" in doc["error"]["message"]


def test_eval_predicate_out_of_range(capsys):
    code, out = run(capsys, "eval", "--f", FAIR_PRODUCT, "--phi", "P2(a1)")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "PureILError"


def test_eval_widest_language_three_constants(capsys):
    uniform = json.dumps({"class": "product", "q": 12, "x": ["1/4096"] * 4096})
    code, out = run(capsys, "eval", "--f", uniform, "--phi", "P1(a1) & P12(a2) | P3(a3)")
    assert code == 0
    assert out == '{"value": "5/8"}\n'


def test_eval_many_literals(capsys):
    disjunction = " | ".join(f"P1(a{i})" for i in range(1, 17))
    code, out = run(capsys, "eval", "--f", FAIR_PRODUCT, "--phi", disjunction)
    assert code == 0
    assert out == '{"value": "65535/65536"}\n'
    # 2^26 sign assignments are refused before any is evaluated
    disjunction = " | ".join(f"P1(a{i})" for i in range(1, 27))
    code, out = run(capsys, "eval", "--f", FAIR_PRODUCT, "--phi", disjunction)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CapExceededError"


def test_eval_bad_document(capsys):
    code, out = run(capsys, "eval", "--f", '{"class":"product"}', "--phi", "P1(a1)")
    assert code == 1
    code, out = run(capsys, "eval", "--f", "{not json", "--phi", "P1(a1)")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "PureILError"


def test_eval_missing_file(capsys):
    code, out = run(capsys, "eval", "--f", "no/such/file.json", "--phi", "P1(a1)")
    assert code == 1
    assert "cannot read document" in json.loads(out)["error"]["message"]


def test_check_px_pass(capsys):
    code, out = run(capsys, "check", "--principle", "px", "--f", LOPSIDED_Y, "--n", "3")
    assert code == 0
    assert json.loads(out) == {"principle": "Px", "bound": 3, "outcome": "pass"}


def test_check_ip_fail_witness(capsys):
    code, out = run(capsys, "check", "--principle", "ip", "--f", LOPSIDED_Y, "--n", "3")
    assert code == 0
    assert json.loads(out) == {
        "principle": "IP",
        "bound": 3,
        "outcome": "fail",
        "witness": {"theta": [2], "phi": [2], "lhs": "1/2", "rhs": "1/4"},
    }


def test_check_wip_needs_blocks(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--principle", "wip", "--f", LOPSIDED_Y])
    assert exc.value.code == 2


def test_check_wip_fail(capsys):
    code, out = run(
        capsys,
        "check", "--principle", "wip", "--f", LOPSIDED_Y, "--p", "1", "--r", "1", "--n", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "fail"
    assert doc["witness"]["lhs"] == "0"
    assert doc["witness"]["rhs"] == "1/4"


def test_check_unknown_principle(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--principle", "sufficientness", "--f", LOPSIDED_Y])
    assert exc.value.code == 2


def test_check_level_mismatch(capsys):
    code, out = run(
        capsys,
        "check", "--principle", "wip", "--f", FAIR_PRODUCT, "--p", "1", "--r", "1",
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "LevelMismatchError"


def test_extend_infeasible(capsys):
    code, out = run(capsys, "extend", "--C", "0,1/2,0", "--q", "2", "--r", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "infeasible"
    assert doc["method"] == "fourier-motzkin"
    assert "functional" in doc


def test_extend_feasible(capsys):
    code, out = run(capsys, "extend", "--C", "1/4,1/4,1/4", "--q", "2", "--r", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "feasible"
    assert len(doc["witness"]) == 7


def test_extend_bad_vector(capsys):
    code, out = run(capsys, "extend", "--C", "1/2,1/2,1/2", "--q", "2", "--r", "3")
    assert code == 1
    code, out = run(capsys, "extend", "--C", "0.5,0.5", "--q", "1", "--r", "2")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "PureILError"


def test_extend_zero_denominator(capsys):
    code, out = run(capsys, "extend", "--C", "1/0,1/2,1/4", "--q", "2", "--r", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "PureILError"
    assert "zero denominator" in doc["error"]["message"]


def test_extend_wrong_direction(capsys):
    code, out = run(capsys, "extend", "--C", "1/4,1/4,1/4", "--q", "2", "--r", "1")
    assert code == 1


def test_bernstein(capsys):
    code, out = run(capsys, "bernstein", "--measure", '[{"x":"1/2","w":"1"}]', "--q", "2")
    assert code == 0
    assert json.loads(out) == {"q": 2, "C": ["1/4", "1/4", "1/4"]}


def test_bernstein_bad_measure(capsys):
    code, out = run(capsys, "bernstein", "--measure", '[{"x":"3/2","w":"1"}]', "--q", "2")
    assert code == 1


def test_bernstein_negative_level(capsys):
    code, out = run(capsys, "bernstein", "--measure", '[{"x":"1/2","w":"1"}]', "--q", "-1")
    assert code == 1
    assert "q = -1" in json.loads(out)["error"]["message"]


def test_nabla_eval(capsys):
    code, out = run(
        capsys, "nabla", "--upsilon", TWO_BY_TWO, "--q", "2", "--eval", "P1(a1)&!P2(a1)"
    )
    assert code == 0
    assert json.loads(out) == {"value": "1/4"}


def test_nabla_sd(capsys):
    code, out = run(capsys, "nabla", "--upsilon", TWO_BY_TWO, "--q", "2", "--sd", "[2]")
    assert code == 0
    assert json.loads(out) == {"value": "1/4"}


def test_nabla_needs_one_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nabla", "--upsilon", TWO_BY_TWO, "--q", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nabla", "--upsilon", TWO_BY_TWO, "--q", "2", "--eval", "P1(a1)", "--sd", "[1]"])
    assert exc.value.code == 2


def test_nabla_bad_matrix(capsys):
    code, out = run(
        capsys,
        "nabla", "--upsilon", '{"nu":2,"rows":[{"bits":"11","mult":1}]}',
        "--q", "2", "--sd", "[1]",
    )
    assert code == 1


def test_decompose(capsys):
    code, out = run(capsys, "decompose", "--c", "0,1,0,0", "--q", "2", "--verify-n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == "1"
    assert doc["g"] == 1
    assert doc["nu"] == 2
    assert doc["verification"] == {"verified_n": 3, "outcome": "pass"}
    assert doc["w1"]["class"] == "mixture"
    parts = doc["w1"]["parts"]
    assert len(parts) == 1 and parts[0]["f"]["class"] == "nabla"


def test_decompose_wrong_count(capsys):
    code, out = run(capsys, "decompose", "--c", "0,1,0", "--q", "2")
    assert code == 1
    assert "needs 4" in json.loads(out)["error"]["message"]


def test_decompose_mixture_document(capsys):
    doc = json.dumps(
        {
            "class": "mixture",
            "parts": [
                {"w": "1/2", "f": {"class": "symmetrized", "c": ["0", "1", "0", "0"]}},
                {"w": "1/2", "f": {"class": "symmetrized", "c": ["1", "0", "0", "0"]}},
            ],
        }
    )
    code, out = run(capsys, "decompose", "--f", doc, "--q", "2", "--verify-n", "2")
    assert code == 0
    assert json.loads(out)["lambda"] == "1"


def test_decompose_rejects_product_document(capsys):
    code, out = run(capsys, "decompose", "--f", FAIR_PRODUCT, "--q", "1")
    assert code == 1


def test_decompose_needs_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--q", "2"])
    assert exc.value.code == 2


def test_marginalize_sd(capsys):
    doc = '{"class":"product","q":2,"x":["1/4","1/4","1/4","1/4"]}'
    code, out = run(capsys, "marginalize", "--f", doc, "--q", "1", "--sd", "[1,2]")
    assert code == 0
    assert json.loads(out) == {"value": "1/4"}


def test_marginalize_phi(capsys):
    code, out = run(capsys, "marginalize", "--f", NABLA_DOC, "--q", "1", "--phi", "P1(a1)")
    assert code == 0
    assert json.loads(out) == {"value": "1/2"}


def test_marginalize_needs_one_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["marginalize", "--f", NABLA_DOC, "--q", "1"])
    assert exc.value.code == 2


def test_marginalize_upward_is_domain_error(capsys):
    code, out = run(capsys, "marginalize", "--f", FAIR_PRODUCT, "--q", "3", "--sd", "[1]")
    assert code == 1


def test_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--f", FAIR_PRODUCT, "--phi", "P1(a1)", "--fast"])
    assert exc.value.code == 2


def test_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_config_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"f": FAIR_PRODUCT, "phi": "P1(a1)"}))
    code, out = run(capsys, "--config", str(config), "eval")
    assert code == 0
    assert json.loads(out) == {"value": "1/2"}
    # explicit flags still win
    code, out = run(capsys, "--config", str(config), "eval", "--phi", "!P1(a1)")
    assert code == 0
    assert json.loads(out) == {"value": "1/2"}


def test_config_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--config"])
    assert exc.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2]")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(bad), "eval", "--f", FAIR_PRODUCT, "--phi", "P1(a1)"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(tmp_path / "missing.json"), "eval"])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(3):
        _, out = run(capsys, "decompose", "--c", "0,1,0,0", "--q", "2", "--verify-n", "2")
        outputs.add(out)
    assert len(outputs) == 1
    for _ in range(2):
        _, out = run(capsys, "extend", "--C", "0,1/2,0", "--q", "2", "--r", "3")
        outputs.add(out)
    assert len(outputs) == 2
