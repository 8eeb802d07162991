"""End-to-end exercise of every subcommand through the argument parser."""

import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnork.cli import EXIT_FAILURE, EXIT_OK, EXIT_UNKNOWN, main
from milnork.groundfield import INF, FieldTower, FunctionField
from milnork.jsonio import (
    InputError,
    decode_certificate,
    encode_chain,
    encode_ratfunc,
)
from milnork.kmilnor import (
    KContext,
    coordinate_chain,
    monomial_pullback,
)


@pytest.fixture()
def run(tmp_path, capsys):
    def go(command, payload, extra=()):
        path = tmp_path / ("%s.json" % command.replace("-", "_"))
        path.write_text(json.dumps(payload))
        code = main([*extra, command, str(path)])
        out = capsys.readouterr().out
        return code, (json.loads(out) if out else None)

    return go


@pytest.fixture(scope="module")
def enc2():
    tw = FieldTower(7, seed=0)
    ff = FunctionField(tw, 2)
    return tw, ff


def test_symbol_eval(run, enc2):
    tw, ff = enc2
    chain = coordinate_chain(ff, [0, 1], [tw.zero(), tw.zero()])
    payload = {
        "symbol": [encode_ratfunc(ff.var(0)), encode_ratfunc(ff.var(1))],
        "chain": encode_chain(chain),
    }
    code, out = run("symbol-eval", payload, extra=["--vars", "2"])
    assert code == EXIT_OK
    assert out == {"scalar": 1}


def test_symbol_eval_partial_residue(run, enc2):
    tw, ff = enc2
    chain = coordinate_chain(ff, [0], [tw.zero()])
    payload = {
        "symbol": [encode_ratfunc(ff.var(0)), encode_ratfunc(ff.var(1))],
        "chain": encode_chain(chain),
    }
    code, out = run("symbol-eval", payload, extra=["--vars", "2"])
    assert code == EXIT_OK
    assert len(out["terms"]) == 1 and out["terms"][0]["coeff"] == 1


def test_certify_and_unknown(run, enc2):
    tw, ff = enc2
    payload = {"elements": [encode_ratfunc(ff.var(0)), encode_ratfunc(ff.var(1))]}
    code, out = run("certify", payload, extra=["--vars", "2", "--verify"])
    assert code == EXIT_OK and out["result"] == "certified"
    cube = (ff.var(1) + ff.const(1)) ** 3
    payload = {"elements": [encode_ratfunc(ff.var(0)),
                            encode_ratfunc(ff.var(0) ** 2 * cube)]}
    code, out = run("certify", payload, extra=["--vars", "2", "--budget", "30"])
    assert code == EXIT_UNKNOWN and out["result"] == "unknown"
    # no element, more elements than variables, and two entries without
    # rows in one variable, whose trials take the second variable too:
    # each symbol is empty or vanishes
    x, y = ff.var(0), ff.var(1)
    for elements in ([], [x, y, x + y],
                     [x / (x + ff.const(1)), x ** 2 / (x + ff.const(1))]):
        code, out = run("certify", {"elements": list(map(encode_ratfunc,
                                                         elements))},
                        extra=["--vars", "2", "--budget", "8"])
        assert code == EXIT_UNKNOWN and out == {"result": "unknown"}


def test_input_from_standard_input(monkeypatch, capsys):
    # "-" reads the input from standard input, as a pipe gives it
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"generators": [X0]})))
    assert main(["--vars", "2", "dim", "-"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"lower": 1, "upper": 1}


@pytest.mark.parametrize("payload", [
    {},
    {"elements": [{"num": {"vars": 2, "terms": [
        {"exp": [1, 0], "coef": {"level": 1, "coeffs": [1]}}]},
        "den": {"vars": 2, "terms": []}}]},
])
def test_certify_malformed_input_exits_3(tmp_path, capsys, payload):
    # a missing field and a zero denominator are input errors, not crashes
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = main(["--vars", "2", "certify", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_FAILURE
    assert err.startswith("error: ") and "Traceback" not in err


COMMANDS = ("symbol-eval", "certify", "dim", "lattice-build",
            "lattice-reconstruct", "delta", "rigidity", "geometry-check",
            "lcl-eval", "abc-verify", "duality-check", "kummer", "pipeline",
            "roundtrip")
GROUP = {"rank": 2, "ell": 3, "relations": []}
CONFIG5 = {"p": 7, "ell": 3, "vars": 5,
           "universe": [{"var": i} for i in range(5)]}
X0 = {"num": {"vars": 2, "terms": [
    {"exp": [1, 0], "coef": {"level": 1, "coeffs": [1]}}]},
    "den": {"vars": 2, "terms": [
        {"exp": [0, 0], "coef": {"level": 1, "coeffs": [1]}}]}}
ONE = {"level": 1, "coeffs": [1]}
BAD_DECLS = ({}, {"var": 5}, {"var": -1}, {"var": "0"}, {"var": 2.0},
             {"linear": {}}, {"linear": {"9": 1}}, {"linear": {"x": 1}},
             {"linear": {"0": "1"}}, {"linear": {"0": 7}},
             {"linear": [1, 0]}, {"linear": {"0": 1}, "const": "c"},
             {"ratfunc": X0}, {"ratfunc": 1}, {"const": 1})


def _certify_term(exp, coef, nvars=2):
    """certify input whose one element is the term coef * t^exp."""
    return {"elements": [{
        "num": {"vars": nvars, "terms": [{"exp": exp, "coef": coef}]},
        "den": {"vars": nvars, "terms": [{"exp": [0] * nvars, "coef": ONE}]}}]}


def _origin_chain(symbol, second):
    """{t_i for i in symbol} on the chain t0 = 0, t1 = 0 with the
    uniformizers t0 and t1^a t0^b, for second = (a, b)."""
    ff = FunctionField(FieldTower(7, seed=0), 2)
    t = [ff.var(0), ff.var(1)]
    chain = encode_chain(coordinate_chain(ff, [0, 1], [0, 0]))
    a, b = second
    chain["uniformizers"][1] = encode_ratfunc(t[1] ** a * t[0] ** b)
    return {"symbol": [encode_ratfunc(t[i]) for i in symbol], "chain": chain}


def _bad_later_uniformizer():
    """{t0, t0} on the chain t0 = 0, t1 = 0 with uniformizers t0 and t1^2:
    the symbol is zero, its terms cancelling at the first step, but t1^2
    is no uniformizer at the second step."""
    return _origin_chain([0, 0], (2, 0))


def _step_at(var):
    """{t1} on the chain t1 = infinity, its step's variable replaced by
    var."""
    ff = FunctionField(FieldTower(7, seed=0), 2)
    payload = {"symbol": [encode_ratfunc(ff.var(1))],
               "chain": encode_chain(coordinate_chain(ff, [1], [INF]))}
    payload["chain"]["steps"][0]["var"] = var
    return payload


def _cover(**fields):
    """{t0} on the chain t0 = 0 pulled back along t0 = s^2, with the given
    fields of its cover replaced."""
    ff = FunctionField(FieldTower(7, seed=0), 2)
    chain = monomial_pullback(coordinate_chain(ff, [0], [ff.tower.zero()]),
                              [2])
    payload = {"symbol": [encode_ratfunc(ff.var(0))],
               "chain": encode_chain(chain)}
    payload["chain"]["covers"][0].update(fields)
    return payload


def _ram_indices(indices):
    """{t0} on the chain t0 = infinity, its ram_indices replaced by
    indices."""
    ff = FunctionField(FieldTower(7, seed=0), 2)
    payload = {"symbol": [encode_ratfunc(ff.var(0))],
               "chain": encode_chain(coordinate_chain(ff, [0], [INF]))}
    payload["chain"]["ram_indices"] = indices
    return payload


@pytest.mark.parametrize("command, payload", [
    ("dim", {}),
    ("dim", {"generators": 5}),
    ("symbol-eval", {}),
    ("symbol-eval", {"symbol": [], "chain": {}}),
    ("symbol-eval", {"symbol": [], "chain": {"steps": [{"var": 0}]}}),
    ("abc-verify", {}),
    ("abc-verify", {"group": {}}),
    ("abc-verify", {"group": GROUP, "h2": {}}),
    ("abc-verify", {"group": GROUP, "h2": {"n": 2}}),
    ("abc-verify", {"group": GROUP, "h2": {"n": 2, "ell": 4}}),
    ("abc-verify", {"group": GROUP, "h2": {"n": 1, "ell": 1}}),
    ("abc-verify", {"group": GROUP, "h2": {"n": 2, "ell": "3"}}),
    ("abc-verify", {"group": GROUP, "h2": {"n": -1, "ell": 3}}),
    ("symbol-eval", {"symbol": [], "chain": {
        "steps": [], "uniformizers": [], "ram_indices": [], "covers": [{}]}}),
    ("lattice-build", {}),
    ("lattice-build", {"subfields": [5]}),
    ("delta", {}),
    ("delta", {"generator": X0, "valuations": [{}]}),
    ("rigidity", {}),
    ("rigidity", {"ell": 3, "ambient_dim": 2, "fragments": [{}],
                  "phi": [[1, 0], [0, 1]]}),
    ("geometry-check", {}),
    ("geometry-check", {"geometry": {}}),
    ("geometry-check", {"geometry": {"points": [0]}}),
    ("lcl-eval", {}),
    ("lcl-eval", {"geometry": {"points": [0], "closed_sets": [[]]}}),
    ("duality-check", {}),
    ("duality-check", {"group": GROUP, "mult": {}}),
    ("kummer", {}),
    ("kummer", {"mult_k": {"n": 2, "ell": 3}, "mult_l": {"ell": 3}}),
    ("roundtrip", {}),
    # list fields whose entries are not rows of integers of the right length
    ("duality-check", {"group": GROUP, "mult": {"n": 2, "ell": 3,
                                                "kernel": [5]}}),
    ("duality-check", {"group": GROUP, "mult": {"n": 2, "ell": 3,
                                                "kernel": [["a"]]}}),
    ("duality-check", {"group": GROUP, "mult": {"n": 2, "ell": 0}}),
    ("duality-check", {"group": GROUP, "mult": {"n": -1, "ell": 3}}),
    ("abc-verify", {"group": {"rank": 2, "ell": 3, "relations": [7]}}),
    ("abc-verify", {"group": {"rank": 3, "ell": 3, "relations": [[1]]}}),
    ("rigidity", {"ell": 5, "ambient_dim": 2,
                  "fragments": [{"name": "A", "members": [5]}],
                  "phi": [[3, 0], [0, 3]]}),
    ("rigidity", {"ell": 5, "ambient_dim": 2,
                  "fragments": [{"name": "A", "members": [[1], [0]]}],
                  "phi": [[3, 0], [0, 3]]}),
    ("rigidity", {"ell": 5, "ambient_dim": 2, "fragments": [],
                  "phi": [3]}),
    ("rigidity", {"ell": 5, "ambient_dim": 2, "fragments": [],
                  "phi": [[3], [0]]}),
    ("kummer", {"mult_k": {"n": 2, "ell": 3}, "mult_l": {"n": 2, "ell": 3},
                "phi": [1]}),
    ("kummer", {"mult_k": {"n": 2, "ell": 3}, "mult_l": {"n": 2, "ell": 3},
                "phi": [[1]]}),
    ("kummer", {"mult_k": {"n": 2, "ell": 3}, "mult_l": {"n": 2, "ell": 3},
                "phi": [[1, 0], [0, 1]], "pairing_k": [1]}),
    # a composite ell, and configuration fields that are no integers
    ("pipeline", dict(CONFIG5, ell=4)),
    ("pipeline", dict(CONFIG5, max_rank="a")),
    ("pipeline", dict(CONFIG5, budget="a")),
    ("pipeline", dict(CONFIG5, seed=[1])),
    ("pipeline", dict(CONFIG5, vars="5")),
    ("pipeline", dict(CONFIG5, workers="2")),
    # permutations that do not rearrange range(vars)
    ("roundtrip", dict(CONFIG5, permutation=[0, 1])),
    ("roundtrip", dict(CONFIG5, permutation=[0, 0, 1, 2, 3])),
    ("roundtrip", dict(CONFIG5, permutation=[0, 1, 2, 3, "4"])),
    # JSON that is no object
    *((command, payload) for command in ("pipeline", "lattice-reconstruct",
                                         "roundtrip")
      for payload in ([], 3, "x")),
    # no input file: None writes none
    *((command, None) for command in COMMANDS),
    # exponents of the wrong length, negative or no integers, coefficients
    # that are no integers, a polynomial in another number of variables,
    # and a level too large to build, caught before it is built
    ("certify", _certify_term([1], ONE)),
    ("certify", _certify_term([1, -1], ONE)),
    ("certify", _certify_term([1.5, 0], ONE)),
    ("certify", _certify_term([1, 0], {"level": 1, "coeffs": ["a"]})),
    ("certify", _certify_term([1, 0, 0], ONE, nvars=3)),
    ("certify", _certify_term([1, 0], {"level": 1000000, "coeffs": [1]})),
    # a level above MAX_INPUT_LEVEL with the right number of coefficients,
    # which would take minutes to build
    ("certify", _certify_term([1, 0], {"level": 200, "coeffs": [1] * 200})),
    # a negative budget, on the command line or in the configuration of a
    # linear and of a nonlinear universe
    ("--budget=-1 certify", {"elements": [X0]}),
    ("--budget=-1 dim", {"generators": [X0]}),
    ("pipeline", dict(CONFIG5, budget=-1)),
    ("pipeline", dict(CONFIG5, budget=-1, universe=CONFIG5["universe"] + [
        {"ratfunc": {"num": {"vars": 5, "terms": [
            {"exp": [1, 1, 0, 0, 0], "coef": ONE}]},
            "den": {"vars": 5, "terms": [
                {"exp": [0, 0, 0, 0, 0], "coef": ONE}]}}}])),
    ("symbol-eval", _bad_later_uniformizer()),
    # an automatic universe that is no object, or whose fields have the
    # wrong type or sign, and a tower seed that is no integer
    *(("pipeline", dict(CONFIG5, **fields)) for fields in (
        {"auto_universe": [1]}, {"auto_universe": "yes"},
        {"auto_universe": None}, {"auto_universe": {"bertini_samples": "3"}},
        {"auto_universe": {"bertini_samples": 2.5}},
        {"auto_universe": {"bertini_samples": -1}},
        {"auto_universe": {"bertini_samples": True}},
        {"auto_universe": {"coordinates": 1}},
        {"tower_seed": "x"}, {"tower_seed": [1, 2]}, {"tower_seed": 1.0},
        {"tower_seed": True}, {"tower_seed": {"a": 1}})),
    # a malformed command line: argparse's own exit would be 2, the code
    # of an unknown answer
    ("--budget=x dim", {"generators": [X0]}),
    ("--no-such-flag dim", {"generators": [X0]}),
    ("dim --no-such-flag", {"generators": [X0]}),
    ("no-such-command", {}),
    # a chain step, a cover or a delta valuation naming a variable outside
    # 0..vars-1 (-1 once read as the last variable), and a cover exponent
    # that is not positive and prime to p
    ("symbol-eval", _step_at(5)),
    ("symbol-eval", _step_at(-1)),
    ("symbol-eval", _cover(var=5)),
    ("symbol-eval", _cover(var=-1)),
    ("symbol-eval", _cover(exp=0)),
    ("symbol-eval", _cover(exp=7)),
    ("delta", {"generator": X0, "valuations": [{"var": 7, "center": "inf"}]}),
    ("delta", {"generator": X0,
               "valuations": [{"var": -1, "center": "inf"}]}),
    # lcl-eval parameters that are no object or bind no point, formulas
    # that are no string, unbalanced or empty, and chains whose covers are
    # no list or with a uniformizer missing
    *(("lcl-eval", {"geometry": {"points": ["a"],
                                 "closed_sets": [[], ["a"]]}, **fields})
      for fields in ({"formula": "(cl x a)", "params": [1]},
                     {"formula": "(cl x y)", "params": {"y": [1]}},
                     {"formula": None}, {"formula": "("},
                     {"formula": "()"})),
    ("symbol-eval", dict(_cover(), chain=dict(_cover()["chain"],
                                              covers=None))),
    ("symbol-eval", dict(_cover(), chain=dict(_cover()["chain"],
                                              uniformizers=[]))),
    # a modulus that is no prime
    ("kummer", {"mult_k": {"n": 2, "ell": 6}, "mult_l": {"n": 2, "ell": 6},
                "phi": [[1, 1], [0, 1]]}),
    ("abc-verify", {"group": {"rank": 2, "ell": 4, "relations": []}}),
    ("duality-check", {"group": {"rank": 2, "ell": 4, "relations": []},
                       "mult": {"n": 2, "ell": 4}}),
    ("rigidity", {"ell": 4, "ambient_dim": 2,
                  "fragments": [{"name": "A", "members": [[1, 0], [0, 1]]}],
                  "phi": [[3, 0], [0, 3]]}),
    # a zero generator, whose class is undefined
    ("dim", {"generators": [{"num": {"vars": 2, "terms": []},
                             "den": X0["den"]}]}),
    # a fragment with no member, words that are neither a string nor a
    # list of [index, sign] letters, and ram indices that are not one
    # positive integer per chain step
    ("rigidity", {"ell": 5, "ambient_dim": 2,
                  "fragments": [{"name": "A", "members": []}],
                  "phi": [[3, 0], [0, 3]]}),
    ("abc-verify", {"group": GROUP, "words": [5]}),
    ("abc-verify", {"group": GROUP, "words": [None]}),
    ("abc-verify", {"group": GROUP, "words": [[["a", 1]]]}),
    ("symbol-eval", _ram_indices(["x", None, 3])),
    ("symbol-eval", _ram_indices([0])),
    ("symbol-eval", _ram_indices([1, 1])),
    # JSON booleans in a matrix field, which no integer field takes
    ("abc-verify", {"group": GROUP, "words": [[[True, True]]]}),
    ("kummer", {"mult_k": {"n": 2, "ell": 3}, "mult_l": {"n": 2, "ell": 3},
                "phi": [[True, False], [False, True]]}),
    # fragment members that are dependent mod ell, whose coordinates the
    # check cannot solve for
    ("rigidity", {"ell": 5, "ambient_dim": 2,
                  "fragments": [{"name": "A", "members": [[1, 0], [2, 0]]}],
                  "phi": [[3, 0], [0, 3]]}),
    # an exponent above MAX_INPUT_DEGREE: x/x^1000000, whose centre root
    # finding walked a dense polynomial of degree 999,999
    ("lattice-build", {"subfields": [[{"num": X0["num"], "den": {
        "vars": 2, "terms": [{"exp": [1000000, 0], "coef": ONE}]}}]]}),
    # a fragment name that is no string: with three fragments whose
    # epsilons differ, the report of a missing triangle sorted the names
    *(("rigidity", {"ell": 5, "ambient_dim": 3, "fragments": [
        {"name": "A", "members": [[1, 0, 0], [0, 1, 0]]},
        {"name": "B", "members": [[0, 0, 1]]},
        {"name": name, "members": [[1, 4, 0]]}],
        "phi": [[3, 0, 0], [0, 3, 0], [0, 0, 2]]})
      for name in (None, 7, ["C"], {"C": 1})),
    # a group rank above MAX_INPUT_RANK, and vars above MAX_INPUT_VARS on
    # the command line or in the pipeline configuration
    ("abc-verify", {"group": {"rank": 2000, "ell": 3}, "words": ["x1 x2"]}),
    ("duality-check", {"group": {"rank": 2000, "ell": 3},
                       "mult": {"n": 2000, "ell": 3}}),
    ("--vars=1000000 dim", {"generators": [X0]}),
    ("pipeline", dict(CONFIG5, vars=1000000)),
    # second uniformizers t0*t1 and t1*t0^3, which are no units at the step
    # t0 = 0 before theirs: {t0, t1} once evaluated to 1 on both chains
    ("symbol-eval", _origin_chain([0, 1], (1, 1))),
    ("symbol-eval", _origin_chain([0, 1], (1, 3))),
    # an automatic universe of more than MAX_AUTO_UNIVERSE subgroups: with
    # 200 pencil samples it ran for minutes
    ("pipeline", dict(CONFIG5, auto_universe={"coordinates": True,
                                              "bertini_samples": 200})),
    # JSON booleans in a permutation: on the coordinates the roundtrip ran
    # (exit 0, echoing them), and with a linear declaration it failed on
    # int("False")
    ("roundtrip", dict(CONFIG5, permutation=[True, False, 2, 3, 4])),
    ("roundtrip", dict(CONFIG5, permutation=[True, False, 2, 3, 4],
                       universe=CONFIG5["universe"]
                       + [{"linear": {"0": 1, "1": 1}}])),
    # every bad declaration, checked as the universe is built
    *((command, dict(CONFIG5, universe=CONFIG5["universe"] + [decl], **extra))
      for command, extra in (("pipeline", {}), ("lattice-reconstruct", {}),
                             ("roundtrip", {"permutation": [1, 0, 2, 3, 4]}))
      for decl in BAD_DECLS),
    # points listed twice, or equal under Python though distinct in JSON:
    # both once passed every axiom
    ("geometry-check", {"geometry": {"points": [1, True, "a"],
                                     "closed_sets": [[], [1], ["a"]]}}),
    ("geometry-check", {"geometry": {"points": ["a", "a", "b"],
                                     "closed_sets": [[], ["a"], ["b"]]}}),
    # lcl-eval formulas that are empty, unbalanced, a bare variable, a
    # quantifier without a body or an unknown connective, and a parameter
    # bound to no point
    *(("lcl-eval", {"geometry": {"points": ["a"],
                                 "closed_sets": [[], ["a"]]}, **fields})
      for fields in ({"formula": ""}, {"formula": ")"}, {"formula": "x"},
                     {"formula": "(exists x)"}, {"formula": "(foo x)"},
                     {"formula": "(cl x y)", "params": {"y": "z"}})),
    # a closed set naming an undeclared point, and a closure entry that is
    # no pair
    ("geometry-check", {"geometry": {"points": ["a"],
                                     "closed_sets": [[], ["b"]]}}),
    ("geometry-check", {"geometry": {"points": ["a"], "closure": [["a"]]}}),
    # words naming no generator x1, x2, ..., and a letter whose index is
    # outside the group's rank
    *(("abc-verify", {"group": GROUP, "words": [word]})
      for word in ("y1", "xa", [[5, 1]])),
])
def test_malformed_input_exits_3(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    code = main(["--vars", "2", *command.split(), str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE and captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    if "budget=-1" in command or '"budget": -1' in json.dumps(payload):
        assert "budget" in captured.err
    if any('"ell": %d' % ell in json.dumps(payload) for ell in (4, 6)):
        assert "prime" in captured.err


def test_certify_entry_with_a_constant_from_a_subfield(tmp_path, capsys):
    # t0 + c with c in F_49 but given at level 6, and t1: the straightened
    # trial centres t0 at -c, whose compress_key needs level 2, which the
    # tower had not built; this ended in a KeyError traceback
    tw = FieldTower(7, seed=0)
    tw.ensure_level(6)
    powers = (tw.element_from_index(6, k) ** ((7 ** 6 - 1) // 48)
              for k in range(2, 50))
    c = next(x for x in powers if x ** 7 != x)
    ff = FunctionField(tw, 2)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"elements": [
        encode_ratfunc(ff.var(0) + ff.const(c)), encode_ratfunc(ff.var(1))]}))
    code = main(["--vars", "2", "--verify", "certify", str(path)])
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_UNKNOWN)
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["result"] in ("certified", "unknown")


# t1 + g, with g the generator of F_49: a coefficient at level 2
X1_PLUS_G = {"num": {"vars": 2, "terms": [
    {"exp": [0, 0], "coef": {"level": 2, "coeffs": [0, 1]}},
    {"exp": [0, 1], "coef": ONE}]},
    "den": {"vars": 2, "terms": [{"exp": [0, 0], "coef": ONE}]}}
# t0*t1 in five variables, a nonlinear pipeline member
X0_X1 = {"num": {"vars": 5, "terms": [{"exp": [1, 1, 0, 0, 0], "coef": ONE}]},
         "den": {"vars": 5, "terms": [{"exp": [0, 0, 0, 0, 0], "coef": ONE}]}}
FUZZ_BASES = {
    "certify": {"elements": [X0, X1_PLUS_G]},
    "dim": {"generators": [X0, X1_PLUS_G]},
    "pipeline": dict(CONFIG5, universe=CONFIG5["universe"] + [
        {"linear": {"0": 1, "1": 1}, "const": 2}, {"ratfunc": X0_X1}]),
    "roundtrip": dict(CONFIG5, permutation=[1, 0, 2, 3, 4],
                      universe=CONFIG5["universe"] + [
                          {"linear": {"0": 1, "1": 1}, "const": 2},
                          {"ratfunc": X0_X1}]),
    # a second pipeline payload, named by its command and a word
    "pipeline auto": {"p": 7, "ell": 3, "vars": 5, "tower_seed": 3,
                      "auto_universe": {"coordinates": True,
                                        "bertini_samples": 2}},
    "symbol-eval": _cover(),
    "delta": {"generator": X1_PLUS_G, "valuations": [
        {"var": 0, "center": ONE}, {"var": 1, "center": "inf"}]},
    "lcl-eval": {"geometry": {"points": ["a", "b"],
                              "closed_sets": [[], ["a"], ["b"], ["a", "b"]]},
                 "formula": "(cl x y)", "params": {"y": "a"}},
    "lattice-build": {"subfields": [[X0], [X0, X1_PLUS_G]]},
    "lattice-reconstruct": dict(CONFIG5, universe=CONFIG5["universe"] + [
        {"linear": {"0": 1, "1": 1}}, {"ratfunc": X0_X1}]),
    # three fragments, so that the triangle code runs: e0 - e1 = (1, 4)
    # glues them
    "rigidity": {"ell": 5, "ambient_dim": 2, "fragments": [
        {"name": "A", "members": [[1, 0]]}, {"name": "B", "members": [[0, 1]]},
        {"name": "C", "members": [[1, 4]]}], "phi": [[3, 0], [0, 3]]},
    "geometry-check": {"geometry": {"points": ["a", "b", "c"], "closure": [
        [[], []], [["a"], ["a"]], [["b"], ["b"]], [["c"], ["c"]],
        [["a", "b"], ["a", "b", "c"]], [["a", "c"], ["a", "b", "c"]],
        [["b", "c"], ["a", "b", "c"]], [["a", "b", "c"], ["a", "b", "c"]]]}},
    "abc-verify": {"group": {"rank": 3, "ell": 3, "relations": [[1, 0, 0]]},
                   "words": ["x1 x2 x1^-1 x2^-1", [[0, 1], [2, -1]]],
                   "h2": {"n": 2, "ell": 3}},
    "duality-check": {"group": {"rank": 3, "ell": 3,
                                "relations": [[1, 0, 0]]},
                      "mult": {"n": 3, "ell": 3, "kernel": [[1, 0, 0]]}},
    "kummer": {"mult_k": {"n": 2, "ell": 3, "kernel": []},
               "mult_l": {"n": 2, "ell": 3, "kernel": []},
               "phi": [[1, 1], [0, 1]], "pairing_k": [[0, 1], [2, 0]]},
}
JSON_VALUES = (None, True, 0, -1, 2.5, "x", [], {})
BAD_INTS = (-1, 0, 1, 2, 4, 5, 16, 17, 257, 10 ** 6)
BAD_PERMUTATIONS = ([0, 0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 4, 5],
                    [0, 1, 2, 3, -1], [4, 3, 2, 1, "0"],
                    [0, 1, 2, 3, 4.0], "01234", {"0": 1})


def _slots(obj):
    """(container, key) of every value nested in a JSON value."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in list(items):
        yield obj, key
        yield from _slots(value)


def _mutate(draw, payload):
    """payload, edited in place by up to three mutations: a key dropped, a
    value of another JSON type, an integer field given another integer, an
    exponent of the wrong length or with a negative entry, a coefficient
    list of the wrong length for its level, a bad universe declaration, a
    bad permutation.  Every drawn value is copied, so no mutation edits the
    constants it is drawn from.  An integer inside a list, such as an
    exponent, is not replaced: root finding alone is slow at a high degree
    (dim of t0 and t1^16 + g, g of level 2, took 2 s)."""
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("drop", "retype", "exp", "coeffs",
                                     "decl", "permutation", "int")))
        slots = [(c, k) for c, k in _slots(payload)
                 if kind == "retype"
                 or kind == "drop" and isinstance(c, dict)
                 or kind == "int" and isinstance(k, str)
                 and type(c[k]) is int
                 or kind == "decl" and c is payload.get("universe")
                 or k == kind and isinstance(c[k], list)]
        if not slots:
            continue
        container, key = draw(st.sampled_from(slots))
        old = container[key]
        if kind == "drop":
            del container[key]
        elif kind == "decl":
            container[key] = copy.deepcopy(draw(st.sampled_from(BAD_DECLS)))
        elif kind == "permutation":
            container[key] = copy.deepcopy(
                draw(st.sampled_from(BAD_PERMUTATIONS)))
        elif kind == "int":
            container[key] = draw(st.sampled_from(BAD_INTS))
        elif kind == "retype":
            container[key] = copy.deepcopy(draw(st.sampled_from(
                [v for v in JSON_VALUES if type(v) is not type(old)])))
        elif kind == "exp" and draw(st.booleans()) and old:
            i = draw(st.integers(0, len(old) - 1))
            container[key] = old[:i] + [draw(st.integers(-3, -1))] + old[i + 1:]
        else:
            container[key] = draw(st.lists(st.integers(-3, 9), max_size=4)
                                  .filter(lambda v: len(v) != len(old)))
    return payload


@st.composite
def mutated_payloads(draw):
    """A valid payload of one of the fourteen subcommands (FUZZ_BASES),
    mutated by _mutate."""
    base = draw(st.sampled_from(sorted(FUZZ_BASES)))
    payload = _mutate(draw, copy.deepcopy(FUZZ_BASES[base]))
    return base.split()[0], payload


# On a 2-core Linux host the slowest base runs in 0.17 s (abc-verify's
# first call, which warms up its h2 solver; the pipeline base takes 0.02 s),
# and the slowest of 12,000 mutated payloads in 0.64 s (abc-verify with h2
# at n 5, the largest system inside the solver's budget).  A payload that
# runs eight times longer than that fails the fuzz.
FUZZ_DEADLINE_MS = 5000


@settings(max_examples=300, deadline=FUZZ_DEADLINE_MS)
@given(mutated_payloads())
def test_mutated_payloads_exit_cleanly(case):
    command, payload = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(payload))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--vars", "2", "--budget", "4", command, str(path)])
    assert code in (EXIT_OK, EXIT_UNKNOWN, EXIT_FAILURE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_FAILURE and (err.getvalue()
                                 or command in ("certify", "dim")):
        assert err.getvalue().startswith("error: ")
    elif code == EXIT_FAILURE:
        # pipeline and roundtrip report a too small universe, a failed
        # axiom or a transfer mismatch as a JSON object on stdout
        assert isinstance(json.loads(out.getvalue()), dict)


@pytest.mark.parametrize("command, payload", [
    ("dim", {"generators": [X0]}),
    ("certify", {"elements": [X0]}),
])
def test_composite_ell_exits_3(tmp_path, capsys, command, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main(["--vars", "2", "--ell", "4", command, str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE and captured.out == ""
    assert captured.err.startswith("error: ")


def test_roundtrip_rejects_a_repeated_index(tmp_path, capsys):
    # once reported as a universe with too few subgroups
    path = tmp_path / "in.json"
    path.write_text(json.dumps(dict(CONFIG5, permutation=[0, 0, 1, 2, 3])))
    code = main(["roundtrip", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_FAILURE and "permutation" in err


def test_p_power_mixture_is_no_vanishing_pair():
    from milnork.cli import _quadratic_fragment

    ff = FunctionField(FieldTower(3, seed=0), 2)
    ctx = KContext(ff, 2)
    x, y = ff.var(0), ff.var(1)
    (entry,) = _quadratic_fragment(ctx, [x, x + y ** 3], 64)["pairs"]
    assert entry["relation"] == "independent"
    assert decode_certificate(ff, entry["certificate"]).replay()


# {t0} on the chain t0 = 0 pulled back along t0 = s^2, where it takes the
# value 2 mod 3, with an identity transform
CERTIFICATE = {"statement": _cover()["symbol"], "chain": _cover()["chain"],
               "value": 2, "ell": 3, "transform": [[1, 0], [0, 1]]}
CERTIFICATE_FIELD = FunctionField(FieldTower(7, seed=0), 2)


@pytest.mark.parametrize("payload", [
    {},
    {"statement": [X0], "chain": {"steps": [], "uniformizers": [],
                                  "ram_indices": []}},
    {"statement": [X0], "chain": {"steps": [], "uniformizers": [],
                                  "ram_indices": []},
     "value": 1, "ell": 3, "transform": [[1, 0]]},
    # a modulus that is no prime: at ell 0 the value was reduced mod 0, a
    # ZeroDivisionError that the fuzz below found
    dict(CERTIFICATE, ell=0),
    dict(CERTIFICATE, ell=4),
])
def test_decode_certificate_rejects_malformed_input(payload):
    with pytest.raises(InputError):
        decode_certificate(CERTIFICATE_FIELD, payload)


def test_the_fuzzed_certificate_replays():
    assert decode_certificate(CERTIFICATE_FIELD, CERTIFICATE).replay()


@st.composite
def mutated_certificates(draw):
    return _mutate(draw, copy.deepcopy(CERTIFICATE))


@settings(max_examples=150, deadline=FUZZ_DEADLINE_MS)
@given(mutated_certificates())
def test_mutated_certificates_decode_or_raise_value_error(payload):
    # InputError, ChainError and NotUniformizer are all ValueErrors
    try:
        decode_certificate(CERTIFICATE_FIELD, payload)
    except ValueError:
        pass


def test_dim(run, enc2):
    tw, ff = enc2
    payload = {"generators": [encode_ratfunc(ff.var(0)),
                              encode_ratfunc(ff.var(1))]}
    code, out = run("dim", payload, extra=["--vars", "2"])
    assert code == EXIT_OK
    assert out == {"lower": 2, "upper": 2}
    # x and x + 1 have an F_p relation, a witnessed dependence, so x, x + 1
    # and y*z span 2, below the 3 variables they use
    ff3 = FunctionField(tw, 3)
    x, y, z = (ff3.var(i) for i in range(3))
    payload = {"generators": [encode_ratfunc(g)
                              for g in (x, x + ff3.const(1), y * z)]}
    code, out = run("dim", payload, extra=["--vars", "3"])
    assert code == EXIT_OK
    assert out == {"lower": 2, "upper": 2}


def test_help_exits_0(capsys):
    # malformed command lines exit 3, but asking for help is no error
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0 and "usage:" in capsys.readouterr().out


def test_lattice_build(run, enc2):
    tw, ff = enc2
    payload = {"subfields": [
        [encode_ratfunc(ff.var(0))],
        [encode_ratfunc(ff.var(0)), encode_ratfunc(ff.var(1))],
    ]}
    code, out = run("lattice-build", payload, extra=["--vars", "2"])
    assert code == EXIT_OK
    assert [n["rank"] for n in out["nodes"]] == [1, 2]


def test_lattice_reconstruct(run):
    payload = {
        "p": 7, "ell": 3, "vars": 5,
        "universe": [{"var": i} for i in range(5)],
    }
    code, out = run("lattice-reconstruct", payload)
    assert code == EXIT_OK
    ranks = [n["rank"] for n in out["lattice"]["nodes"]]
    assert ranks.count(1) == 5 and ranks.count(2) == 10 and ranks.count(3) == 10


@pytest.mark.parametrize("command", ["pipeline", "lattice-reconstruct"])
def test_dot_file_holds_the_covering_edges(run, tmp_path, command):
    # the coordinates plus t0+t1 and t2+t3: the --dot file has one node
    # line per lattice node and, as edges, exactly the pairs of nodes whose
    # sources are nested with no node strictly between them
    payload = {"p": 7, "ell": 3, "vars": 5,
               "universe": [{"var": i} for i in range(5)]
               + [{"linear": {"0": 1, "1": 1}}, {"linear": {"2": 1, "3": 1}}]}
    dot = tmp_path / "lattice.dot"
    code, out = run(command, payload, extra=["--dot", str(dot)])
    assert code == EXIT_OK
    lattice = out["lattice_fragment" if command == "pipeline" else "lattice"]
    sources = [set(n["sources"]) for n in lattice["nodes"]]
    nested = {(i, j) for i, a in enumerate(sources)
              for j, b in enumerate(sources) if a < b}
    assert nested == {tuple(e) for e in lattice["edges"]}
    covering = {(i, j) for i, j in nested
                if not any(sources[i] < c < sources[j] for c in sources)}
    lines = dot.read_text().splitlines()
    assert lines[0] == "digraph lattice {" and lines[-1] == "}"
    nodes = [line for line in lines if "[label=" in line]
    assert nodes == ['  n%d [label="%s (r=%d)"];' % (i, n["label"], n["rank"])
                     for i, n in enumerate(lattice["nodes"])]
    edges = [line for line in lines[1:-1] if line not in nodes]
    assert sorted(edges) == sorted("  n%d -> n%d;" % e for e in covering)
    assert len(edges) == len(covering) > 0


@pytest.mark.parametrize("command",
                         ["lattice-reconstruct", "pipeline", "roundtrip"])
def test_lattice_reconstruct_reports_an_unknown_set(run, command):
    # the coordinates plus xy and (xy)^2: {xy, (xy)^2} is dependent with no
    # witness, so the recovery exits 2 naming it, whichever command runs it
    ff = FunctionField(FieldTower(7, seed=0), 5)
    xy = ff.var(0) * ff.var(1)
    payload = {"p": 7, "ell": 3, "vars": 5, "budget": 16,
               "universe": [{"var": i} for i in range(5)]
               + [{"ratfunc": encode_ratfunc(xy)},
                  {"ratfunc": encode_ratfunc(xy ** 2)}]}
    if command == "roundtrip":
        payload["permutation"] = [1, 0, 2, 3, 4]
    code, out = run(command, payload)
    assert code == EXIT_UNKNOWN
    assert out == {"error": "dim-unknown", "candidates": [[5, 6]]}


def test_delta(run, enc2):
    tw, ff = enc2
    payload = {
        "generator": encode_ratfunc(ff.var(0)),
        "valuations": [
            {"var": 0, "center": {"level": 1, "coeffs": [0]}},
            {"var": 1, "center": {"level": 1, "coeffs": [0]}},
            {"var": 0, "center": "inf"},
        ],
    }
    code, out = run("delta", payload, extra=["--vars", "2"])
    assert code == EXIT_OK
    assert len(out["entries"]) == 2


def test_delta_at_a_centre_where_the_generator_is_constant(run, enc2):
    # at t0 = 3 the generator t0 is a unit with the constant residue 3,
    # and t0 - 3 vanishes there to order 1: the point 3 of k(t0), ram 1.
    # At t1 = 2 its residue t0 is no constant, so that valuation is
    # skipped
    tw, ff = enc2
    three = {"level": 1, "coeffs": [3]}
    payload = {
        "generator": encode_ratfunc(ff.var(0)),
        "valuations": [
            {"var": 0, "center": three},
            {"var": 1, "center": {"level": 1, "coeffs": [2]}},
            {"var": 0, "center": "inf"},
        ],
    }
    code, out = run("delta", payload, extra=["--vars", "2"])
    assert code == EXIT_OK
    assert out == {"entries": [
        {"var": 0, "center": three, "point": three, "ram": 1},
        {"var": 0, "center": "inf", "point": "inf", "ram": 1}]}


def test_rigidity(run):
    payload = {
        "ell": 5, "ambient_dim": 2,
        "fragments": [{"name": "A", "members": [[1, 0], [0, 1]]}],
        "phi": [[3, 0], [0, 3]],
    }
    code, out = run("rigidity", payload)
    assert code == EXIT_OK and out == {"result": "epsilon", "epsilon": 3}
    payload["phi"] = [[0, 1], [1, 0]]
    code, out = run("rigidity", payload)
    assert code == EXIT_FAILURE and out["result"] == "rejected"
    payload["fragments"] = []
    code, out = run("rigidity", payload)
    assert code == EXIT_FAILURE
    assert out == {"result": "rejected", "kind": "no-fragments", "details": {}}


@pytest.mark.parametrize("fragments, phi, components", [
    # three fragments, each pair of members independent, no difference a
    # member: every fragment is a component of its own
    ([[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]], [2, 3, 4],
     [["A"], ["B"], ["C"]]),
    # e0 - e1 = (1, 4, 0) glues A, B and C, which share the epsilon 2
    ([[[1, 0, 0]], [[0, 1, 0]], [[1, 4, 0]], [[0, 0, 1]]], [2, 2, 3],
     [["A", "B", "C"], ["D"]]),
])
def test_rigidity_reports_the_components_the_triangles_leave(
        run, fragments, phi, components):
    payload = {
        "ell": 5, "ambient_dim": 3,
        "fragments": [{"name": "ABCD"[i], "members": m}
                      for i, m in enumerate(fragments)],
        "phi": [[phi[i] if i == j else 0 for j in range(3)]
                for i in range(3)],
    }
    code, out = run("rigidity", payload)
    assert code == EXIT_FAILURE
    assert out == {"result": "rejected", "kind": "missing-triangle",
                   "details": {"components": components}}


def test_geometry_check_and_lcl(run):
    table = [
        [[], []],
        [["a"], ["a"]], [["b"], ["b"]], [["c"], ["c"]],
        [["a", "b"], ["a", "b", "c"]],
        [["a", "c"], ["a", "b", "c"]],
        [["b", "c"], ["a", "b", "c"]],
        [["a", "b", "c"], ["a", "b", "c"]],
    ]
    geometry = {"points": ["a", "b", "c"], "closure": table}
    code, out = run("geometry-check", {"geometry": geometry})
    assert code == EXIT_OK
    assert all(v["pass"] for v in out["report"].values())
    code, out = run("lcl-eval", {"geometry": geometry, "formula": "(cl x a b)"})
    assert code == EXIT_OK
    assert sorted(t[0] for t in out["tuples"]) == ["a", "b", "c"]
    # x and a span every point exactly when x is not a; forall agrees with
    # not exists not
    for formula in ("(forall y (cl y x a))",
                    "(not (exists y (not (cl y x a))))"):
        code, out = run("lcl-eval", {"geometry": geometry,
                                     "formula": formula})
        assert code == EXIT_OK
        assert out == {"free": ["x"], "tuples": [["b"], ["c"]]}


def test_geometry_check_mixed_point_types(run):
    # a witness over points of two JSON types is still encoded, sorted by
    # the type name of each point first
    code, out = run("geometry-check", {"geometry": {"points": ["a", 1],
                                                    "closed_sets": []}})
    assert code == EXIT_FAILURE
    assert out["report"]["geometry"]["witness"] == {
        "reason": "cl(empty) not empty", "got": [1, "a"]}
    # so are lcl-eval's tuples, whose plain sort compared 1 with "a" and
    # raised TypeError
    code, out = run("lcl-eval", {"geometry": {
        "points": ["a", 1], "closed_sets": [[], ["a"], [1]]},
        "formula": "(cl x x)"})
    assert code == EXIT_OK
    assert out == {"free": ["x"], "tuples": [[1], ["a"]]}


def _table_value(table, subset):
    return next((set(v) for k, v in table if set(k) == set(subset)), None)


@pytest.mark.parametrize("entries, reason", [
    # {a, b} is not a fixed point of the table
    ([[["a"], ["a", "b"]]], "cl not idempotent"),
    # {a} lies in the fixed points {a, b} and {a, c}, the first of which
    # does not hold cl(a) = {a, b, c}
    ([[["a"], ["a", "b", "c"]], [["a", "b"], ["a", "b"]]], "cl not monotone"),
    ([[["b"], ["c"]]], "A not in cl(A)"),
])
def test_closure_table_that_is_no_closure_operator(run, tmp_path, capsys,
                                                   entries, reason):
    table = [[[], []], [["a"], ["a"]], [["b"], ["b"]], [["c"], ["c"]],
             [["a", "c"], ["a", "c"]], [["a", "b", "c"], ["a", "b", "c"]]]
    keys = [set(k) for k, _ in entries]
    table = [e for e in table if set(e[0]) not in keys] + entries
    geometry = {"points": ["a", "b", "c"], "closure": table}
    code, out = run("geometry-check", {"geometry": geometry})
    assert code == EXIT_FAILURE
    closure = out["report"]["closure"]
    assert closure["pass"] is False
    witness = closure["witness"]
    assert witness["reason"] == reason
    # replay the witness against the table alone
    A = set(witness["A"])
    clA = _table_value(table, A)
    if reason == "A not in cl(A)":
        assert not A <= clA
    elif reason == "cl not idempotent":
        assert _table_value(table, clA) != clA
    else:
        B = set(witness["B"])
        assert A <= B and _table_value(table, B) == B and not clA <= B
    path = tmp_path / "lcl.json"
    path.write_text(json.dumps({"geometry": geometry, "formula": "(cl x a)"}))
    code = main(["lcl-eval", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE and captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_abc_verify(run):
    payload = {
        "group": {"rank": 2, "ell": 3, "relations": []},
        "words": ["x1 x2 x1^-1 x2^-1"],
        "h2": {"n": 2, "ell": 3},
    }
    code, out = run("abc-verify", payload)
    assert code == EXIT_OK
    assert out["kernel_dim"] == 0 and out["h2_dim"] == 3
    assert out["normal_forms"][0]["central"] == [1]


def test_duality_check_cli(run):
    payload = {
        "group": {"rank": 3, "ell": 3, "relations": [[1, 0, 0]]},
        "mult": {"n": 3, "ell": 3, "kernel": [[1, 0, 0]]},
    }
    code, out = run("duality-check", payload)
    assert code == EXIT_OK and out["passed"]
    payload["mult"]["kernel"] = []
    code, out = run("duality-check", payload)
    assert code == EXIT_FAILURE and not out["passed"]


def test_kummer_cli(run):
    payload = {
        "mult_k": {"n": 2, "ell": 3, "kernel": []},
        "mult_l": {"n": 2, "ell": 3, "kernel": []},
        "phi": [[1, 1], [0, 1]],
    }
    code, out = run("kummer", payload)
    assert code == EXIT_OK
    assert out["psi"] == [[1, 0], [1, 1]]


MULT2 = {"n": 2, "ell": 3, "kernel": []}
IDENTITY2 = [[1, 0], [0, 1]]


@pytest.mark.parametrize("command, payload, reason", [
    # fragments of another n, or of another ell, than the first
    ("kummer", {"mult_k": MULT2, "mult_l": {"n": 3, "ell": 3},
                "phi": IDENTITY2}, "fragment shapes disagree"),
    ("kummer", {"mult_k": MULT2, "mult_l": {"n": 2, "ell": 5},
                "phi": IDENTITY2}, "fragment shapes disagree"),
    ("kummer", {"mult_k": MULT2, "mult_l": MULT2, "phi": [[1, 1], [1, 1]]},
     "phi is not invertible"),
    # phi sends the zero kernel into the line of mult_l, but not back
    ("kummer", {"mult_k": MULT2, "mult_l": {"n": 2, "ell": 3,
                                            "kernel": [[1]]},
                "phi": IDENTITY2}, "phi inverse does not send the kernel back"),
    ("kummer", {"mult_k": MULT2, "mult_l": MULT2, "phi": IDENTITY2,
                "pairing_l": [[1, 1], [1, 1]]}, "pairings must be perfect"),
    ("duality-check", {"group": {"rank": 3, "ell": 3, "relations": []},
                       "mult": MULT2}, "fragment shapes disagree"),
    ("duality-check", {"group": {"rank": 2, "ell": 5, "relations": []},
                       "mult": MULT2}, "fragment shapes disagree"),
])
def test_incompatible_fragments_exit_3(tmp_path, capsys, command, payload,
                                       reason):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE and captured.out == ""
    assert captured.err == "error: %s\n" % reason


PIPELINE_UNIVERSE = [
    {"var": 0}, {"var": 1}, {"var": 2}, {"var": 3}, {"var": 4},
    {"linear": {"0": 1, "1": 1}},
    {"linear": {"0": 1, "2": 1}},
]


def test_pipeline_cli(run):
    payload = {"p": 7, "ell": 3, "vars": 5, "seed": 4,
               "universe": PIPELINE_UNIVERSE}
    code, out = run("pipeline", payload, extra=["--verify"])
    assert code == EXIT_OK
    assert all(v["pass"] for v in out["axiom_report"].values())
    assert len(out["geometry"]["points"]) == 7
    relations = {tuple(e["pair"]): e["relation"]
                 for e in out["kring_fragment"]["pairs"]}
    assert relations[(0, 1)] == "independent"


def test_pipeline_insufficient_universe(run):
    payload = {"p": 7, "ell": 3, "vars": 5, "universe": [{"var": 0}]}
    code, out = run("pipeline", payload)
    assert code == EXIT_FAILURE
    assert out["error"] == "insufficient-universe"


def test_roundtrip_cli(run):
    payload = {"p": 7, "ell": 3, "vars": 5, "seed": 4,
               "universe": PIPELINE_UNIVERSE,
               "permutation": [1, 0, 2, 3, 4]}
    code, out = run("roundtrip", payload)
    assert code == EXIT_OK
    assert out["lattices_isomorphic"] and out["points_transferred"] == 7


def test_out_flag_writes_canonical_json(tmp_path):
    payload = {"generators": []}
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"generators": []}))
    dst = tmp_path / "out.json"
    code = main(["--vars", "2", "--out", str(dst), "dim", str(src)])
    assert code == EXIT_OK
    text = dst.read_text()
    assert text.endswith("\n") and '"lower":0' in text.replace(" ", "")


def test_roundtrip_keeps_max_rank(run):
    # both runs recover the rank-4 layer: a permuted run that dropped
    # max_rank would miss its flat [0, 1, 2, 3, 5, 6] (exit 3)
    payload = {"p": 7, "ell": 3, "vars": 5, "max_rank": 4,
               "universe": [{"var": i} for i in range(5)]
               + [{"linear": {"0": 1, "1": 1}}, {"linear": {"2": 1, "3": 1}}],
               "permutation": [4, 0, 1, 2, 3]}
    code, out = run("roundtrip", payload)
    assert code == EXIT_OK, out
    assert out["lattices_isomorphic"] and out["points_transferred"] == 7


def test_roundtrip_identity_permutation(run):
    payload = {"p": 7, "ell": 3, "vars": 5, "seed": 4,
               "universe": PIPELINE_UNIVERSE,
               "permutation": [0, 1, 2, 3, 4]}
    code, out = run("roundtrip", payload)
    assert code == EXIT_OK and out["artifacts_equal"]


def test_pipeline_config_validation():
    from milnork.cli import PipelineConfig

    with pytest.raises(ValueError):
        PipelineConfig({"p": 3, "ell": 3, "vars": 5})
    with pytest.raises(ValueError):
        PipelineConfig({"p": 7, "ell": 3, "vars": 1})
    with pytest.raises(ValueError):
        PipelineConfig({"p": 7, "ell": 3, "vars": 5, "max_rank": 5})
    cfg = PipelineConfig({"p": 7, "ell": 3, "vars": 4})
    with pytest.raises(ValueError):
        cfg.require_vars(5, "the full pipeline")


def test_pipeline_auto_universe(run):
    # the coordinates and three pencil samples t_i + t_j
    payload = {"p": 7, "ell": 3, "vars": 5,
               "auto_universe": {"bertini_samples": 3}}
    code, out = run("pipeline", payload, extra=["--verify"])
    assert code == EXIT_OK
    assert out["config"]["universe_size"] == 8
    assert all(v["pass"] for v in out["axiom_report"].values())


def test_empty_auto_universe_takes_the_defaults(run, tmp_path, capsys):
    # {} asks for the defaults, the coordinates and no pencil samples; it
    # used to read as no automatic universe at all (exit 3)
    config = {"p": 7, "ell": 3, "vars": 5, "auto_universe": {}}
    code, out = run("pipeline", config, extra=["--verify"])
    assert code == EXIT_OK
    assert out["config"]["universe_size"] == 5
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(dict(config, permutation=[1, 0, 2, 3, 4])))
    assert main(["roundtrip", str(path)]) == EXIT_FAILURE
    assert "needs an explicit universe" in capsys.readouterr().err


def test_tower_seed_flag_reaches_pipeline_and_roundtrip(run, monkeypatch):
    # --tower-seed fills the configuration's tower_seed, and the
    # configuration's own field wins over it
    from milnork import cli

    config = {"p": 7, "ell": 3, "vars": 5,
              "universe": [{"var": i} for i in range(5)]}
    for data, seed in ((config, 5), (dict(config, tower_seed=2), 2)):
        code, out = run("pipeline", data, extra=["--tower-seed", "5"])
        assert code == EXIT_OK and out["tower"]["seed"] == seed
    seeds = []
    roundtrip = cli.run_roundtrip

    def spy(config, permutation):
        seeds.append(config.tower_seed)
        return roundtrip(config, permutation)

    monkeypatch.setattr(cli, "run_roundtrip", spy)
    for data in (config, dict(config, tower_seed=2)):
        code, out = run("roundtrip", dict(data, permutation=[1, 0, 2, 3, 4]),
                        extra=["--tower-seed", "5"])
        assert code == EXIT_OK and out["lattices_isomorphic"]
    assert seeds == [5, 2]


def test_pipeline_nonlinear_universe_pins_its_unknown_set(run, monkeypatch):
    # the coordinates plus xy and (xy)^2: {xy, (xy)^2} is dependent with no
    # witness, so the recovery stops at it.  Every generator is a monomial,
    # so a set is independent exactly when the rank over Q of its exponent
    # vectors is its size, the oracle for every answer given before that.
    from milnork import lattice

    ff = FunctionField(FieldTower(7, seed=0), 5)
    xy = ff.var(0) * ff.var(1)
    exponents = [[int(i == j) for j in range(5)] for i in range(5)]
    exponents += [[1, 1, 0, 0, 0], [2, 2, 0, 0, 0]]
    answered = []
    independent = lattice.Universe.independent

    def spy(self, indices):
        out = independent(self, indices)
        answered.append((frozenset(indices), out))
        return out

    monkeypatch.setattr(lattice.Universe, "independent", spy)
    payload = {"p": 7, "ell": 3, "vars": 5, "budget": 16,
               "universe": [{"var": i} for i in range(5)]
               + [{"ratfunc": encode_ratfunc(xy)},
                  {"ratfunc": encode_ratfunc(xy ** 2)}]}
    code, out = run("pipeline", payload)
    assert code == EXIT_UNKNOWN
    assert out == {"error": "dim-unknown", "candidates": [[5, 6]]}
    assert len(answered) >= 40
    for key, got in answered:
        rank = _rank_over_q([exponents[i] for i in key])
        assert got == (rank == len(key)), sorted(key)


def _renamed(decl, sigma):
    """A universe declaration with t_i written t_sigma(i), on its JSON."""
    if "var" in decl:
        return {"var": sigma[decl["var"]]}
    if "linear" in decl:
        return dict(decl, linear={str(sigma[int(i)]): c
                                  for i, c in decl["linear"].items()})

    def poly(f):
        terms = []
        for t in f["terms"]:
            exp = [0] * len(sigma)
            for i, e in enumerate(t["exp"]):
                exp[sigma[i]] = e
            terms.append(dict(t, exp=exp))
        return dict(f, terms=terms)

    return {"ratfunc": {k: poly(f) for k, f in decl["ratfunc"].items()}}


def _nonlinear_ci_config():
    """The first input of CI's "Nonlinear pipeline verify": the
    coordinates plus t0+t1, t0*t1 and t2*t3+1 at budget 32."""
    ff = FunctionField(FieldTower(7, seed=0), 5)
    t = [ff.var(i) for i in range(5)]
    return {"p": 7, "ell": 3, "vars": 5, "budget": 32,
            "universe": [{"var": i} for i in range(5)]
            + [{"linear": {"0": 1, "1": 1}}]
            + [{"ratfunc": encode_ratfunc(g)}
               for g in (t[0] * t[1], t[2] * t[3] + ff.one())]}


@pytest.mark.parametrize("case", ["linear", "nonlinear"])
def test_a_permuted_run_is_the_run_of_the_renamed_declarations(case):
    # run_pipeline composes each decoded generator with t_i -> t_sigma(i);
    # renaming the variables of the declarations by hand gives the same
    # artifacts
    from milnork.cli import PipelineConfig, run_pipeline

    if case == "linear":
        config = {"p": 7, "ell": 3, "vars": 5, "seed": 4,
                  "universe": PIPELINE_UNIVERSE
                  + [{"linear": {"1": 2, "3": 1}, "const": 3}]}
        sigma = [4, 0, 1, 2, 3]
    else:
        config, sigma = _nonlinear_ci_config(), [1, 0, 2, 3, 4]
    renamed = dict(config, universe=[_renamed(d, sigma)
                                     for d in config["universe"]])
    permuted, _ = run_pipeline(PipelineConfig(config), sigma)
    direct, _ = run_pipeline(PipelineConfig(renamed))
    assert permuted == direct
    assert permuted != run_pipeline(PipelineConfig(config))[0]


def test_roundtrip_permutes_ratfunc_declarations(run):
    # the permuted run composes every generator, whatever its declaration:
    # a ratfunc member once exited 3 with "cannot permute declaration"
    payload = dict(_nonlinear_ci_config(), permutation=[1, 0, 2, 3, 4])
    code, out = run("roundtrip", payload)
    assert code == EXIT_OK, out
    assert out["lattices_isomorphic"] and out["points_transferred"] == 8


def test_a_vanishing_pair_inside_a_certified_set_is_not_independent(run):
    # x = t0+1 and y = x (t1 t2 + 1)^3: {x, y} = {x, x} + 3 {x, t1 t2 + 1}
    # = {x, -1}, which is 0 mod 3 as -1 is a cube.  x and y are
    # algebraically independent, and the Universe says so by a certified
    # superset, whose certificate is shifted: it certifies the translates
    # x - 1 and y - 1.  So the kring relation of the pair may not be read
    # off that record as "independent".
    from milnork.cli import PipelineConfig, run_pipeline

    ff = FunctionField(FieldTower(7, seed=0), 5)
    x = ff.var(0) + ff.one()
    y = x * (ff.var(1) * ff.var(2) + ff.one()) ** 3
    payload = {"p": 7, "ell": 3, "vars": 5, "budget": 64,
               "universe": [{"var": i} for i in range(5)]
               + [{"ratfunc": encode_ratfunc(g)} for g in (x, y)]}
    code, out = run("pipeline", payload, extra=["--verify"])
    assert code == EXIT_OK
    relations = {tuple(e["pair"]): e["relation"]
                 for e in out["kring_fragment"]["pairs"]}
    assert relations[5, 6] != "independent"
    _, (_, universe, _, _) = run_pipeline(PipelineConfig(payload))
    assert universe.independent([5, 6])


def test_nonlinear_pipeline_certificates_ignore_the_config_seed(run):
    # the certificate search is seed-free, so the config seed reaches no
    # serialized certificate, not even on the pairs with the nonlinear
    # entry xy
    ff = FunctionField(FieldTower(7, seed=0), 5)
    xy = ff.var(0) * ff.var(1)
    outs = []
    for seed in (1, 999):
        payload = {"p": 7, "ell": 3, "vars": 5, "budget": 32, "seed": seed,
                   "universe": [{"var": i} for i in range(5)]
                   + [{"linear": {"0": 1, "1": 1}},
                      {"ratfunc": encode_ratfunc(xy)}]}
        code, out = run("pipeline", payload, extra=["--verify"])
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]
    relations = {tuple(e["pair"]): e["relation"]
                 for e in outs[0]["kring_fragment"]["pairs"]}
    assert relations[(2, 6)] == relations[(4, 6)] == "independent"


def _rank_over_q(rows):
    """The rank over Q of integer rows, by Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_linear_pipeline_runs_no_search(run, monkeypatch):
    # the universe decides linear sets by F_p rank, and an independent
    # linear kring pair is certified by its straightened trial
    searches = []
    for name in ("certificate_search", "canonical_certificate"):
        monkeypatch.setattr(KContext, name,
                            lambda *a, _n=name, **kw: searches.append(_n))
    payload = {"p": 7, "ell": 3, "vars": 5, "seed": 4,
               "universe": PIPELINE_UNIVERSE}
    code, out = run("pipeline", payload, extra=["--verify"])
    assert code == EXIT_OK and searches == []
    assert [e["relation"] for e in out["kring_fragment"]["pairs"]] == [
        "independent"] * 21


@pytest.mark.parametrize("mutation", ["answer", "relation", "certificate"])
def test_verify_rejects_a_corrupted_universe_record(tmp_path, capsys,
                                                    monkeypatch, mutation):
    from milnork import cli, lattice

    ff = FunctionField(FieldTower(7, seed=0), 5)
    xy = ff.var(0) * ff.var(1)
    payload = {"p": 7, "ell": 3, "vars": 5, "budget": 32,
               "universe": [{"var": i} for i in range(5)]
               + [{"linear": {"0": 1, "1": 1}},
                  {"ratfunc": encode_ratfunc(xy)}]}
    how = {"answer": lattice.RANK, "relation": lattice.RELATION,
           "certificate": lattice.CERTIFIED}[mutation]
    corrupted = []
    run_pipeline = cli.run_pipeline

    def corrupt(config):
        artifacts, extras = run_pipeline(config)
        records = extras[1]._records
        assert extras[1].replay() == []
        key = min((k for k, r in records.items() if r.how == how), key=sorted)
        rec = records[key]
        if mutation == "answer":
            rec = rec._replace(answer=False)
        elif mutation == "relation":
            rec = rec._replace(witness=(rec.witness[0] + 1,)
                               + tuple(rec.witness[1:]))
        else:
            rec.witness.value = rec.witness.ell - rec.witness.value
        records[key] = rec
        corrupted.append(sorted(key))
        return artifacts, extras

    monkeypatch.setattr(cli, "run_pipeline", corrupt)
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(payload))
    code = main(["--verify", "pipeline", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_FAILURE and captured.err == ""
    assert json.loads(captured.out) == {"error": "record-replay-failed",
                                        "key": corrupted[0]}


def test_certify_verify_reports_a_certificate_that_does_not_replay(
        run, enc2, monkeypatch):
    # the search's certificate with its value changed to the other unit
    # mod 3 no longer evaluates to it along its chain
    tw, ff = enc2
    search = KContext.certificate_search

    def corrupt(self, *args, **kw):
        cert = search(self, *args, **kw)
        cert.value = cert.ell - cert.value
        return cert

    monkeypatch.setattr(KContext, "certificate_search", corrupt)
    payload = {"elements": [encode_ratfunc(ff.var(0)),
                            encode_ratfunc(ff.var(1))]}
    code, out = run("certify", payload, extra=["--vars", "2", "--verify"])
    assert code == EXIT_FAILURE and out == {"result": "replay-failed"}


def test_pipeline_verify_reports_a_kring_certificate_that_does_not_replay(
        run, monkeypatch):
    # the first kring certificate of the artifacts with its value changed
    # to the other unit mod 3
    from milnork import cli

    run_pipeline = cli.run_pipeline
    corrupted = []

    def corrupt(config):
        artifacts, extras = run_pipeline(config)
        entry = next(e for e in artifacts["kring_fragment"]["pairs"]
                     if "certificate" in e)
        cert = entry["certificate"]
        cert["value"] = cert["ell"] - cert["value"]
        corrupted.append(entry["pair"])
        return artifacts, extras

    monkeypatch.setattr(cli, "run_pipeline", corrupt)
    payload = {"p": 7, "ell": 3, "vars": 5, "universe": PIPELINE_UNIVERSE}
    code, out = run("pipeline", payload, extra=["--verify"])
    assert code == EXIT_FAILURE
    assert out == {"error": "certificate-replay-failed",
                   "pair": corrupted[0]}


@pytest.mark.parametrize("plant", ["swap", "singular"])
def test_pipeline_verify_ties_each_kring_certificate_to_its_pair(
        run, monkeypatch, plant):
    # each planted certificate still replays: the certificates of the first
    # two certified pairs swapped, so that each states the other pair's
    # symbol; or the transform of the first, [t0, t1], made singular by
    # sending t2, t3 and t4 to 0, under which its statement {t0, t1} is
    # still the image of its pair
    from milnork import cli

    run_pipeline = cli.run_pipeline
    planted = []

    def plant_one(config):
        artifacts, extras = run_pipeline(config)
        a, b = [e for e in artifacts["kring_fragment"]["pairs"]
                if "certificate" in e][:2]
        if plant == "swap":
            a["certificate"], b["certificate"] = (b["certificate"],
                                                  a["certificate"])
        else:
            assert a["pair"] == [0, 1]
            a["certificate"]["transform"] = [[int(i == j < 2)
                                              for j in range(5)]
                                             for i in range(5)]
        assert all(decode_certificate(extras[0].field, e["certificate"])
                   .replay() for e in (a, b))
        planted.append(a["pair"])
        return artifacts, extras

    monkeypatch.setattr(cli, "run_pipeline", plant_one)
    payload = {"p": 7, "ell": 3, "vars": 5, "universe": PIPELINE_UNIVERSE}
    code, out = run("pipeline", payload, extra=["--verify"])
    assert code == EXIT_FAILURE
    assert out == {"error": "certificate-replay-failed", "pair": planted[0]}


def test_pipeline_verify_ties_each_universe_certificate_to_its_set(
        run, monkeypatch):
    # the certificates of two CERTIFIED records of the CI nonlinear input
    # swapped: each still replays, but states the symbol of translates of
    # the other set, so neither record replays
    from milnork import cli
    from milnork.lattice import CERTIFIED

    run_pipeline = cli.run_pipeline
    keys = [frozenset({0, 1, 2, 4, 7}), frozenset({2, 4, 5, 6, 7})]
    universes = []

    def swapped(config):
        artifacts, extras = run_pipeline(config)
        records = extras[1]._records
        a, b = (records[key] for key in keys)
        assert a.how == b.how == CERTIFIED
        assert a.witness.replay() and b.witness.replay()
        records[keys[0]] = a._replace(witness=b.witness)
        records[keys[1]] = b._replace(witness=a.witness)
        universes.append(extras[1])
        return artifacts, extras

    monkeypatch.setattr(cli, "run_pipeline", swapped)
    code, out = run("pipeline", _nonlinear_ci_config(), extra=["--verify"])
    assert code == EXIT_FAILURE
    assert out == {"error": "record-replay-failed", "key": [0, 1, 2, 4, 7]}
    assert universes[0].replay() == sorted(keys, key=sorted)


@pytest.mark.parametrize("plant", ["node", "flat", "point"])
def test_roundtrip_reports_a_transfer_mismatch(run, monkeypatch, plant):
    # one fault planted in the permuted run for each check of the transfer:
    # a lattice node with no counterpart, a flat missing from the geometry
    # (so the full point set is a flat on one side only), or a point map
    # that swaps two points instead of following the permutation
    from milnork import cli, geometry

    run_pipeline = cli.run_pipeline
    transfer = geometry.transfer_isomorphism
    runs = []

    def second_run_broken(config, permutation=None):
        artifacts, (ctx, universe, lat, geom) = run_pipeline(config,
                                                             permutation)
        if runs and plant == "node":
            lat.nodes.pop()
        if runs and plant == "flat":
            geom = geometry.ClosureGeometry(geom.points, geom.flats[:-1])
        runs.append((lat, geom))
        return artifacts, (ctx, universe, lat, geom)

    def swapped(*args, **kw):
        ptmap = transfer(*args, **kw)
        a, b = list(ptmap)[:2]
        ptmap[a], ptmap[b] = ptmap[b], ptmap[a]
        return ptmap

    monkeypatch.setattr(cli, "run_pipeline", second_run_broken)
    if plant == "point":
        monkeypatch.setattr(geometry, "transfer_isomorphism", swapped)
    payload = {"p": 7, "ell": 3, "vars": 5, "seed": 4,
               "universe": PIPELINE_UNIVERSE, "permutation": [1, 0, 2, 3, 4]}
    code, out = run("roundtrip", payload)
    (lat1, geom1), (lat2, geom2) = runs
    if plant == "node":
        missing, = (n for n in lat1.nodes if n not in lat2.nodes)
        witness = {"missing": sorted(missing.sources)}
    elif plant == "flat":
        witness = {"reason": "closure broken",
                   "A": sorted(x.label for x in geom1.flats[-1])}
    else:
        witness = {"point": sorted(geom1.points[0].sources)}
    assert code == EXIT_FAILURE
    assert out == {"error": "transfer-mismatch", "witness": witness}


def test_a_repeated_declaration_is_kept_once(run):
    # t0 declared three times, once as the linear form 1*t0: the universe
    # holds the five coordinates once each, labelled u0 to u4 in order of
    # first declaration, and the pipeline gives the artifacts of the five
    # coordinates declared once
    from milnork.cli import PipelineConfig, build_universe

    decls = [{"var": 0}, {"var": 1}, {"linear": {"0": 1}}, {"var": 2},
             {"var": 0}, {"var": 3}, {"var": 4}]
    config = PipelineConfig(dict(CONFIG5, universe=decls))
    subs = build_universe(config.context(), config)
    assert [(s.label, s.coordinate_index) for s in subs] == [
        ("u%d" % i, i) for i in range(5)]
    code, out = run("pipeline", dict(CONFIG5, universe=decls))
    assert code == EXIT_OK and out["config"]["universe_size"] == 5
    assert out == run("pipeline", CONFIG5)[1]


def test_pencil_samples_past_every_pair_take_coefficient_2():
    # four variables have six pairs: after the coordinates, samples one to
    # six are t_i + t_j and samples seven and eight start over with
    # coefficient 2
    from milnork.cli import PipelineConfig, build_universe

    config = PipelineConfig({"p": 7, "ell": 3, "vars": 4, "auto_universe": {
        "coordinates": True, "bertini_samples": 8}})
    ctx = config.context()
    t, two = [ctx.field.var(i) for i in range(4)], ctx.field.const(2)
    want = t + [t[0] + t[1], t[0] + t[2], t[0] + t[3], t[1] + t[2],
                t[1] + t[3], t[2] + t[3], t[0] + two * t[1], t[0] + two * t[2]]
    subs = build_universe(ctx, config)
    assert [s.label for s in subs] == ["u%d" % k for k in range(12)]
    assert [s.gen.key() for s in subs] == [g.key() for g in want]
