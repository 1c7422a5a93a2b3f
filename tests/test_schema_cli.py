import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rheokit.cli as cli
import rheokit.rheology as rheology
from rheokit.errors import NonConvergenceError, SchemaError
from rheokit.convex_core import SampledFunction
from rheokit.potentials import Dashpot, Huber, PerfectPlastic, PowerLaw, Sampled
from rheokit.rheology import (
    Formula,
    Leaf,
    Parallel,
    Serial,
    mu_eff_formula,
    serial_dif_dsl_stress,
    stress_curve,
)
from rheokit.schema import (
    dump_model,
    dump_simulation,
    parse_model,
    parse_potential,
    parse_simulation,
)

SERIAL_VP = {
    "node": "serial",
    "children": [
        {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.0}},
        {"node": "leaf", "potential": {"kind": "plastic", "sigma_a": 1.0}},
    ],
}

RELAX_SIM = {
    "E": 1.0,
    "elements": [{"kind": "dashpot", "D": 1.0}],
    "drive": [{"t_end": 2.0, "eps": 0.0}],
    "e_el0": 1.0,
}


def write_json(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def test_parse_and_dump_round_trip():
    tree = parse_model(SERIAL_VP)
    assert tree == Serial(
        [Leaf(Dashpot(1.0)), Leaf(PerfectPlastic(1.0))]
    )
    assert parse_model(dump_model(tree)) == tree
    nested = Parallel(
        [
            Serial([Leaf(PowerLaw(2.0, 3.0)), Leaf(PerfectPlastic(0.5))]),
            Leaf(Huber(1.0, 2.0)),
        ]
    )
    assert parse_model(dump_model(nested)) == nested


def test_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as err:
        parse_model({"node": "leaf", "potential": {"kind": "dashpot", "D": -1}})
    assert "potential.D" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_model(
            {"node": "parallel", "children": [{"node": "leaf", "potential": {"kind": "nope"}}]}
        )
    assert "children[0].potential.kind" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_model({"node": "leaf", "potential": {"kind": "dashpot", "D": 1, "extra": 2}})
    assert "extra" in str(err.value)
    with pytest.raises(SchemaError):
        parse_model({"node": "serial", "children": []})
    with pytest.raises(SchemaError):
        # ill-posed serial composite is an input error
        parse_model(
            {
                "node": "serial",
                "children": [
                    {"node": "leaf", "potential": {"kind": "plastic", "sigma_a": 1.0}}
                ],
            }
        )


_LEAF = {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.0}}
_BAD_MODELS = [
    ([_LEAF], "<root>"),
    ({"node": "leaf", "potential": {"kind": "dashpot", "D": "1"}}, "potential.D"),
    ({"node": "leaf", "potential": {"kind": "powerlaw", "D": 1.0, "n": True}}, "potential.n"),
    ({"node": "tree", "children": [_LEAF]}, "node"),
    ({"node": "parallel", "children": [_LEAF, {"children": [_LEAF]}]}, "children[1].node"),
    ({**_LEAF, "colour": "red"}, "colour"),
    ({**_LEAF, "children": [_LEAF]}, "children"),
    ({"node": "leaf"}, "potential"),
    ({"node": "serial", "potential": _LEAF["potential"], "children": [_LEAF]}, "potential"),
]
_BAD_SIMULATIONS = [
    ({**RELAX_SIM, "T": 300.0}, "T"),
    ({**RELAX_SIM, "E": "1"}, "E"),
    ({**RELAX_SIM, "drive": []}, "drive"),
    ({**RELAX_SIM, "drive": [1.0]}, "drive[0]"),
    ({**RELAX_SIM, "drive": [{"t_end": 1.0, "eps": 0.0, "rate": 1.0}]}, "drive[0].rate"),
    ({**RELAX_SIM, "drive": [{"t_end": 1.0}]}, "drive[0].eps"),
    ({**RELAX_SIM, "drive": [{"t_end": 1.0, "eps": "0"}]}, "drive[0].eps"),
    ({**RELAX_SIM, "drive": [{"t_end": 2.0, "eps": 0.0}, {"t_end": 1.0, "eps": 0.0}]}, ""),
    ({**RELAX_SIM, "e_el0": "1"}, "e_el0"),
    ({**RELAX_SIM, "e_el0": False}, "e_el0"),
]
_HUGE = 10**400  # a JSON integer past the float range
# after the lists above, so that their cases keep their test ids
_HUGE_NUMBERS = [
    ("curve", {"node": "leaf", "potential": {"kind": "dashpot", "D": _HUGE}}, "potential.D"),
    ("simulate", {**RELAX_SIM, "E": _HUGE}, "E"),
    ("simulate", {**RELAX_SIM, "drive": [{"t_end": 1.0, "eps": _HUGE}]}, "drive[0].eps"),
    ("simulate", {**RELAX_SIM, "e_el0": _HUGE}, "e_el0"),
]


@pytest.mark.parametrize("command, doc, path", [("curve", *c) for c in _BAD_MODELS]
                         + [("simulate", *c) for c in _BAD_SIMULATIONS] + _HUGE_NUMBERS)
def test_bad_documents_name_their_field_and_exit_2(tmp_path, capsys, command, doc, path):
    parse = parse_model if command == "curve" else parse_simulation
    with pytest.raises(SchemaError) as err:
        parse(doc)
    assert err.value.path == path
    assert cli.main([command, "--model", write_json(tmp_path, "bad.json", doc)]) == 2
    assert f"input error: {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, path", _HUGE_NUMBERS)
def test_numbers_past_the_float_range_are_not_echoed(tmp_path, capsys, command, doc, path):
    """A 400-digit integer is refused at its path, and neither the error nor the
    CLI's message repeats its digits."""
    parse = parse_model if command == "curve" else parse_simulation
    with pytest.raises(SchemaError) as err:
        parse(doc)
    assert str(err.value).startswith(f"{path}: must be a ")
    assert str(err.value).endswith("finite number, got a number past the float range")
    assert cli.main([command, "--model", write_json(tmp_path, "huge.json", doc)]) == 2
    assert "0" * 20 not in capsys.readouterr().err


def test_a_potential_with_no_document_form_does_not_dump():
    grid = np.linspace(0.0, 2.0, 9)
    leaf = Leaf(Sampled(SampledFunction.from_samples(grid, 0.5 * grid**2)))
    with pytest.raises(SchemaError) as err:
        dump_model(Parallel([Leaf(Dashpot(1.0)), leaf]))
    assert err.value.path == "potential"


def test_parse_potential_kinds():
    assert parse_potential({"kind": "huber", "sigma_a": 1.0, "D": 2.0}) == Huber(1.0, 2.0)
    assert parse_potential({"kind": "powerlaw", "D": 1.0, "n": 3.0}) == PowerLaw(1.0, 3.0)
    with pytest.raises(SchemaError):
        parse_potential({"kind": "powerlaw", "D": 1.0})


def test_parse_simulation_round_trip():
    model, drive, e0 = parse_simulation(RELAX_SIM)
    assert model.E == 1.0 and e0 == 1.0
    assert drive.segments == ((2.0, 0.0),)
    doc = dump_simulation(model, drive, e0)
    model2, drive2, e02 = parse_simulation(doc)
    assert (model2, drive2.segments, e02) == (model, drive.segments, e0)
    with pytest.raises(SchemaError) as err:
        parse_simulation({"E": 1.0, "elements": [], "drive": [{"t_end": 1, "eps": 0}]})
    assert "elements" in str(err.value)


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array(
        [[math.inf if tok == "inf" else float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    )
    return header, rows


def test_curve_serial_vp(tmp_path):
    model = write_json(tmp_path, "m.json", SERIAL_VP)
    out = str(tmp_path / "curve.csv")
    rc = cli.main(
        ["curve", "--model", model, "--eps-min", "0.1", "--eps-max", "4.0",
         "--samples", "40", "--out", out]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["eps", "mu_eff", "sigma"]
    assert rows.shape == (40, 3)
    i = np.argmin(np.abs(rows[:, 0] - 2.0))
    assert rows[i, 0] == 2.0
    assert rows[i, 1] == pytest.approx(0.5, rel=1e-10)
    assert rows[i, 2] == pytest.approx(1.0, rel=1e-10)


def test_curve_single_dashpot_constant_mu(tmp_path):
    model = write_json(
        tmp_path, "d.json", {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.0}}
    )
    out = str(tmp_path / "c.csv")
    assert cli.main(["curve", "--model", model, "--eps-min", "0.5", "--eps-max", "5.0",
                     "--samples", "10", "--out", out]) == 0
    _, rows = read_csv(out)
    assert np.allclose(rows[:, 1], 1.0, atol=1e-12)


def test_curve_powerlaw_row(tmp_path):
    doc = {
        "node": "serial",
        "children": [
            {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.0}},
            {"node": "leaf", "potential": {"kind": "powerlaw", "D": 1.0, "n": 3.0}},
        ],
    }
    model = write_json(tmp_path, "p.json", doc)
    out = str(tmp_path / "p.csv")
    assert cli.main(["curve", "--model", model, "--eps-min", "0.5", "--eps-max", "4.0",
                     "--samples", "8", "--out", out]) == 0
    _, rows = read_csv(out)
    i = np.argmin(np.abs(rows[:, 0] - 2.0))
    assert rows[i, 0] == 2.0
    assert rows[i, 2] == pytest.approx(1.0, rel=1e-9)


def test_curve_deterministic_output(tmp_path):
    model = write_json(tmp_path, "m.json", SERIAL_VP)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert cli.main(["curve", "--model", model, "--out", out]) == 0
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1]
    assert b"\r" not in outs[0]


def test_compare_fig6_columns(tmp_path):
    out = str(tmp_path / "fig6.csv")
    assert cli.main(["compare", "--preset", "fig6", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == [
        "eps",
        "mu_rig_n2", "mu_rig_n3", "mu_rig_inf",
        "mu_emp_n2", "mu_emp_n3", "mu_emp_inf",
        "sig_rig_n2", "sig_rig_n3", "sig_rig_inf",
        "sig_emp_n2", "sig_emp_n3", "sig_emp_inf",
    ]
    assert rows.shape == (200, 13)
    eps = rows[:, 0]
    assert eps[0] == pytest.approx(0.017)
    assert eps[-1] == pytest.approx(3.4)
    # small-rate limit: every rigorous curve approaches the linear modulus
    assert np.all(np.abs(rows[0, 1:4] - 1.0) < 0.02)
    # empirical harmonic-mean at eps=1 for the rate-independent branch
    i = np.argmin(np.abs(eps - 1.0))
    assert rows[i, 6] == pytest.approx(1.0 / (1.0 + eps[i]), rel=1e-12)


def test_compare_rejects_bad_n(tmp_path):
    for bad in ("0", "-2", "nan", "-inf", "two", "", "2,,3"):
        assert cli.main(["compare", f"--n-list={bad}"]) == 2


@pytest.mark.parametrize("n_list", ["2,inf", "2.5"])
@pytest.mark.parametrize("samples", [3, cli.WALK_RATES + 1])
@pytest.mark.parametrize("option, value, got", [("--d-dif", "inf", "inf"),
                                                ("--d-dsl", "1e400", "inf"),
                                                ("--d-dif", "nan", "nan"),
                                                ("--d-dsl", "-1", "-1.0")])
def test_compare_checks_its_moduli_with_the_number_rule(tmp_path, capsys, n_list, samples,
                                                        option, value, got):
    """An infinite, overflowing, NaN or negative modulus exits 2 with the number rule's one
    message, naming the option, whatever the exponents and the grid's size."""
    out = tmp_path / "out.csv"
    argv = ["compare", "--n-list", n_list, "--samples", str(samples), option, value,
            "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        f"rheokit: input error: {option} must be a positive finite number, got {got}\n"
    assert not out.exists()


def test_compare_accepts_any_positive_exponent(tmp_path):
    out = str(tmp_path / "n.csv")
    assert cli.main(["compare", "--n-list", "7,3.5,inf", "--samples", "20", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header[1:4] == ["mu_rig_n7", "mu_rig_n3.5", "mu_rig_inf"]
    eps = rows[:, 0]
    for j, n in ((7, 7.0), (8, 3.5)):
        sig = rows[:, j]
        assert np.allclose(sig**n + sig, eps, rtol=1e-13, atol=0)


def test_compare_far_from_unit_moduli(tmp_path):
    out = str(tmp_path / "big.csv")
    assert cli.main(["compare", "--d-dsl", "1e150", "--samples", "5", "--out", out]) == 0
    _, rows = read_csv(out)
    assert np.all(np.isfinite(rows))


def _compare_on_arrays(d_dif=1.0, d_dsl=1.0, n_list=(2.0, 3.0, math.inf), eps_min=3.4 / 200.0,
                       eps_max=3.4, samples=200):
    """``compare``'s CSV built from the library's array forms on its grid, the fig6 values
    unless given: ``serial_dif_dsl_stress`` (closed for n in {1, 2, 3}, else numeric),
    ``VP_MIN`` for n = inf and ``EMP_DIF_DSL``.  The reference for the float columns."""
    eps = np.linspace(eps_min, eps_max, samples)
    sig_rig = [eps * mu_eff_formula(Formula.VP_MIN, (d_dsl, d_dif), eps) if math.isinf(n) else
               serial_dif_dsl_stress(d_dif, d_dsl, n, eps,
                                     mode="closed" if n in (1, 2, 3) else "numeric")
               for n in n_list]
    mu_emp = [mu_eff_formula(Formula.EMP_DIF_DSL, (d_dif, d_dsl, n), eps) for n in n_list]
    header = [f"{name}_{cli._n_suffix(n)}" for name in ("mu_rig", "mu_emp", "sig_rig", "sig_emp")
              for n in n_list]
    return cli._csv(["eps", *header], [eps, *(s / eps for s in sig_rig), *mu_emp, *sig_rig,
                                       *(m * eps for m in mu_emp)])


def _assert_csv_agrees(got, want):
    """Two CSV texts with one header and one eps column, byte for byte, and every other
    column within 1e-13 relative."""
    (head_g, *rows_g), (head_w, *rows_w) = got.splitlines(), want.splitlines()
    (eps_g, *rest_g), (eps_w, *rest_w) = (list(zip(*(ln.split(",") for ln in rows)))
                                          for rows in (rows_g, rows_w))
    assert head_g == head_w and eps_g == eps_w and len(rest_g) == len(rest_w)
    for g, w in zip(rest_g, rest_w):
        g, w = np.array(g, dtype=float), np.array(w, dtype=float)
        assert np.all((g == w) | (np.abs(g - w) <= 1e-13 * np.abs(w))), (g, w)


def test_compare_past_the_float_range_warns_on_neither_path(tmp_path):
    """Moduli and rates 600 decades apart, where ``VP_MIN``'s ``D_dsl / eps`` overflows:
    neither compare's float columns nor the library's array forms on the same grid give a
    numpy warning (an error under the test settings), and the two agree."""
    out = tmp_path / "float.csv"
    assert cli.main(["compare", "--d-dsl", "1e300", "--eps-min", "1e-300", "--eps-max",
                     "1e-299", "--samples", "200", "--out", str(out)]) == 0
    _assert_csv_agrees(out.read_text(), _compare_on_arrays(d_dsl=1e300, eps_min=1e-300,
                                                           eps_max=1e-299))


def _per_cell_csv(header, columns):
    """The one-format-call-per-cell CSV writer, kept as the byte reference."""
    def fmt(x):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(float(x), ".17g")

    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join(fmt(col[i]) for col in columns))
    return "\n".join(lines) + "\n"


def test_csv_bytes_match_per_cell_formatter():
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16,
               1e17, 123456789012345678.0, -2.5]
    n = len(special)
    cols = [
        np.array(special),
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        np.arange(n),
        list(rng.uniform(-1.0, 1.0, n)),
    ]
    header = ["a", "b", "c", "d"]
    assert cli._csv(header, cols) == _per_cell_csv(header, cols)
    assert cli._csv(["x"], [np.empty(0)]) == "x\n" == _per_cell_csv(["x"], [np.empty(0)])


def test_curve_rest_row_uses_limit(tmp_path):
    bingham = {
        "node": "parallel",
        "children": [
            {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.0}},
            {"node": "leaf", "potential": {"kind": "plastic", "sigma_a": 1.0}},
        ],
    }
    model = write_json(tmp_path, "b.json", bingham)
    out = str(tmp_path / "b.csv")
    assert cli.main(["curve", "--model", model, "--eps-min", "0", "--eps-max", "2",
                     "--samples", "5", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "inf"  # yield offset at rest: no finite viscosity limit


# ---------------------------------------------------------------------------
# Curve paths: a short grid on a shallow tree on floats, any other as arrays
# ---------------------------------------------------------------------------


def test_float_grid_is_linspace_bit_for_bit():
    """``cli._linspace`` builds ``np.linspace``'s grid in Python floats, bit for bit:
    from 0, over subnormal spans, where the step underflows to 0, and over 1e+-300."""
    rng = np.random.default_rng(12)
    cases = [(0.0, 10.0, n) for n in (2, 3, 7, 64, 65, 200)]
    cases += [(0.0, 5e-324, 64), (0.0, 1e-320, 64), (5e-324, 1e-322, 9),
              (1e-310, 1e-310 + 3 * 5e-324, 40), (2.225073858507201e-308, 2.2250738585072014e-308, 33),
              (3.4 / 200.0, 3.4, 200), (0.0, 1.7976931348623157e308, 64),
              (1e308, 1.7976931348623157e308, 17)]
    for lo, hi in np.sort(10.0 ** rng.uniform(-300, 300, size=(200, 2)), axis=1).tolist():
        cases.append((lo, hi, int(rng.integers(2, 70))))
    for start, stop, num in cases:
        with np.errstate(over="ignore"):  # numpy's last entry, replaced by stop, may overflow
            want = np.linspace(start, stop, num)
        got = cli._linspace(start, stop, num)
        assert all(type(x) is float for x in got)
        assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64)), (start, stop, num)


def _nested(S, R):
    """A depth-2 tree, ``Serial[Parallel[PowerLaw, plastic], dashpot]``, at scales S and R."""
    leaf = lambda p: {"node": "leaf", "potential": p}  # noqa: E731
    return {"node": "serial", "children": [
        {"node": "parallel", "children": [
            leaf({"kind": "powerlaw", "D": 1.2 * S / R ** 0.4, "n": 2.5}),
            leaf({"kind": "plastic", "sigma_a": 0.7 * S})]},
        leaf({"kind": "dashpot", "D": 1.3 * S / R})]}


def _nested_parallel(S, R):
    """A depth-2 tree, ``Parallel[Serial[Parallel[PowerLaw, plastic], dashpot], dashpot]``."""
    leaf = lambda p: {"node": "leaf", "potential": p}  # noqa: E731
    return {"node": "parallel", "children": [
        {"node": "serial", "children": [
            {"node": "parallel", "children": [
                leaf({"kind": "powerlaw", "D": 0.9 * S / R ** (1 / 3.5), "n": 3.5}),
                leaf({"kind": "plastic", "sigma_a": 1.4 * S})]},
            leaf({"kind": "dashpot", "D": 0.8 * S / R})]},
        leaf({"kind": "dashpot", "D": 0.15 * S / R})]}


@pytest.mark.parametrize("S, R, eps_min", [(1.0, 1.0, 0.0), (1e7, 1e-14, 1e-16),
                                           (1e-150, 1e150, 0.0)])
def test_short_curves_on_floats_match_the_array_path(tmp_path, monkeypatch, S, R, eps_min):
    """A grid of at most ``FLOAT_RATES`` rates on a tree whose solves nest two deep
    runs on floats: its eps column is the array path's byte for
    byte, its viscosities and stresses agree with it to 1e-13 relative."""
    model, rates = write_json(tmp_path, "n.json", _nested(S, R)), cli.FLOAT_RATES
    argv = ["curve", "--model", model, "--eps-min", repr(eps_min), "--eps-max", repr(7.0 * R),
            "--samples", str(rates)]
    arrays = []
    monkeypatch.setattr(cli, "stress_curve", lambda *a: arrays.append(1) or stress_curve(*a))
    columns = []
    for cut in (rates, 0):  # the float path, then the array path
        monkeypatch.setattr(cli, "FLOAT_RATES", cut)
        out = tmp_path / f"{cut}.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        columns.append(list(zip(*(ln.split(",") for ln in out.read_text().splitlines()[1:]))))
    assert len(arrays) == 1  # only the second run took the array path
    (eps_f, *rest_f), (eps_a, *rest_a) = columns
    assert eps_f == eps_a and len(eps_f) == rates
    for f, a in zip(rest_f, rest_a):
        f, a = np.array(f, dtype=float), np.array(a, dtype=float)
        assert np.all((f == a) | (np.abs(f - a) <= 1e-13 * np.abs(a))), (f, a)


def _deep_trees(S, R):
    """Trees whose solves nest three and four deep, stresses scaled by ``S``, rates by ``R``:
    ``Serial[Parallel[Serial[Parallel[D, P], W], P, D], W]``, and a chain that wraps
    ``Parallel[., PowerLaw(1.5, 2), plastic(0.5)]`` and then ``Serial[., PowerLaw(0.7, 4)]``
    twice around W."""
    power = lambda D, n: Leaf(PowerLaw(D * S / R ** (1.0 / n), n))  # noqa: E731
    D, P, W = Leaf(Dashpot(S / R)), Leaf(PerfectPlastic(S)), power(1.0, 3.0)
    chain = W
    for _ in range(2):
        chain = Serial([Parallel([chain, power(1.5, 2.0), Leaf(PerfectPlastic(0.5 * S))]),
                        power(0.7, 4.0)])
    return Serial([Parallel([Serial([Parallel([D, P]), W]), P, D]), W]), chain


@pytest.mark.parametrize("S, R", [(1.0, 1.0), (1e150, 1.0), (1e-150, 1.0), (1.0, 1e150),
                                  (1.0, 1e-150), (1e150, 1e-150)])
def test_deep_curves_walk_and_match_the_array_path(tmp_path, monkeypatch, S, R):
    """``curve`` walks trees of solve depth 3 and 4 on floats at 64 rates (at most
    ``FLOAT_RATES``; the array reference at far scales is slow past that), and its stresses
    and viscosities agree with ``stress_curve`` to 1e-13 relative, at unit scale and with
    the stresses or the rates scaled by 1e+-150.  (With both far at once, stresses at
    1e-150 and rates at 1e150, the array path takes minutes on the chain.)"""
    arrays = []
    monkeypatch.setattr(cli, "stress_curve", lambda *a: arrays.append(1) or stress_curve(*a))
    for depth, tree in zip((3, 4), _deep_trees(S, R)):
        assert rheology._depth(tree) == depth
        model, out = write_json(tmp_path, "deep.json", dump_model(tree)), tmp_path / "deep.csv"
        assert cli.main(["curve", "--model", model, "--eps-min", "0", "--eps-max", repr(7.0 * R),
                         "--samples", "64", "--out", str(out)]) == 0
        eps, mu, sigma = np.loadtxt(out, delimiter=",", skiprows=1).T
        want = stress_curve(tree, eps)
        assert len(eps) == 64 and np.all(sigma[1:] > 0), depth
        for got, ref in ((sigma, want), (mu[1:], want[1:] / eps[1:])):
            assert np.all((got == ref) | (np.abs(got - ref) <= 1e-13 * np.abs(ref))), depth
    assert not arrays  # both curves walked


@pytest.mark.parametrize("walk_rates", [cli.WALK_RATES, 1])
def test_curve_prints_stresses_past_half_the_largest_float(tmp_path, monkeypatch, walk_rates):
    """A dashpot of 1e300 at rates up to 1.5e8 has stresses up to 1.5e308, past half the
    largest float: ``curve`` prints them and their viscosity, walked on floats and on
    arrays, with no ``inf`` anywhere."""
    monkeypatch.setattr(cli, "WALK_RATES", walk_rates)
    model = write_json(tmp_path, "big.json",
                       {"node": "leaf", "potential": {"kind": "dashpot", "D": 1e300}})
    out = tmp_path / "big.csv"
    assert cli.main(["curve", "--model", model, "--eps-min", "0", "--eps-max", "1.5e8",
                     "--samples", "4", "--out", str(out)]) == 0
    assert "inf" not in out.read_text()
    eps, mu, sigma = np.loadtxt(out, delimiter=",", skiprows=1).T
    assert sigma.tolist() == [1e300 * e for e in eps.tolist()]
    assert mu == pytest.approx([1e300] * 4, rel=1e-15)


# SHA-256 of two outputs of the array path: a 10,000-rate curve with a rest row,
# re-pinned when the array finder took the float finder's rules, and the fig6
# comparison, pinned when short curves moved to floats.  The curve's tree has solve
# depth 1, so ``curve`` walks it on floats unless ``WALK_RATES`` is set below 10,000.
_WIDE_CURVE = {"node": "serial", "children": [
    {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.3}},
    {"node": "leaf", "potential": {"kind": "powerlaw", "D": 0.8, "n": 3.5}},
    {"node": "parallel", "children": [
        {"node": "leaf", "potential": {"kind": "plastic", "sigma_a": 0.6}},
        {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.1}}]},
    {"node": "leaf", "potential": {"kind": "huber", "sigma_a": 1.7, "D": 0.9}}]}
_PINNED = {"curve": "62e5dbbae7389bc61c3703646dd55c638228d04bdf49ebed0b56e2393219542e",
           "compare": "56c44a7dd7189017bc6e9e0f64e8f4a58a7431bdcde3718305eaa1aba0ebb8b7"}


def test_array_path_csv_is_pinned(tmp_path, monkeypatch):
    """The curve through ``stress_curve``, and the fig6 comparison from the library's array
    forms (``compare`` itself fills its columns on floats)."""
    monkeypatch.setattr(cli, "WALK_RATES", 0)
    out = tmp_path / "curve.csv"
    assert cli.main(["curve", "--model", write_json(tmp_path, "w.json", _WIDE_CURVE),
                     "--eps-min", "0", "--eps-max", "10", "--samples", "10000",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED["curve"]
    assert hashlib.sha256(_compare_on_arrays().encode()).hexdigest() == _PINNED["compare"]


# SHA-256 of the same 10,000-rate curve walked on floats, pinned when ``curve`` took
# the walk for trees of solve depth 1.
_WALK_PINNED = "4bd280d06e7abbca54fe6ebf3fcabbc5e396f9e34a9fe9e5d944c66e63ac590f"


def test_walk_csv_is_pinned_and_matches_the_array_path(tmp_path, monkeypatch):
    """The walk's curve: its eps column is the array path's byte for byte, and its
    viscosities and stresses agree with it to 1e-13 relative."""
    argv = ["curve", "--model", write_json(tmp_path, "w.json", _WIDE_CURVE), "--eps-min", "0",
            "--eps-max", "10", "--samples", "10000"]
    monkeypatch.setattr(cli, "stress_curve", None)  # the array path would fail
    assert cli.main(argv + ["--out", str(tmp_path / "walk.csv")]) == 0
    assert hashlib.sha256((tmp_path / "walk.csv").read_bytes()).hexdigest() == _WALK_PINNED
    monkeypatch.setattr(cli, "stress_curve", stress_curve)
    monkeypatch.setattr(cli, "WALK_RATES", 0)
    assert cli.main(argv + ["--out", str(tmp_path / "array.csv")]) == 0
    (eps_w, *rest_w), (eps_a, *rest_a) = (
        list(zip(*(ln.split(",") for ln in (tmp_path / f"{name}.csv").read_text().splitlines()[1:])))
        for name in ("walk", "array"))
    assert eps_w == eps_a and len(eps_w) == 10000
    for w, a in zip(rest_w, rest_a):
        w, a = np.array(w, dtype=float), np.array(a, dtype=float)
        assert np.all((w == a) | (np.abs(w - a) <= 1e-13 * np.abs(a))), (w, a)


# SHA-256 of ``compare --preset fig6`` filled on floats, pinned when ``compare`` took the
# float path up to ``WALK_RATES`` rows.  Like the pins below, it reads the platform's libm.
_COMPARE_FLOAT_PINNED = "6acd4d046e35d0dde8b90dadca4f45e9d035e7ee4d90b001238b056bae3acdd8"


def test_compare_float_csv_is_pinned_and_matches_the_array_path(tmp_path, monkeypatch):
    """The fig6 comparison on floats: pinned, its eps column that of the library's array
    forms byte for byte, and its viscosities and stresses within 1e-13 relative of theirs."""
    for name in ("serial_dif_dsl_stress", "mu_eff_formula"):
        monkeypatch.setattr(cli, name, None)  # an array formula would fail
    out = tmp_path / "float.csv"
    assert cli.main(["compare", "--preset", "fig6", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _COMPARE_FLOAT_PINNED
    assert len(out.read_text().splitlines()) == 201
    _assert_csv_agrees(out.read_text(), _compare_on_arrays())


def test_compare_fills_its_columns_on_floats_at_any_size(tmp_path, monkeypatch):
    """``compare`` fills every column on floats, with or without walked columns (n not in
    {1, 2, 3, inf}), up to ``WALK_RATES`` rows times one plus those columns and past it,
    and agrees with the library's array forms to 1e-13 relative."""
    for name in ("serial_dif_dsl_stress", "mu_eff_formula"):
        monkeypatch.setattr(cli, name, None)  # an array formula would fail
    half = cli.WALK_RATES // 2
    for n_list, samples in (("2,3,inf", cli.WALK_RATES), ("2,3,inf", cli.WALK_RATES + 1),
                            ("2,3,3.5,inf", half), ("2,3,3.5,inf", half + 1)):
        out = tmp_path / f"{samples}.csv"
        argv = ["compare", "--preset", "fig6", "--n-list", n_list, "--samples", str(samples),
                "--out", str(out)]
        assert cli.main(argv) == 0, (n_list, samples)
        assert len(out.read_text().splitlines()) == samples + 1
        _assert_csv_agrees(out.read_text(), _compare_on_arrays(
            n_list=[float(n) for n in n_list.split(",")], samples=samples))


# SHA-256 of four outputs of the float path (64 rates with a rest row, on the two
# depth-2 trees above at unit and geo scale), re-pinned when a solve with no cap
# first probed 1, not the largest float, and again when ``curve`` walked its grid,
# each root solve continuing from the last.  Like the pins above, they read the
# platform's libm (``pow``, ``log1p``, ``expm1``), so a machine whose libm rounds
# otherwise may need its own.
_FLOAT_PINNED = {
    ("serial", 1.0): "1c82e784c377c5e8593cd6ddd0e2fc9c28e7c826457fc2fc894c64ed4be5c73d",
    ("serial", 1e7): "79fca7dc65b938fcff261a62e4697ddf11cada345c30585534b92c324698e908",
    ("parallel", 1.0): "f46cbd255dd37d537bd0a2c235eaa5dfd7eba5eb3151a3886b6589d81ac26552",
    ("parallel", 1e7): "eb7ee4368fade6247c30393d9a57628e434ca8e6e97691858984c2c7ba7f2045",
}


@pytest.mark.parametrize("shape, S", list(_FLOAT_PINNED))
def test_float_path_csv_is_pinned(tmp_path, monkeypatch, shape, S):
    R = 1e-14 if S > 1 else 1.0
    tree = (_nested if shape == "serial" else _nested_parallel)(S, R)
    monkeypatch.setattr(cli, "stress_curve", None)  # the array path would fail
    out = tmp_path / "curve.csv"
    argv = ["curve", "--model", write_json(tmp_path, "n.json", tree), "--eps-min", "0",
            "--eps-max", repr(7.0 * R), "--samples", "64"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _FLOAT_PINNED[shape, S]


def test_equivalence_exit_and_report(tmp_path):
    out = str(tmp_path / "eq.txt")
    rc = cli.main(["equivalence", "--sigma-a", "1", "--d2", "1", "--d3", "1", "--out", out])
    assert rc == 0
    text = Path(out).read_text()
    fields = dict(ln.split("=", 1) for ln in text.strip().splitlines())
    assert float(fields["sigma_a_tilde"]) == 2.0
    assert float(fields["D2_tilde"]) == 2.0
    assert float(fields["D3_tilde"]) == 2.0
    assert float(fields["rigorous_max_dev"]) < 1e-10 * 3.0
    assert float(fields["empirical_dev_eps1"]) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert fields["status"] == "equivalent"


def test_equivalence_vanishing_d3():
    _, dev, tol, emp = cli.equivalence_report(1.0, 1.0, 1e-12)
    assert dev < tol
    assert emp[1.0] < 1e-9


@pytest.mark.parametrize("option", ["--sigma-a", "--d2", "--d3"])
@pytest.mark.parametrize("value, got", [("nan", "nan"), ("inf", "inf"), ("1e400", "inf"),
                                        ("-1", "-1.0")])
def test_equivalence_checks_its_parameters_with_the_number_rule(tmp_path, capsys, option,
                                                                value, got):
    """A NaN, infinite, overflowing or negative parameter exits 2 with the number rule's one
    message, naming the option, and writes no report."""
    out = tmp_path / "eq.txt"
    argv = ["equivalence", "--sigma-a", "1", "--d2", "1", "--d3", "1", option, value,
            "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        f"rheokit: input error: {option} must be a positive finite number, got {got}\n"
    assert not out.exists()


def test_simulate_relaxation(tmp_path):
    model = write_json(tmp_path, "sim.json", RELAX_SIM)
    out = str(tmp_path / "sim.csv")
    rc = cli.main(["simulate", "--model", model, "--dt", "1e-4", "--t-end", "1.0", "--out", out])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["t", "eps", "e_el", "sigma"]
    assert rows[-1, 3] == pytest.approx(math.exp(-1.0), abs=1e-3)


def test_simulate_zero_scenario(tmp_path):
    doc = dict(RELAX_SIM, e_el0=0.0)
    model = write_json(tmp_path, "z.json", doc)
    out = str(tmp_path / "z.csv")
    assert cli.main(["simulate", "--model", model, "--dt", "0.01", "--t-end", "0.5", "--out", out]) == 0
    _, rows = read_csv(out)
    assert np.all(rows[:, 1:] == 0.0)


def test_simulate_yield_scenario(tmp_path):
    doc = {
        "E": 1.0,
        "elements": [{"kind": "huber", "sigma_a": 1.0, "D": 1.0}],
        "drive": [{"t_end": 30.0, "eps": 1.0}],
    }
    model = write_json(tmp_path, "y.json", doc)
    out = str(tmp_path / "y.csv")
    assert cli.main(["simulate", "--model", model, "--dt", "0.01", "--t-end", "20", "--out", out]) == 0
    _, rows = read_csv(out)
    assert np.max(rows[:, 3]) <= 1.0 + 1e-12


def test_conjugate_outputs(tmp_path):
    huber = write_json(
        tmp_path, "h.json",
        {"node": "leaf", "potential": {"kind": "huber", "sigma_a": 1.0, "D": 1.0}},
    )
    out = str(tmp_path / "h.csv")
    assert cli.main(["conjugate", "--model", huber, "--sigma-max", "2", "--samples", "9",
                     "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["sigma", "zeta_star"]
    inside = rows[rows[:, 0] <= 1.0]
    assert np.allclose(inside[:, 1], 0.5 * inside[:, 0] ** 2)
    assert np.all(np.isinf(rows[rows[:, 0] > 1.0, 1]))

    dash = write_json(
        tmp_path, "d.json", {"node": "leaf", "potential": {"kind": "dashpot", "D": 2.0}}
    )
    out2 = str(tmp_path / "d.csv")
    assert cli.main(["conjugate", "--model", dash, "--sigma-max", "4", "--samples", "5",
                     "--out", out2]) == 0
    _, rows2 = read_csv(out2)
    assert np.allclose(rows2[:, 1], rows2[:, 0] ** 2 / 4.0)

    plastic = write_json(
        tmp_path, "p.json", {"node": "leaf", "potential": {"kind": "plastic", "sigma_a": 1.0}}
    )
    out3 = str(tmp_path / "p.csv")
    assert cli.main(["conjugate", "--model", plastic, "--sigma-max", "2", "--samples", "9",
                     "--out", out3]) == 0
    _, rows3 = read_csv(out3)
    assert np.all(rows3[rows3[:, 0] <= 1.0, 1] == 0.0)
    assert np.all(np.isinf(rows3[rows3[:, 0] > 1.0, 1]))


@pytest.mark.parametrize("argv, option", [
    (["compare", "--eps-max", "inf"], "--eps-max"),
    (["conjugate", "--model", "{model}", "--sigma-max", "inf"], "--sigma-max"),
    (["curve", "--model", "{model}", "--eps-max", "inf"], "--eps-max"),
])
def test_infinite_range_ends_are_input_errors(tmp_path, capsys, argv, option):
    """An infinite range end is rejected by name before any grid is built:
    exit 2, no rows and no RuntimeWarning (an error under this suite)."""
    leaf = {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.0}}
    model = write_json(tmp_path, "m.json", leaf)
    out = tmp_path / "out.csv"
    argv = [a.format(model=model) for a in argv] + ["--out", str(out)]
    assert cli.main(argv) == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_conjugate_of_an_unrepresentable_power_law_exits_2(tmp_path):
    """Two valid power laws whose conjugate's D over- and underflows float64:
    the CLI names the conjugate, with no traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for name, d, n, exponent in [("over", 1e-110, 3, "330"), ("under", 1e21, 40, "-840")]:
        model = write_json(tmp_path, f"{name}.json",
                           {"node": "leaf", "potential": {"kind": "powerlaw", "D": d, "n": n}})
        proc = subprocess.run([sys.executable, "-m", "rheokit", "conjugate", "--model", model],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert proc.stderr == (f"rheokit: input error: the conjugate PowerLaw has D = "
                               f"10**{exponent}, which float64 cannot represent\n")


def test_conjugate_default_range_holds_a_huge_yield_stress(tmp_path, capsys):
    """With no --sigma-max the grid runs to twice the yield stress, capped at the
    largest float, so a yield stress of 1e308 still gets a grid over [0, sup]."""
    model = write_json(tmp_path, "p.json",
                       {"node": "leaf", "potential": {"kind": "plastic", "sigma_a": 1e308}})
    assert cli.main(["conjugate", "--model", model, "--samples", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert float(rows[-1].split(",")[0]) == sys.float_info.max


@pytest.mark.parametrize("dt, t_end", [("1e-300", "1"), ("1", "1e300"), ("0.5", "inf")])
def test_simulate_step_counts_out_of_range_are_input_errors(tmp_path, capsys, dt, t_end):
    """Too many steps for a list, or an infinite end time: exit 2, no traceback."""
    model = write_json(tmp_path, "sim.json", RELAX_SIM)
    assert cli.main(["simulate", "--model", model, "--dt", dt, "--t-end", t_end]) == 2
    assert "input error" in capsys.readouterr().err


def test_conjugate_rejects_composites(tmp_path):
    model = write_json(tmp_path, "m.json", SERIAL_VP)
    assert cli.main(["conjugate", "--model", model]) == 2


def test_dump_model_round_trip(tmp_path, capsys):
    model = write_json(tmp_path, "m.json", SERIAL_VP)
    assert cli.main(["curve", "--model", model, "--dump-model"]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert parse_model(echoed) == parse_model(SERIAL_VP)


def test_exit_codes(tmp_path, monkeypatch):
    bad = write_json(
        tmp_path, "bad.json", {"node": "leaf", "potential": {"kind": "dashpot", "D": -1}}
    )
    assert cli.main(["curve", "--model", bad]) == 2
    missing = str(tmp_path / "missing.json")
    assert cli.main(["curve", "--model", missing]) == 2
    notjson = tmp_path / "x.json"
    notjson.write_text("{broken", encoding="utf-8")
    assert cli.main(["curve", "--model", str(notjson)]) == 2
    # solver failures map to exit 3
    model = write_json(tmp_path, "sim.json", RELAX_SIM)

    def boom(*a, **kw):
        raise NonConvergenceError("stub")

    monkeypatch.setattr(cli, "simulate", boom)
    assert cli.main(["simulate", "--model", model, "--dt", "0.1", "--t-end", "1"]) == 3


def test_curve_out_of_solver_steps_exits_3(tmp_path, monkeypatch, capsys):
    """A solve that runs out of steps exits 3 on the float path and the array path."""
    model = write_json(tmp_path, "n.json", _nested_parallel(1.0, 1.0))
    monkeypatch.setattr(rheology, "_MAX_ITER", 2)
    for samples in ("8", "200"):
        assert cli.main(["curve", "--model", model, "--samples", samples]) == 3
        assert "solver error: root solve" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    model = write_json(tmp_path, "m.json", SERIAL_VP)
    proc = subprocess.run(
        [sys.executable, "-m", "rheokit", "curve", "--model", model,
         "--eps-min", "1", "--eps-max", "2", "--samples", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "eps,mu_eff,sigma"


def _python(*args):
    """``python *args`` on this tree's sources, standard streams captured as bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


_ATEXIT_FREEZE = """\
import atexit, gc, sys
import rheokit.cli as cli
atexit.register(lambda: sys.stderr.write(f"atexit frozen={gc.get_freeze_count() > 0}\\n"))
how, sys.argv[1:] = sys.argv[1], sys.argv[2:]
if how == "raise":
    cli.main = lambda: 1 / 0
if how == "main":
    sys.exit(cli.main())
cli.entry()
"""


@pytest.mark.parametrize("how, argv, code", [
    ("entry", ["equivalence", "--sigma-a", "1", "--d2", "1", "--d3", "1"], 0),
    ("entry", ["curve", "--no-such-option"], 2),
    ("raise", [], 1),
    ("main", ["equivalence", "--sigma-a", "1", "--d2", "1", "--d3", "1"], 0)])
def test_entry_freezes_the_heap_and_still_runs_atexit(how, argv, code):
    """``entry()`` freezes the heap on every exit: a returned code, argparse's own
    ``SystemExit`` and a traceback; an atexit handler registered before it still runs,
    and sees the frozen heap.  ``main()`` leaves it collectable."""
    proc = _python("-c", _ATEXIT_FREEZE, how, *argv)
    assert proc.returncode == code, proc.stderr
    frozen = f"atexit frozen={how != 'main'}\n".encode()
    assert proc.stderr.endswith(frozen), proc.stderr
    assert (b"ZeroDivisionError" in proc.stderr) == (how == "raise")


def test_python_m_rheokit_writes_what_main_writes(tmp_path, capsys):
    """On the frozen exit path every byte still reaches a pipe: ``compare`` at 7,000 rates
    on stdout is ``main()``'s file, and the 400-digit ``D`` exits 2 with ``main()``'s one
    stderr line and no traceback."""
    argv = ["compare", "--preset", "fig6", "--samples", "7000"]
    proc = _python("-m", "rheokit", *argv)
    assert proc.returncode == 0 and proc.stderr == b""
    assert cli.main([*argv, "--out", str(tmp_path / "fig6.csv")]) == 0
    assert proc.stdout == (tmp_path / "fig6.csv").read_bytes()
    assert proc.stdout.count(b"\n") == 7001
    huge = write_json(tmp_path, "huge.json", _HUGE_NUMBERS[0][1])
    proc = _python("-m", "rheokit", "curve", "--model", huge)
    assert cli.main(["curve", "--model", huge]) == 2
    err = capsys.readouterr().err
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", err)
    assert err.count("\n") == 1 and "Traceback" not in err
