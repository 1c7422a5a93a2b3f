import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import solve_depth
import tree_reference as reference

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
    ThreeElementParams,
    serial_dif_dsl_stress,
    stress_curve,
    three_element_stress,
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
@pytest.mark.parametrize("samples", [3, 16_385])
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


@pytest.mark.parametrize("argv, column", [
    (["--d-dsl", "1e-320", "--samples", "3"], "mu_emp_n2"),
    (["--n-list", "1", "--d-dif", "1e-320", "--eps-min", "1e299", "--eps-max", "1e300",
      "--samples", "3"], "sig_rig_n1"),
])
def test_compare_keeps_a_subnormal_modulus(tmp_path, argv, column):
    """A subnormal modulus next to a unit one: the harmonic means, scaled by a power of two
    once per column, are not 0, and agree with the library's array forms."""
    out = tmp_path / "sub.csv"
    assert cli.main(["compare", *argv, "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert np.all(rows[:, 1:] > 0.0) and np.all(rows[:, header.index(column)] > 0.0)
    opts = dict(zip(argv[::2], argv[1::2]))
    _assert_csv_agrees(out.read_text(), _compare_on_arrays(
        d_dif=float(opts.get("--d-dif", 1.0)), d_dsl=float(opts.get("--d-dsl", 1.0)),
        n_list=[float(n) for n in opts.get("--n-list", "2,3,inf").split(",")],
        eps_min=float(opts.get("--eps-min", 3.4 / 200.0)),
        eps_max=float(opts.get("--eps-max", 3.4)), samples=3))


def test_compare_reads_a_power_past_the_float_range_as_inf(tmp_path, capsys):
    """An exponent n < 1 at a tiny rate: ``eps**(1 - 1/n)`` passes the float range, so the
    empirical viscosity there is 0, as ``mu_eff_formula`` gives; no traceback, and the CSV
    agrees with the library's array forms.  Such a row, or one where ``D_dsl / eps**p``
    underflows, leaves the column's scale to its other rows, so their subnormal means are kept."""
    out = tmp_path / "below1.csv"
    argv = ["--n-list", "0.25", "--eps-min", "1e-300", "--eps-max", "1", "--samples", "3"]
    assert cli.main(["compare", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, rows = read_csv(str(out))
    assert rows[0, header.index("mu_emp_n0.25")] == rows[0, header.index("sig_emp_n0.25")] == 0.0
    assert mu_eff_formula("emp_dif_dsl", (1, 1, 0.25), 1e-300) == 0.0
    _assert_csv_agrees(out.read_text(), _compare_on_arrays(n_list=(0.25,), eps_min=1e-300,
                                                           eps_max=1.0, samples=3))
    for d_dsl, eps_min, eps_max, want in ((1e-308, 1e-300, 1.0, 1.25e-309),  # at eps 0.5
                                          (1e-20, 1e-102, 1e-101, 1e-323)):  # at eps_max
        argv = ["--n-list", "0.25", "--d-dsl", repr(d_dsl), "--eps-min", repr(eps_min),
                "--eps-max", repr(eps_max), "--samples", "3"]
        assert cli.main(["compare", *argv, "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        mu_emp = rows[:, header.index("mu_emp_n0.25")]
        assert mu_emp[0] == 0.0 and want in (mu_emp[1], mu_emp[2]), mu_emp
        _assert_csv_agrees(out.read_text(), _compare_on_arrays(
            d_dsl=d_dsl, n_list=(0.25,), eps_min=eps_min, eps_max=eps_max, samples=3))


def test_compare_needs_a_positive_eps_min(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert cli.main(["compare", "--eps-min", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "rheokit: input error: compare needs eps_min > 0\n"
    assert not out.exists()


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
# Curve on floats, against the library's array API and the reference solve
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


def _curve_csv(tree, eps, sigma):
    """``curve``'s CSV of stresses ``sigma`` on the grid ``eps``, at rest with
    ``mu_eff_rigorous``'s limit."""
    mu = [s / e if e > 0 else rheology.mu_eff_rigorous(tree, 0.0, limit=True)
          for e, s in zip(eps, sigma)]
    return cli._csv(["eps", "mu_eff", "sigma"], [eps, mu, sigma])


def _curve_on_arrays(tree, eps_min, eps_max, samples):
    """``curve``'s CSV built from the library's array API on its grid, ``stress_curve``."""
    eps = np.linspace(eps_min, eps_max, samples).tolist()
    return _curve_csv(tree, eps, stress_curve(tree, eps).tolist())


def _curve_on_reference(doc, eps_min, eps_max, samples):
    """``curve``'s CSV with the midpoints of :mod:`tree_reference`'s stresses, which never
    import rheokit: the reference for the walked columns."""
    eps = np.linspace(eps_min, eps_max, samples).tolist()
    ends = [reference.stress(doc, e) for e in eps]
    return _curve_csv(parse_model(doc), eps, [lo if lo == hi else 0.5 * lo + 0.5 * hi
                                               for lo, hi in ends])


@pytest.mark.parametrize("S, R, eps_min", [(1.0, 1.0, 0.0), (1e7, 1e-14, 1e-16),
                                           (1e-150, 1e150, 0.0)])
def test_short_curves_on_floats_match_the_array_path(tmp_path, monkeypatch, S, R, eps_min):
    """``curve`` walks a tree whose solves nest two deep on floats at 257 rates: its CSV is
    ``stress_curve``'s byte for byte, its eps column ``np.linspace``'s, and its viscosities
    and stresses agree with the reference solve to 1e-13 relative."""
    doc, out = _nested(S, R), tmp_path / "n.csv"
    monkeypatch.setattr(cli, "stress_curve", None)  # the command walks without it
    assert cli.main(["curve", "--model", write_json(tmp_path, "n.json", doc), "--eps-min",
                     repr(eps_min), "--eps-max", repr(7.0 * R), "--samples", "257",
                     "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 258
    assert out.read_text() == _curve_on_arrays(parse_model(doc), eps_min, 7.0 * R, 257)
    _assert_csv_agrees(out.read_text(), _curve_on_reference(doc, eps_min, 7.0 * R, 257))


def _close_rates_tree(rng):
    """``Serial[Parallel[W, P], D, Huber]``, its parameters log-uniform in [0.1, 10], and one
    such rate: its solves nest two deep."""
    u = lambda: 10.0 ** rng.uniform(-1.0, 1.0)  # noqa: E731
    leaf = lambda p: {"node": "leaf", "potential": p}  # noqa: E731
    return {"node": "serial", "children": [
        {"node": "parallel", "children": [
            leaf({"kind": "powerlaw", "D": u(), "n": rng.uniform(1.5, 4.0)}),
            leaf({"kind": "plastic", "sigma_a": u()})]},
        leaf({"kind": "dashpot", "D": u()}),
        leaf({"kind": "huber", "sigma_a": u(), "D": u()})]}, u()


def test_curve_stresses_never_decrease_between_close_rates(tmp_path):
    """On 100 seeded trees whose solves nest two deep, ``curve``'s stress column and
    ``stress_curve`` are nondecreasing along a grid of 300 rates 1e-14 relative apart: each
    solve of the walk starts from the last one's root.  (When ``stress_curve`` solved each
    rate on its own, stopping anywhere in a bracket 1e-14 wide, it decreased somewhere on 7
    of these grids.)  Rates unsorted and repeated, and in two dimensions, come back in their
    order and shape with the values of the walk along them sorted."""
    for seed in range(100):
        rng = random.Random(seed)
        doc, x = _close_rates_tree(rng)
        out = tmp_path / "close.csv"
        assert cli.main(["curve", "--model", write_json(tmp_path, "t.json", doc),
                         "--eps-min", repr(x), "--eps-max", repr(x * (1.0 + 299e-14)),
                         "--samples", "300", "--out", str(out)]) == 0
        eps, _, sigma = np.loadtxt(out, delimiter=",", skiprows=1).T
        assert len(sigma) == 300 and np.all(np.diff(sigma) >= 0), seed
        tree = parse_model(doc)
        assert np.all(np.diff(stress_curve(tree, eps)) >= 0), seed
        rates = np.array(rng.choices(eps.tolist(), k=300))  # shuffled, with repeats
        order = np.argsort(rates, kind="stable")
        walked = [lo if lo == hi else 0.5 * lo + 0.5 * hi
                  for lo, hi, _ in tree._walk(rates[order].tolist())]
        got = stress_curve(tree, rates.reshape(20, 15))
        assert got.shape == (20, 15) and got.ravel()[order].tolist() == walked, seed
    (lo, hi, _), = tree._walk([rates[0]])
    one = stress_curve(tree, rates[0])  # a 0-d rate gives a scalar
    assert not isinstance(one, np.ndarray) and one == (lo if lo == hi else 0.5 * lo + 0.5 * hi)
    assert stress_curve(tree, []).shape == (0,)


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
                                  (1.0, 1e-150), (1e150, 1e-150), (1e-150, 1e150)])
def test_deep_curves_walk_and_match_the_array_path(tmp_path, monkeypatch, S, R):
    """``curve`` walks trees of solve depth 3 and 4 on floats at 64 rates, at unit scale, with
    the stresses or the rates scaled by 1e+-150, and with both: its CSV is ``stress_curve``'s
    byte for byte, and its stresses agree with the reference solve to 1e-13 relative at four
    rows (the reference nests a bisection per solve, so it is slow on every row)."""
    arrays = []
    monkeypatch.setattr(cli, "stress_curve", lambda *a: arrays.append(1) or stress_curve(*a))
    for depth, tree in zip((3, 4), _deep_trees(S, R)):
        assert solve_depth(tree) == depth
        doc, out = dump_model(tree), tmp_path / "deep.csv"
        model = write_json(tmp_path, "deep.json", doc)
        assert cli.main(["curve", "--model", model, "--eps-min", "0", "--eps-max", repr(7.0 * R),
                         "--samples", "64", "--out", str(out)]) == 0
        assert out.read_text() == _curve_on_arrays(tree, 0.0, 7.0 * R, 64)
        eps, _, sigma = np.loadtxt(out, delimiter=",", skiprows=1).T
        assert len(eps) == 64 and np.all(sigma[1:] > 0), depth
        for i in (1, 9, 30, 63):
            want = reference.stress(doc, float(eps[i]))[1]
            assert abs(sigma[i] - want) <= 1e-13 * want, (depth, i, sigma[i], want)
    assert not arrays  # both curves walked


@pytest.mark.parametrize("split", [16384, 1])
def test_curve_prints_stresses_past_half_the_largest_float(tmp_path, split):
    """A dashpot of 1e300 / ``split`` at rates up to 1.5e8 * ``split`` has stresses up to
    1.5e308, past half the largest float, whichever of viscosity and rate carries the
    size: ``curve`` prints them and their viscosity with no ``inf`` anywhere, as the
    reference gives them."""
    D, eps_max = 1e300 / split, 1.5e8 * split
    tree = {"node": "leaf", "potential": {"kind": "dashpot", "D": D}}
    out = tmp_path / "big.csv"
    assert cli.main(["curve", "--model", write_json(tmp_path, "big.json", tree), "--eps-min",
                     "0", "--eps-max", repr(eps_max), "--samples", "4", "--out", str(out)]) == 0
    assert "inf" not in out.read_text()
    assert out.read_text() == _curve_on_reference(tree, 0.0, eps_max, 4)
    eps, mu, sigma = np.loadtxt(out, delimiter=",", skiprows=1).T
    assert sigma.max() > 1.4e308
    assert sigma.tolist() == [D * e for e in eps.tolist()]
    assert mu == pytest.approx([D] * 4, rel=1e-15)


# SHA-256 of two outputs of the library's array API: a 10,000-rate curve with a rest row,
# re-pinned when ``stress_curve`` took the float walk (so it is ``_WALK_PINNED``), and the
# fig6 comparison of the closed forms, pinned when short curves moved to floats.  Each is
# formatted as the command prints it.
_WIDE_CURVE = {"node": "serial", "children": [
    {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.3}},
    {"node": "leaf", "potential": {"kind": "powerlaw", "D": 0.8, "n": 3.5}},
    {"node": "parallel", "children": [
        {"node": "leaf", "potential": {"kind": "plastic", "sigma_a": 0.6}},
        {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.1}}]},
    {"node": "leaf", "potential": {"kind": "huber", "sigma_a": 1.7, "D": 0.9}}]}
_PINNED = {"curve": "4bd280d06e7abbca54fe6ebf3fcabbc5e396f9e34a9fe9e5d944c66e63ac590f",
           "compare": "56c44a7dd7189017bc6e9e0f64e8f4a58a7431bdcde3718305eaa1aba0ebb8b7"}


def test_array_path_csv_is_pinned():
    """The curve from ``stress_curve``, and the fig6 comparison from the library's array
    forms (``compare`` itself runs on floats)."""
    curve = _curve_on_arrays(parse_model(_WIDE_CURVE), 0.0, 10.0, 10000)
    assert hashlib.sha256(curve.encode()).hexdigest() == _PINNED["curve"]
    assert hashlib.sha256(_compare_on_arrays().encode()).hexdigest() == _PINNED["compare"]


# SHA-256 of the same 10,000-rate curve walked on floats, pinned when ``curve`` took
# the walk for trees of solve depth 1.
_WALK_PINNED = "4bd280d06e7abbca54fe6ebf3fcabbc5e396f9e34a9fe9e5d944c66e63ac590f"


def test_walk_csv_is_pinned_and_matches_the_array_path(tmp_path, monkeypatch):
    """The walk's curve: ``stress_curve``'s byte for byte, and its viscosities and stresses
    within 1e-13 relative of the reference solve's."""
    out = tmp_path / "walk.csv"
    monkeypatch.setattr(cli, "stress_curve", None)  # the command walks without it
    assert cli.main(["curve", "--model", write_json(tmp_path, "w.json", _WIDE_CURVE),
                     "--eps-min", "0", "--eps-max", "10", "--samples", "10000",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _WALK_PINNED
    assert len(out.read_text().splitlines()) == 10001
    assert out.read_text() == _curve_on_arrays(parse_model(_WIDE_CURVE), 0.0, 10.0, 10000)
    _assert_csv_agrees(out.read_text(), _curve_on_reference(_WIDE_CURVE, 0.0, 10.0, 10000))


# SHA-256 of ``compare --preset fig6`` filled on floats, pinned when ``compare`` took the
# float path up to 16,384 rows.  Like the pins below, it reads the platform's libm.
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
    {1, 2, 3, inf}), at 8,192 and 16,384 rows and one more each,
    and agrees with the library's array forms to 1e-13 relative."""
    for name in ("serial_dif_dsl_stress", "mu_eff_formula"):
        monkeypatch.setattr(cli, name, None)  # an array formula would fail
    for n_list, samples in (("2,3,inf", 16_384), ("2,3,inf", 16_385),
                            ("2,3,3.5,inf", 8_192), ("2,3,3.5,inf", 8_193)):
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
    monkeypatch.setattr(cli, "stress_curve", None)  # the command walks without it
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


def test_equivalence_tolerance_is_relative_to_the_stresses_compared():
    """``rigorous_tol`` is 1e-10 of the largest stress compared, the parallel-serial tree's
    ``sigma_a + 5 sigma_a D3 / D2`` at the last rate, not of a sum of a stress and two
    viscosities."""
    for sa, d2, d3 in ((1.0, 1.0, 1.0), (1e6, 1e21, 1e20), (1e-300, 1e-300, 1e-300)):
        _, dev, tol, _ = cli.equivalence_report(sa, d2, d3)
        top = three_element_stress(ThreeElementParams(sa, d2, d3), 5.0 * sa / d2)
        assert tol == pytest.approx(1e-10 * top, rel=1e-14) and dev < tol, (sa, d2, d3)


@pytest.mark.parametrize("args, message", [
    ("1e300 1e-300 1", "the serial-parallel sigma_a~ = sigma_a (1 + D3/D2) is past the float range"),
    ("1 1e308 1e308", "the serial-parallel D2~ = D2 + D3 is past the float range"),
    ("1e300 1e-10 1e-20", "the rates compared, up to 5 sigma_a / D2, leave the float range"),
    ("1e-300 1e300 1", "the rates compared, up to 5 sigma_a / D2, leave the float range"),
    ("1e307 1 10", "the stresses compared, up to sigma_a (1 + 5 D3/D2), leave the float range"),
])
def test_equivalence_at_far_scales_is_one_input_error(tmp_path, capsys, args, message):
    """A mapped parameter, the rate range or the stresses past the float range (or the rates
    under it) exit 2 with one line that names them, with no numpy warning and no report."""
    out = tmp_path / "eq.txt"
    sa, d2, d3 = args.split()
    assert cli.main(["equivalence", "--sigma-a", sa, "--d2", d2, "--d3", d3,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"rheokit: input error: {message}\n"
    assert not out.exists()


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
    """A solve that runs out of steps exits 3, on a short grid and a long one."""
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


# Exit code, stdout and stderr of each argv that ``cli.main`` refuses or answers with help, as
# the whole parser tree gave them at 80 columns on Python 3.11, before a run built only its
# command's parser.  argparse's wording and layout vary between Python versions.
_PARSER_BYTES = json.loads((Path(__file__).parent / "cli_parser_bytes.json").read_text("utf-8"))


def _parsed(parse, argv, capsys):
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return [code, out, err]


@pytest.mark.parametrize("argv, code, out, err", _PARSER_BYTES,
                         ids=[" ".join(argv) or "none" for argv, *_ in _PARSER_BYTES])
def test_the_parsers_write_the_whole_trees_bytes(monkeypatch, capsys, argv, code, out, err):
    """No command, ``--help``, an unknown command, each command's ``--help``, an unknown option,
    a bad value, a missing ``--model``, an argument left over and a bad choice: ``cli.main`` exits
    with the code and writes the bytes of the whole parser tree, those pinned on Python 3.11."""
    monkeypatch.setenv("COLUMNS", "80")
    got = _parsed(cli.main, argv, capsys)
    assert got == _parsed(cli._build_parser().parse_args, argv, capsys)
    if sys.version_info[:2] == (3, 11):
        assert got == [code, out, err]


@pytest.mark.parametrize("argv", [["curve", "--help"], ["curve", "--model", "m.json", "--", "x"]])
def test_python_m_rheokit_writes_the_parsers_bytes(capsys, argv):
    """A command's own help, and an argument left over, which the whole tree reports, reach
    ``python -m rheokit``'s streams as ``cli.main`` writes them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        proc = _python("-m", "rheokit", *argv)
        code, out, err = _parsed(cli.main, argv, capsys)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)
    if code == 0:
        assert out.startswith("usage: rheokit curve [-h]") and err == ""
    else:
        assert err.startswith("usage: rheokit [-h]") and "rheokit: error: unrecognized" in err


@pytest.mark.parametrize("argv", [
    ["curve", "--mod", "M", "--samples=3"], ["curve", "--model=M", "--eps-max", "2", "--dump-m"],
    ["compare", "--preset", "fig6", "--n-list", "2,inf"], ["equivalence", "--sigma-a", "1",
                                                           "--d2=2", "--d3", "3", "--out", "x"],
    ["simulate", "--model", "M", "--t-end=2"], ["conjugate", "--model", "M", "--sigma-m", "4"]])
def test_a_commands_own_parser_reads_what_the_tree_reads(tmp_path, capsys, argv):
    """A command's own parser takes an abbreviated option and the ``=`` form as the whole tree
    does, into the same options; ``curve --mod M --samples=3`` runs as ``curve --model M
    --samples 3``."""
    tree = vars(cli._build_parser().parse_args(argv))
    assert {**vars(cli._parse(argv)), "command": argv[0]} == tree
    if argv[1] == "--mod":
        model = write_json(tmp_path, "m.json", SERIAL_VP)
        assert cli.main(["curve", "--mod", model, "--samples=3"]) == 0
        short = capsys.readouterr()
        assert cli.main(["curve", "--model", model, "--samples", "3"]) == 0
        assert capsys.readouterr() == short and short.out.count("\n") == 4


def _python(*args):
    """``python *args`` on this tree's sources, standard streams captured as bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


_ATEXIT_FREEZE = """\
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(
    f"atexit frozen={gc.get_freeze_count() > 0} collector={gc.isenabled()}\\n"))
how, sys.argv[1:] = sys.argv[1], sys.argv[2:]
if how == "-m":  # a collection at each allocation until the collector is off: none sees the CLI
    import runpy
    gc.callbacks.append(lambda *_: "rheokit.cli" not in sys.modules or 1 / 0)
    gc.set_threshold(1)
    runpy.run_module("rheokit", run_name="__main__", alter_sys=True)
import rheokit.cli as cli
if how == "raise":
    cli.main = lambda: 1 / 0
if how == "main":
    sys.exit(cli.main())
cli.entry()
"""


_HANDLER = b"atexit frozen=True collector=False\n"  # the handler's line under entry()


@pytest.mark.parametrize("how, argv, code", [
    ("entry", ["equivalence", "--sigma-a", "1", "--d2", "1", "--d3", "1"], 0),
    ("entry", ["curve", "--no-such-option"], 2),
    ("raise", [], 1),
    ("main", ["equivalence", "--sigma-a", "1", "--d2", "1", "--d3", "1"], 0),
    ("-m", ["equivalence", "--sigma-a", "1", "--d2", "1", "--d3", "1"], 0),
    ("-m", ["curve", "--model", "m.json", "--no-such-option"], 2)])
def test_entry_freezes_the_heap_and_still_runs_atexit(how, argv, code):
    """``entry()`` freezes the heap on every exit: a returned code, argparse's own
    ``SystemExit`` and a traceback; an atexit handler registered before it still runs,
    and sees the frozen heap and the cycle collector off.  ``python -m rheokit`` turns the
    collector off before it loads the CLI.  ``main()`` leaves the heap collectable and the
    collector on."""
    proc = _python("-c", _ATEXIT_FREEZE, how, *argv)
    assert proc.returncode == code, proc.stderr
    line = b"atexit frozen=False collector=True\n" if how == "main" else _HANDLER
    assert proc.stderr.endswith(line), proc.stderr
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


@pytest.mark.parametrize("command", ["curve", "simulate", "equivalence"])
def test_an_unwritable_out_is_an_input_error(tmp_path, capsys, command):
    """An ``--out`` in a directory that does not exist exits 2 with one input-error line that
    names it, as an unreadable ``--model`` does."""
    argv = {"curve": ["curve", "--model", write_json(tmp_path, "m.json", SERIAL_VP)],
            "simulate": ["simulate", "--model", write_json(tmp_path, "s.json", RELAX_SIM)],
            "equivalence": ["equivalence", "--sigma-a", "1", "--d2", "1", "--d3", "1"]}[command]
    out = tmp_path / "no-such-dir" / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rheokit: input error: cannot write {out}: ") and err.count("\n") == 1
    assert not out.parent.exists()


def _python_buffered(*args, buffered, **kw):
    """``python *args`` on this tree's sources, stdout block-buffered or not buffered."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *([] if buffered else ["-u"]), *args], env=env, **kw)


_SHORT = ["equivalence", "--sigma-a", "1", "--d2", "1", "--d3", "1"]
_LONG = ["compare", "--preset", "fig6", "--samples", "7000"]


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [_SHORT, _LONG])
def test_entry_flushes_every_byte_before_it_exits(tmp_path, argv, buffered):
    """``entry()`` ends the process with ``os._exit`` once ``main()`` returns: stdout, block
    buffered or not, has every byte ``main()`` writes to a file, and an atexit handler runs
    once, on the frozen heap."""
    proc = _python_buffered("-c", _ATEXIT_FREEZE, "entry", *argv, buffered=buffered,
                            capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, _HANDLER)
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert proc.stdout == (tmp_path / "out").read_bytes()


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [_SHORT, _LONG])
def test_a_stdout_with_no_reader_exits_1_without_a_traceback(argv, buffered):
    """A stdout pipe whose read end is closed first: the write fails (the long output, or
    either one unbuffered) or the final flush does (the short output, buffered).  Either way
    the exit status is 1, nothing is written to stderr but the atexit handler's line, and that
    handler runs once."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _python_buffered("-c", _ATEXIT_FREEZE, "entry", *argv, buffered=buffered,
                                stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, _HANDLER)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [_SHORT, _LONG])
def test_a_full_stdout_is_an_input_error(argv, buffered):
    """Stdout on a full device fails at the write (the long output, or either one unbuffered) or
    at ``entry()``'s flush (the short output, buffered).  Either way the process exits 2, as for
    an unwritable ``--out``, with one input-error line that names stdout and the error, no
    traceback and no report from the interpreter's own flush; the atexit handler runs once."""
    with open("/dev/full", "wb") as full:
        proc = _python_buffered("-c", _ATEXIT_FREEZE, "entry", *argv, buffered=buffered,
                                stdout=full, stderr=subprocess.PIPE)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    line, handler = ("rheokit: input error: cannot write stdout: [Errno 28] No space left on "
                     "device\n"), _HANDLER.decode()
    assert err == (handler + line if buffered and argv is _SHORT else line + handler)
