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
from rheokit.errors import NonConvergenceError, SchemaError
from rheokit.potentials import Dashpot, Huber, PerfectPlastic, PowerLaw
from rheokit.rheology import Leaf, Parallel, Serial, stress_curve
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
    """A grid of at most ``FLOAT_RATES`` rates on a tree whose solves nest at most
    ``FLOAT_DEPTH`` deep runs on floats: its eps column is the array path's byte for
    byte, its viscosities and stresses agree with it to 1e-13 relative."""
    model = write_json(tmp_path, "n.json", _nested(S, R))
    argv = ["curve", "--model", model, "--eps-min", repr(eps_min), "--eps-max", repr(7.0 * R),
            "--samples", str(cli.FLOAT_RATES)]
    arrays = []
    monkeypatch.setattr(cli, "stress_curve", lambda *a: arrays.append(1) or stress_curve(*a))
    columns = []
    for rates in (cli.FLOAT_RATES, 0):  # the float path, then the array path
        monkeypatch.setattr(cli, "FLOAT_RATES", rates)
        out = tmp_path / f"{rates}.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        columns.append(list(zip(*(ln.split(",") for ln in out.read_text().splitlines()[1:]))))
    assert len(arrays) == 1  # only the second run took the array path
    (eps_f, *rest_f), (eps_a, *rest_a) = columns
    assert eps_f == eps_a and len(eps_f) == 64
    for f, a in zip(rest_f, rest_a):
        f, a = np.array(f, dtype=float), np.array(a, dtype=float)
        assert np.all((f == a) | (np.abs(f - a) <= 1e-13 * np.abs(a))), (f, a)


# SHA-256 of two outputs of the array path, pinned when short curves moved to
# floats: a 10,000-rate curve with a rest row, and the fig6 comparison.
_WIDE_CURVE = {"node": "serial", "children": [
    {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.3}},
    {"node": "leaf", "potential": {"kind": "powerlaw", "D": 0.8, "n": 3.5}},
    {"node": "parallel", "children": [
        {"node": "leaf", "potential": {"kind": "plastic", "sigma_a": 0.6}},
        {"node": "leaf", "potential": {"kind": "dashpot", "D": 1.1}}]},
    {"node": "leaf", "potential": {"kind": "huber", "sigma_a": 1.7, "D": 0.9}}]}
_PINNED = {"curve": "62df404c1a24037166e6d12517b4c4a455c8b6c921912c0ca2a3a0696814fe4a",
           "compare": "56c44a7dd7189017bc6e9e0f64e8f4a58a7431bdcde3718305eaa1aba0ebb8b7"}


def test_array_path_csv_is_pinned(tmp_path):
    model = write_json(tmp_path, "w.json", _WIDE_CURVE)
    runs = {"curve": ["curve", "--model", model, "--eps-min", "0", "--eps-max", "10",
                      "--samples", "10000"],
            "compare": ["compare", "--preset", "fig6"]}
    for name, argv in runs.items():
        out = tmp_path / f"{name}.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED[name], name


# SHA-256 of four outputs of the float path (64 rates with a rest row, on the two
# depth-2 trees above at unit and geo scale), pinned before the tree nodes bound
# their float laws.  Like the pins above, they read the platform's libm (``pow``,
# ``log1p``, ``expm1``), so a machine whose libm rounds otherwise may need its own.
_FLOAT_PINNED = {
    ("serial", 1.0): "ef75671be4fc04fdeaecf06d89661c00b7be6f823134ed588dac053d4a2ce555",
    ("serial", 1e7): "c7fce05a739f4708f5ccb7955b2c97125a7e7ec522ae55ad5d9978dd375ca947",
    ("parallel", 1.0): "f5a732516b2afa1deb8ed5255edd7af8908d070f67a07e27d081db56229066ac",
    ("parallel", 1e7): "bc94d2e175f7be3b274ecae079dbd677e3ab1b9eec7f73aafdf150e1d96fa73d",
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


def test_console_entry_point(tmp_path):
    model = write_json(tmp_path, "m.json", SERIAL_VP)
    proc = subprocess.run(
        [sys.executable, "-m", "rheokit", "curve", "--model", model,
         "--eps-min", "1", "--eps-max", "2", "--samples", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "eps,mu_eff,sigma"
