"""Command-line interface: envelopes, formats, determinism, exit codes."""

import json
import math
import subprocess
import sys

import pytest

import vacgas
from vacgas import DistributionSpec, bracket_euler_maclaurin, reduce_distribution
from vacgas.cli import run

FD_25_2 = ["--dist", "fd", "--lambda", "25", "--sharpness", "2"]
SWEEP_HEADER = (
    "d_m,lambda,bracket_value,bracket_error,pressure_pa,ideal_pressure_pa,relative_deviation"
)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def csv_rows(text):
    lines = [l for l in text.strip().splitlines() if l and not l.startswith("#")]
    return lines[0], [line.split(",") for line in lines[1:]]


# -- envelope ------------------------------------------------------------------


def test_json_envelope_shape(capsys):
    env = run_json(capsys, ["bracket", "--dist", "sharp", "--lambda", "5", "--method", "direct"])
    assert set(env) == {"config", "results", "diagnostics", "version"}
    assert env["version"] == vacgas.__version__
    assert env["config"]["subcommand"] == "bracket"
    assert env["config"]["dist"] == "sharp"
    assert len(env["results"]) == 1
    assert env["results"][0]["value"] == pytest.approx(-25.0 / 6.0, rel=1e-9)
    assert env["results"][0]["method"] == "direct"
    assert env["diagnostics"]["lambda_plateau"] is False


def test_bracket_em_matches_library(capsys):
    env = run_json(
        capsys,
        ["bracket", "--dist", "fd", "--lambda", "25", "--sharpness", "2", "--method", "em"],
    )
    lib = bracket_euler_maclaurin(reduce_distribution(DistributionSpec.fermi_dirac(25.0, 2.0)))
    assert env["results"][0]["value"] == lib.value
    assert env["diagnostics"]["sign_variant_value"] == lib.diagnostics["sign_variant_value"]


def test_bracket_mc_runs(capsys):
    env = run_json(
        capsys,
        [
            "bracket", "--dist", "fd", "--lambda", "25", "--sharpness", "2",
            "--method", "mc", "--samples", "100000", "--seed", "4",
        ],
    )
    assert env["results"][0]["method"] == "mc"
    assert env["diagnostics"]["samples"] == 100000


# -- sweep ---------------------------------------------------------------------


def test_sweep_csv_layout(capsys):
    code = run(
        [
            "sweep", "--dist", "fd", "--kc-inverse-bohr",
            "--dmin", "0.6e-6", "--dmax", "6e-6", "--points", "13", "--format", "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    header, rows = csv_rows(out)
    assert header == SWEEP_HEADER
    assert len(rows) == 13
    ds = [float(r[0]) for r in rows]
    assert ds[0] == 0.6e-6
    assert ds[-1] == 6e-6
    assert ds == sorted(ds)
    for row in rows:
        assert abs(float(row[6])) < 5e-2
    comments = [l for l in out.splitlines() if l.startswith("#")]
    assert comments[0] == f"# vacgas {vacgas.__version__}"
    assert comments[1].startswith("# config ")


def test_sweep_fixed_cutoff_mode(capsys):
    env = run_json(
        capsys,
        [
            "sweep", "--dist", "fd", "--lambda", "25", "--sharpness", "2",
            "--dmin", "1e-6", "--dmax", "2e-6", "--points", "3",
        ],
    )
    assert env["diagnostics"]["mode"] == "fixed-lambda"
    assert len(env["results"]) == 3
    p = [row["pressure_pa"] for row in env["results"]]
    assert p[0] < 0.0
    assert p[-1] == pytest.approx(p[0] / 16.0, rel=1e-9)


def test_sweep_physical_mode_diagnostics(capsys):
    env = run_json(
        capsys,
        ["sweep", "--dist", "fd", "--kc-inverse-bohr", "--points", "3"],
    )
    assert env["diagnostics"]["mode"] == "physical-kc"
    assert env["diagnostics"]["all_within_ideal"] is True
    lams = [row["lambda"] for row in env["results"]]
    assert lams == sorted(lams)


def test_sweep_mode_flags_are_exclusive(capsys):
    code = run(
        [
            "sweep", "--dist", "fd", "--lambda", "25", "--sharpness", "2",
            "--kc-inverse-bohr", "--points", "3",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_fixed_mode_rejects_a_different_alpha(capsys):
    argv = ["sweep", "--dist", "fd", "--lambda", "25", "--sharpness", "2", "--points", "3"]
    assert run([*argv, "--alpha", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--alpha -3.0" in captured.err
    # The spec's own affinity, as the echo records it, is accepted.
    assert run(argv) == 0
    plain = capsys.readouterr().out
    assert run([*argv, "--alpha", "-50.0"]) == 0
    assert capsys.readouterr().out == plain


def test_sweep_sharp_physical_mode(capsys):
    argv = ["sweep", "--dist", "sharp", "--kc-physical", "1e10", "--points", "3"]
    env = run_json(capsys, argv)
    # a step has no affinity, so none is echoed
    assert env["config"]["alpha"] is None
    assert env["diagnostics"]["mode"] == "physical-kc"
    assert len(env["results"]) == 3
    for row in env["results"]:
        spec = DistributionSpec.sharp(1e10 * row["d_m"] / math.pi)
        em = bracket_euler_maclaurin(reduce_distribution(spec))
        assert row["lambda"] == spec.cutoff
        assert row["bracket_value"] == em.value
        assert row["bracket_error"] == em.error_estimate
    assert run(argv_from_config(env["config"])) == 0
    assert json.loads(capsys.readouterr().out) == env


def assert_exit_one(capsys, argv):
    assert run(argv) == 1, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--dist", "fd"],
        ["sweep", "--dist", "fd", "--kc-physical", "1e10", "--sharpness", "2"],
        ["sweep", "--dist", "fd", "--kc-physical", "1e10", "--alpha", "5"],
        ["sweep", "--dist", "sharp", "--kc-physical", "1e10", "--alpha", "5"],
        ["sweep", "--dist", "fd", "--kc-physical", "1e10", "--kc-inverse-bohr"],
        ["temperature", "--alpha", "-1"],
        ["bracket", *FD_25_2, "--em-order", "18"],
    ],
    ids=[
        "sweep-no-mode", "physical-sharpness", "physical-fd-positive-alpha",
        "physical-sharp-alpha", "both-kc-flags", "temperature-no-kc", "em-order-18",
    ],
)
def test_rejected_arguments_exit_one(capsys, argv):
    assert_exit_one(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "--dist", "sharp", "--lambda", "inf", "--method", "direct"],
        ["pressure", *FD_25_2, "--dmin", "inf"],
        ["bracket", "--dist", "fd", "--lambda", "inf", "--sharpness", "2"],
        ["bracket", "--dist", "fd", "--lambda", "25", "--sharpness", "inf", "--method", "direct"],
        ["temperature", "--alpha", "-1", "--kc-physical", "inf"],
        ["temperature", "--alpha", "nan", "--kc-physical", "1e10"],
    ],
    ids=["sharp-lambda", "dmin", "fd-lambda", "sharpness", "kc-physical", "alpha"],
)
def test_non_finite_inputs_exit_one(capsys, argv):
    assert_exit_one(capsys, argv)


def test_csv_and_json_agree_numerically(capsys):
    argv = [
        "sweep", "--dist", "fd", "--lambda", "25", "--sharpness", "2",
        "--dmin", "1e-6", "--dmax", "2e-6", "--points", "3",
    ]
    env = run_json(capsys, argv)
    assert run(argv + ["--format", "csv"]) == 0
    _, rows = csv_rows(capsys.readouterr().out)
    for row, res in zip(rows, env["results"]):
        assert float(row[0]) == res["d_m"]
        assert float(row[2]) == res["bracket_value"]
        assert float(row[4]) == res["pressure_pa"]
        assert float(row[5]) == res["ideal_pressure_pa"]


# -- other subcommands ------------------------------------------------------------


def test_pressure_row(capsys):
    env = run_json(
        capsys,
        ["pressure", "--dist", "fd", "--lambda", "25", "--sharpness", "2", "--dmin", "1e-6"],
    )
    row = env["results"][0]
    assert row["d_m"] == 1e-6
    assert row["pressure_pa"] == pytest.approx(-1.30e-3, rel=5e-3)
    assert row["ideal_pressure_pa"] == pytest.approx(-1.3001257724477536e-3, rel=1e-12)
    assert abs(row["relative_deviation"]) < 1e-9


def test_compare_reports_speedup_and_gap(capsys):
    env = run_json(
        capsys, ["compare", "--dist", "fd", "--lambda", "25", "--sharpness", "2"]
    )
    methods = {row["method"] for row in env["results"]}
    assert methods == {"direct", "em"}
    assert env["diagnostics"]["evaluation_ratio"] >= 20.0
    direct, em = (
        next(row for row in env["results"] if row["method"] == m) for m in ("direct", "em")
    )
    assert env["diagnostics"]["evaluation_ratio"] == (
        direct["distribution_evaluations"] / em["distribution_evaluations"]
    )
    assert env["diagnostics"]["relative_difference"] > 0.5
    # one closed-form I(u) per nonzero F: 1100 series and panel points, 32 stencil points
    assert direct["distribution_evaluations"] == 1100
    assert em["distribution_evaluations"] == 32


def test_check_cutoff_verdicts(capsys):
    env = run_json(
        capsys, ["check-cutoff", "--dist", "fd", "--lambda", "25", "--sharpness", "2"]
    )
    row = env["results"][0]
    assert row["verdict"] is True
    assert row["epsilon"] == 0.01
    env = run_json(
        capsys, ["check-cutoff", "--dist", "mb", "--lambda", "25", "--sharpness", "2"]
    )
    assert env["results"][0]["verdict"] is False
    assert env["results"][0]["passes_decay"] is True


def test_check_cutoff_csv_booleans(capsys):
    code = run(
        [
            "check-cutoff", "--dist", "fd", "--lambda", "25", "--sharpness", "2",
            "--format", "csv",
        ]
    )
    assert code == 0
    header, rows = csv_rows(capsys.readouterr().out)
    assert "verdict" in header.split(",")
    assert "true" in rows[0]


def test_temperature_paper_note_on_stderr(capsys):
    code = run(["temperature", "--alpha", "-1", "--kc-inverse-bohr"])
    captured = capsys.readouterr()
    assert code == 0
    env = json.loads(captured.out)
    assert env["results"][0]["temperature_k"] == pytest.approx(1.368723060405483e33, rel=1e-12)
    assert captured.err.strip() != ""


def test_temperature_energy_convention_quiet(capsys):
    code = run(
        ["temperature", "--alpha", "-1", "--kc-inverse-bohr", "--convention", "energy"]
    )
    captured = capsys.readouterr()
    assert code == 0
    env = json.loads(captured.out)
    assert env["results"][0]["temperature_k"] == pytest.approx(4.327e7, rel=2e-3)
    assert captured.err.strip() == ""


def test_montecarlo_subcommand(capsys):
    env = run_json(
        capsys,
        [
            "montecarlo", "--dist", "sharp", "--lambda", "1",
            "--samples", "1000000", "--seed", "3", "--dmin", "1e-6",
        ],
    )
    row = env["results"][0]
    assert row["samples_used"] == 1000000
    assert row["pressure_in_pa"] > 0.0
    assert row["pressure_in_se_pa"] > 0.0
    assert env["diagnostics"]["relative_standard_error"] < 0.05


# -- determinism --------------------------------------------------------------------


def test_byte_identical_reruns(capsys):
    argv = [
        "montecarlo", "--dist", "fd", "--lambda", "25", "--sharpness", "2",
        "--samples", "1000000", "--seed", "12", "--streams", "2",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


DIST_KEYS = ["subcommand", "dist", "lambda", "sharpness"]
DETERMINISTIC_KEYS = ["em_order", "quad_tol"]
SAMPLING_KEYS = ["samples", "seed", "streams"]
OUTPUT_KEYS = ["format", "out"]

# (argv, the echoed config's keys in order); one case per subcommand and mode
ROUND_TRIP_CASES = [
    (
        ["montecarlo", *FD_25_2, "--samples", "100000", "--seed", "42"],
        DIST_KEYS + SAMPLING_KEYS + ["dmin"] + OUTPUT_KEYS,
    ),
    *(
        (
            ["bracket", *FD_25_2, "--method", method, "--samples", "100000", "--seed", "4"],
            DIST_KEYS + ["method"] + DETERMINISTIC_KEYS + SAMPLING_KEYS + OUTPUT_KEYS,
        )
        for method in ("em", "direct", "mc")
    ),
    (
        ["pressure", *FD_25_2, "--dmin", "1e-6"],
        DIST_KEYS + ["method"] + DETERMINISTIC_KEYS + ["dmin"] + OUTPUT_KEYS,
    ),
    *(
        (
            ["sweep", *mode, "--dmin", "1e-6", "--dmax", "2e-6", "--points", "3"],
            DIST_KEYS + ["alpha", "kc_physical", "method"] + DETERMINISTIC_KEYS
            + ["dmin", "dmax", "points"] + OUTPUT_KEYS,
        )
        for mode in (["--dist", "fd", "--kc-inverse-bohr"], FD_25_2)
    ),
    (["compare", *FD_25_2], DIST_KEYS + DETERMINISTIC_KEYS + OUTPUT_KEYS),
    (["check-cutoff", *FD_25_2], DIST_KEYS + ["epsilon"] + OUTPUT_KEYS),
    (
        ["temperature", "--alpha", "-1", "--kc-inverse-bohr"],
        ["subcommand", "alpha", "kc_physical", "convention"] + OUTPUT_KEYS,
    ),
]


def argv_from_config(cfg):
    argv = [cfg["subcommand"]]
    for key, value in cfg.items():
        if key != "subcommand" and value is not None:
            argv += ["--" + key.replace("_", "-"), repr(value) if isinstance(value, float) else str(value)]
    return argv


def test_config_echo_round_trips(capsys):
    # every subcommand's echo replays its run bit for bit, in a pinned key order
    for argv, keys in ROUND_TRIP_CASES:
        assert run(argv) == 0, argv
        first = capsys.readouterr().out
        cfg = json.loads(first)["config"]
        assert list(cfg) == keys, argv
        assert run(argv_from_config(cfg)) == 0, argv
        assert capsys.readouterr().out == first, argv


# -- plumbing -----------------------------------------------------------------------


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = run(
        ["bracket", "--dist", "sharp", "--lambda", "3", "--method", "direct", "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    env = json.loads(target.read_text())
    assert env["results"][0]["value"] == pytest.approx(-1.5, rel=1e-9)


def test_exit_code_two_for_usage_errors(capsys):
    assert run(["bracket", "--dist", "fd", "--lambda", "25", "--method", "bogus"]) == 2
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_exit_code_one_for_model_errors(capsys):
    code = run(
        ["bracket", "--dist", "be", "--lambda", "25", "--sharpness", "2", "--method", "direct"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = run(["bracket", "--dist", "fd", "--method", "em"])
    assert code == 1
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == 0
    assert run(["bracket", "--help"]) == 0
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "vacgas",
            "bracket", "--dist", "sharp", "--lambda", "5", "--method", "direct",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["results"][0]["value"] == pytest.approx(-25.0 / 6.0, rel=1e-9)
