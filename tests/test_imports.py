"""Import cost: numpy loads only for eval_f, the compliance checker and Monte
Carlo; scipy only for a range QAGS must bisect and for infinite ranges."""

import ast
import subprocess
import sys
import textwrap


def loaded_after(runs, extra=""):
    """Run CLI argvs in one fresh process, then `extra`; return the loaded
    numpy and scipy modules."""
    script = textwrap.dedent(
        f"""
        import contextlib, io, sys
        import vacgas, vacgas.cli
        for argv in {runs!r}:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert vacgas.cli.run(argv) == 0, argv
        """
    )
    script += textwrap.dedent(extra)
    script += 'print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))\n'
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


FD = ["--dist", "fd", "--lambda", "25", "--sharpness", "2"]


def test_non_direct_paths_load_no_scipy():
    runs = [
        ["bracket", *FD, "--method", "em"],
        ["pressure", *FD],
        ["sweep", "--dist", "fd", "--kc-physical", "1.8897e10", "--points", "3"],
        ["check-cutoff", "--dist", "be", "--lambda", "25", "--sharpness", "2"],
        ["temperature", "--alpha", "-1", "--kc-inverse-bohr"],
        ["montecarlo", "--dist", "sharp", "--lambda", "1", "--samples", "10000", "--seed", "7"],
    ]
    assert not [m for m in loaded_after(runs) if m.split(".")[0] == "scipy"]


def test_deterministic_paths_load_neither_numpy_nor_scipy():
    runs = [
        ["bracket", *FD, "--method", "em"],
        ["bracket", *FD, "--method", "direct"],
        ["bracket", "--dist", "sharp", "--lambda", "3.5", "--method", "direct"],
        ["pressure", *FD, "--method", "direct"],
        ["pressure", *FD],
        ["sweep", "--dist", "fd", "--kc-physical", "1.8897e10", "--points", "3"],
        ["sweep", *FD, "--points", "3", "--method", "direct"],
        ["compare", *FD],
        ["temperature", "--alpha", "-1", "--kc-inverse-bohr"],
    ]
    assert loaded_after(runs) == []


def test_numpy_loads_for_check_cutoff_and_montecarlo():
    for argv in (
        ["check-cutoff", *FD],
        ["montecarlo", "--dist", "sharp", "--lambda", "1", "--samples", "10000", "--seed", "7"],
        ["bracket", *FD, "--method", "mc", "--samples", "10000"],
    ):
        loaded = loaded_after([argv])
        assert "numpy" in loaded, argv
        assert "scipy" not in loaded, argv


def test_infinite_range_loads_scipy():
    loaded = loaded_after(
        [], "vacgas.integrate(lambda u: u * u * 2.0 ** -u, 0.0, float('inf'))\n"
    )
    assert "scipy.integrate" in loaded


def test_lazy_names_stay_visible():
    extra = """
        assert set(vacgas.__all__) <= set(dir(vacgas))
        assert "numpy" not in sys.modules
        namespace = {}
        exec("from vacgas import *", namespace)
        assert set(vacgas.__all__) <= set(namespace)
        # Each resolved name is cached in the module's own namespace.
        assert vars(vacgas)["estimate_p_in"] is vacgas.montecarlo.estimate_p_in
    """
    assert "numpy" in loaded_after([], extra)


def test_sliver_knee_panels_load_no_scipy():
    # sharp cutoffs just above an integer leave a sliver knee panel whose F
    # values are rounding noise; it settles on the first Gauss-Kronrod step
    runs = [
        ["bracket", "--dist", "sharp", "--lambda", lam, "--method", "direct"]
        for lam in ("10.000000001", "50.00001", "91.00003988515027")
    ]
    assert loaded_after(runs) == []
