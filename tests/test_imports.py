"""Import cost: scipy is loaded only by bracket_direct's outer quadrature."""

import subprocess
import sys
import textwrap

# Every subcommand path that avoids bracket_direct, run in one process.
SCRIPT = textwrap.dedent(
    """
    import contextlib, io, sys
    import vacgas, vacgas.cli
    runs = [
        ["bracket", "--dist", "fd", "--lambda", "25", "--sharpness", "2", "--method", "em"],
        ["pressure", "--dist", "fd", "--lambda", "25", "--sharpness", "2"],
        ["sweep", "--dist", "fd", "--kc-physical", "1.8897e10", "--points", "3"],
        ["check-cutoff", "--dist", "be", "--lambda", "25", "--sharpness", "2"],
        ["temperature", "--alpha", "-1", "--kc-inverse-bohr"],
        ["montecarlo", "--dist", "sharp", "--lambda", "1", "--samples", "10000", "--seed", "7"],
    ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert vacgas.cli.run(argv) == 0, argv
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """
)


def test_non_direct_paths_load_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_direct_loads_scipy_on_first_call():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, vacgas as vg; assert 'scipy' not in sys.modules; "
            "vg.bracket_direct(vg.reduce_distribution(vg.DistributionSpec.sharp(3.0))); "
            "assert 'scipy.integrate' in sys.modules",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
