"""scipy.linalg is loaded on first use, not with the package.

classify, extcheck and matrix need no spectral computation, so a process that
runs only those never imports scipy.linalg.  eigs, extscan and verify import it
when a truncation needs LAPACK's eigenvectors (the reliability filter) or the
Sylvester probe's iteration; a rotation's truncation is diagonal, and its
eigenvalues and probe values are read off the diagonal without it.  Each check
runs in a fresh interpreter, since the test process has loaded scipy already.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_scipy_linalg_loads_only_for_spectral_commands():
    _run("""
        import contextlib, io, sys
        import compext, compext.cli

        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        phi = "--phi=0.5,0.1,0,1"
        requests = [
            ["classify", phi],
            ["extcheck", phi, "--n", "16", "--lam", "1", "--witness", "identity"],
            ["matrix", phi, "--n", "16", "--format", "mm"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in requests:
                assert compext.cli.main(argv) == 0, argv
        assert "scipy.linalg" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            assert compext.cli.main(["eigs", phi, "--n", "16"]) == 0
        assert "scipy.linalg" in sys.modules
    """)


def test_scans_of_rotations_never_load_scipy_linalg():
    # a rotation's truncation is diagonal: the probe takes its exact route
    _run("""
        import contextlib, io, sys
        import compext.cli

        fock = ["--phi=i,0,0,1", "--space", "fock", "--n", "16", "--points", "16"]
        bergman = ["--phi=0.6+0.8i,0,0,1", "--space", "bergman", "--n", "16", "--points", "16"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for args in (fock, bergman):
                for command in ("extscan", "verify"):
                    assert compext.cli.main([command] + args) == 0, (command, args)
        assert "scipy.linalg" not in sys.modules
    """)


def test_eigs_of_rotations_never_loads_scipy_linalg():
    _run("""
        import contextlib, io, sys
        import compext.cli

        fock = ["--phi=i,0,0,1", "--space", "fock", "--n", "64"]
        bergman = ["--phi=0.6+0.8i,0,0,1", "--space", "bergman", "--n", "64"]
        with contextlib.redirect_stdout(io.StringIO()):
            for args in (fock, bergman):
                assert compext.cli.main(["eigs"] + args) == 0, args
        assert "scipy.linalg" not in sys.modules
    """)


def test_lapack_seam_resolves_before_any_probe():
    _run("""
        import sys
        import compext.extspec as extspec

        assert "scipy.linalg" not in sys.modules
        assert callable(extspec.lapack.ztrsyl)
        assert extspec.lapack is sys.modules["scipy.linalg.lapack"]
    """)
