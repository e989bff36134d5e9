"""No command imports scipy.linalg.

The package reaches LAPACK through scipy's f2py wrappers, but it loads their
extension module (scipy/linalg/_flapack) by itself, on first use
(operators._lapack), so scipy/linalg/__init__.py never runs.  `import compext`
loads no scipy module at all; classify, extcheck and matrix need no LAPACK
from scipy, and neither do eigs, extscan and verify on a rotation, whose
truncation is diagonal, so that its eigenvalues and probe values are read off
the diagonal, nor verify on a section whose probe certifies every grid point
it scans, which computes no ratio set.  The other spectral requests (the
reliability filter's zgeev, the Sylvester probe's zgees and ztrsyl) load the
extension and the top-level scipy package only.  A later `import
scipy.linalg` still works, binds its own _flapack, and computes the same
bits.  Each check runs in a fresh interpreter, since the test process has
loaded scipy.linalg already.
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


def test_no_command_imports_scipy_linalg():
    _run("""
        import contextlib, io, sys
        import compext, compext.cli
        import compext.extspec as extspec

        def scipy_modules():
            return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

        assert not scipy_modules()
        phi = "--phi=0.5,0.1,0,1"
        requests = [
            ["classify", phi],
            ["extcheck", phi, "--n", "16", "--lam", "1", "--witness", "identity"],
            ["matrix", phi, "--n", "16", "--format", "mm"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in requests:
                assert compext.cli.main(argv) == 0, argv
        assert not scipy_modules()
        automorphism = ["--phi=1,0.5,0.5,1", "--space", "bergman", "--n", "48"]  # dense, hyperbolic
        affine = ["--phi=0.5,0.5,0,1", "--space", "bergman", "--n", "48"]  # upper triangular
        requests = [[command] + args for args in (automorphism, affine) for command in ("eigs", "extscan", "verify")]
        # the probe's iteration route: a Schur form, then ztrsyl through extspec.lapack
        requests.append(["extscan", "--phi=0.9,0.05,0,1", "--space", "fock", "--n", "24"])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in requests:
                # verify exits 1 when a check fails, which the automorphism's does
                assert compext.cli.main(argv) in (0, 1), argv
        assert "lapack" in vars(extspec)  # the scan solved through the seam
        assert "scipy" in sys.modules
        assert not [m for m in scipy_modules() if m.startswith("scipy.linalg")]

        # scipy.linalg still imports, binds its own _flapack and computes the same bits
        import numpy as np
        import scipy.linalg
        from compext import SpaceSpec, composition_matrix, standard_form
        from compext.operators import _eig_with_reliability

        assert scipy.linalg._flapack.zgeev is extspec.lapack.zgeev
        A = composition_matrix(standard_form("hyperbolic-automorphism", r=0.5), SpaceSpec("bergman"), 64)
        got = _eig_with_reliability(A)
        w, vl, vr = scipy.linalg.eig(A.entries, left=True, right=True)
        overlap = np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
        norms = np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0)
        rcond = overlap / np.where(norms == 0, 1.0, norms)
        eps = np.finfo(float).eps
        err = np.where(rcond > 0, eps * A.svdvals[0] / np.where(rcond == 0, 1.0, rcond), np.inf)
        assert np.array_equal(got[0], w) and np.array_equal(got[1], err)
    """)


def test_scans_of_rotations_never_load_scipy_linalg():
    # a rotation's truncation is diagonal: the probe takes its exact route,
    # and nothing loads LAPACK from scipy, nor scipy itself
    _run("""
        import contextlib, io, sys
        import compext.cli

        fock = ["--phi=i,0,0,1", "--space", "fock", "--n", "16", "--points", "16"]
        bergman = ["--phi=0.6+0.8i,0,0,1", "--space", "bergman", "--n", "16", "--points", "16"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for args in (fock, bergman):
                for command in ("extscan", "verify"):
                    assert compext.cli.main([command] + args) == 0, (command, args)
        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    """)


def test_verify_of_a_certified_section_loads_no_scipy():
    # at n = 48 the hyperbolic automorphism's section is numerically singular:
    # the probe's certificate flags all 16 scan points, so verify, which reads
    # only the flags, never computes the ratio set and its zgeev
    _run("""
        import contextlib, io, sys
        import compext.cli

        argv = ["verify", "--phi=1,0.5,0.5,1", "--space", "bergman", "--n", "48", "--points", "16"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert compext.cli.main(argv) == 0
        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
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
        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    """)


def test_lapack_seam_resolves_before_any_probe():
    _run("""
        import sys
        import compext.extspec as extspec

        assert callable(extspec.lapack.ztrsyl)
        assert extspec.lapack.__name__ == "scipy.linalg._flapack"  # the extension, not scipy.linalg.lapack
        assert not [m for m in sys.modules if m.startswith("scipy.linalg")]
    """)

