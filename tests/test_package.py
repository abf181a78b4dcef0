"""The public API in ``qcoherent.__all__`` is part of the behaviour
contract: a name leaves or joins it only on purpose.  So is the set of
routes that load scipy, which sets the cost of a fresh process.  Its
entry points refuse a count or an order that is not an integer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcoherent

PUBLIC_API = [
    "BetaRoots", "BranchCrossing", "ConventionMismatch", "DivergentSeries",
    "IntegrandSpec", "LauricellaArgs", "LimitReport", "MomentReport",
    "MomentumDistribution", "MomentumSample", "NotConverged", "NumericsError",
    "OutOfValidityWindow", "ParameterPole", "PoleHit", "QuadratureResult",
    "RegimeWarning", "SlowDecay", "StateLabel", "WaveFunctionSample",
    "ZeroAmplitude", "__version__", "apply_aq", "beta_roots",
    "coherent_coefficients", "coherent_psi", "coherent_reference_moments",
    "coherent_wavefunction", "default_k_grid", "fourier_transform_line",
    "gaussian_momentum_pd", "grid_momentum_moments", "hermite_function",
    "hermite_poly", "integrate_interval", "integrate_line", "kummer_phi",
    "lauricella_fd", "lauricella_fd_integral", "lauricella_fd_series",
    "limit_convergence_check", "moments_closed", "moments_oracle",
    "momentum_amplitude_bessel", "momentum_amplitude_closed",
    "momentum_amplitude_oracle", "momentum_pd",
    "normalization_constant", "overlap", "pochhammer",
    "pseudo_coherent_wavefunction", "psi_unnormalized", "q_expansion_state",
    "q_exponential", "uncertainty_product",
]


def test_public_api_is_frozen():
    assert sorted(qcoherent.__all__) == PUBLIC_API
    assert all(hasattr(qcoherent, name) for name in PUBLIC_API)


_SCIPY_BOUNDARY = """
import contextlib, io, json, sys
import qcoherent
from qcoherent import cli, closedforms

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": loaded()}
closedforms.calibrated_reflection()
qcoherent.moments_oracle(1.5, 0.3 + 0.1j)
qcoherent.moments_closed(1.5, 0.3 + 0.1j)
with contextlib.redirect_stdout(io.StringIO()):
    seen["sweep_exit"] = cli.main(["sweep", "--q-steps", "2", "--q-max", "1.3"])
seen["moments"] = loaded()
qcoherent.momentum_pd(1.5, 0.3 + 0.1j)
seen["momentum_pd"] = "scipy.special" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_loads_only_on_the_routes_that_need_it():
    # importing the package, calibrating, both moment routes and the sweep
    # CLI run on numpy alone; scipy.special loads on the Bessel-K route
    src = str(Path(qcoherent.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _SCIPY_BOUNDARY], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(out.stdout)
    assert seen == {"import": [], "sweep_exit": 0, "moments": [], "momentum_pd": True}


def test_import_computes_no_fixed_check():
    # verify's argument-independent checks and the CLI parser are built on
    # first use, never at import
    src = str(Path(qcoherent.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import qcoherent\nfrom qcoherent import cli\n"
            "print(cli._fixed_checks.cache_info().currsize, cli._build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["0", "0"]


_INTEGER_ARGUMENTS = {
    "hermite_poly": lambda n: qcoherent.hermite_poly(n, 0.3),
    "hermite_function": lambda n: qcoherent.hermite_function(n, 0.3),
    "pochhammer": lambda n: qcoherent.pochhammer(0.5 + 0.1j, n),
    "default_k_grid": lambda n: qcoherent.default_k_grid(0.3 + 0.1j, n),
    "limit_convergence_check": lambda n: qcoherent.limit_convergence_check(
        0.3, q_sequence=(1.5,), k_points=n),
    "coherent_coefficients": lambda n: qcoherent.coherent_coefficients(0.3 + 0.1j, n),
}


@pytest.mark.parametrize("name", list(_INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_non_integers(name):
    # a count or an order goes through operator.index: a float is refused
    # with ValueError (it was a bare TypeError, or, for coherent_coefficients,
    # four coefficients for 2.5), and a numpy integer gives what an int gives
    call = _INTEGER_ARGUMENTS[name]
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="integer"):
            call(bad)
    want = call(3)
    for n in (np.int64(3), np.int32(3)):
        got = call(n)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want
