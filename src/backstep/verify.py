"""Stability constants, decay-rate fits and the scenario pipeline.

Turns a scenario config into: solved kernels, closed-loop and target
trajectories, norm traces, explicit stability constants, fitted decay
rates and pass/fail envelope checks, with all artifacts written as CSV
plus a JSON report and a MANIFEST.
"""
from __future__ import annotations

import configparser
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import _csvout
from .coefficients import CoefficientFamily, ProblemSpec, horner, lambda_lower
from .kernel import (
    MIN_N_XI,
    GoursatProblem,
    KernelConstants,
    KernelGrid,
    kernel_constants,
    picard_solve,
    series_oracle,
)
from .norms import NormTrace, _check_tau, alf, gronwall_bound, norm_trace, rho
from .simulator import SimConfig, Trajectory, simulate_closed_loop, simulate_target
from .transforms import (
    CompatibilityReport,
    Profile,
    check_compatibility,
    initial_target_data,
    make_compatible,
)


class ConfigError(ValueError):
    """Scenario configuration failed to parse or validate."""


class FitError(RuntimeError):
    """Log-linear fit window holds fewer than two samples or a nonpositive value."""


# --------------------------------------------------------------------------
# explicit stability constants
# --------------------------------------------------------------------------


def constants_for_p(p: float, con: KernelConstants) -> dict:
    """Envelope constants for one p from the kernel maxima.

    Finite p gives C1 ("lp") and C2 ("w1p") with gamma1, gamma2; p = inf
    gives C3 and C4 with gamma3, gamma4.  gamma3 follows the four-branch
    table in alpha1, beta1 (the <= 1 branches cover the zero-kernel edge);
    C3 is the p -> inf limit of C1 and the L^inf constant feeding C4.
    """
    if not p >= 1.0:
        raise ValueError(f"the envelope constants need p >= 1, got {p}")
    if any(m < 0 for m in con):
        raise ValueError("kernel maxima must be nonnegative")
    a1, a2, a3, b1, b2, b3 = con
    if np.isinf(p):
        gamma3 = max(1.0, a1) * max(1.0, b1)
        C3 = 4.0 * gamma3
        gamma4 = max(1.0, b2 + b3)
        C4 = max(9.0 * gamma4, C3 + 9.0 * gamma4 * (1 + a1 + a2 + a3))
        return {"lp": float(C3), "w1p": float(C4), "gamma3": gamma3, "gamma4": gamma4}
    try:
        C1 = float((4.0 ** (p - 1) * (1 + a1 ** p) * (1 + b1 ** p)) ** (1.0 / p))
        gamma1 = max(1.0, b2 ** p + b3 ** p)
        gamma2 = C1 ** p + 9.0 ** (p - 1) * gamma1 * (1 + a1 ** p + a2 ** p + a3 ** p)
        C2 = max(9.0 ** ((p - 1) / p) * gamma1 ** (1.0 / p), gamma2 ** (1.0 / p))
    except OverflowError:
        raise OverflowError(f"the envelope constants overflow a float at p = {p:g}") from None
    return {"lp": C1, "w1p": float(C2), "gamma1": float(gamma1), "gamma2": float(gamma2)}


# --------------------------------------------------------------------------
# fits and envelope checks
# --------------------------------------------------------------------------


def fit_decay_rate(trace: NormTrace, skip_fraction: float):
    """Least-squares exponential fit on the trailing window.

    Returns (C, sigma, rms_residual) from log(values) ~ log C - sigma t
    over t >= skip_fraction * T.  Raises FitError unless that window holds
    at least two samples, all positive.
    """
    if not (0.0 <= skip_fraction < 1.0):
        raise ValueError("skip_fraction must lie in [0, 1)")
    t = np.asarray(trace.times, dtype=float)
    v = np.asarray(trace.values, dtype=float)
    mask = t >= skip_fraction * t[-1]
    n_window = int(np.count_nonzero(mask))
    if n_window < 2:
        raise FitError(f"the fit window t >= {skip_fraction * t[-1]:g} holds {n_window} "
                       "sample(s); a line needs two")
    if np.any(v[mask] <= 0.0):
        raise FitError(
            "nonpositive values inside the fit window "
            "(decay reached the floating-point floor; shrink the window)"
        )
    logs = np.log(v[mask])
    slope, intercept = np.polyfit(t[mask], logs, 1)
    fitted = intercept + slope * t[mask]
    rms = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    return float(np.exp(intercept)), float(-slope), rms


@dataclass(frozen=True)
class BoundCheck:
    passed: bool
    worst_t: float
    margin: float  # min over t of log(envelope/value), slack excluded


def check_envelope(trace: NormTrace, envelope, slack: float, name: str = "") -> BoundCheck:
    """Check values(t) <= slack * envelope(t), ``envelope`` sampled at the trace's times.

    The one comparison behind every pass flag.  Raises OverflowError, led
    by ``name`` if given, naming the first time where a value or the
    envelope is not finite: no comparison with an overflowed float decides
    a bound.
    """
    if not (1.0 <= slack < math.inf):
        raise ValueError("slack must be finite and >= 1")
    t = np.asarray(trace.times, dtype=float)
    v = np.asarray(trace.values, dtype=float)
    finite = np.isfinite(v) & np.isfinite(envelope)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise OverflowError(f"{name}{': ' if name else ''}a norm trace or its envelope is not "
                            f"finite at t = {t[i]:g} (value {v[i]:g}, envelope {envelope[i]:g})")
    # a few ulps of headroom so exact-equality envelopes are not rejected
    # by rounding in the envelope evaluation itself
    ok = v <= slack * envelope * (1.0 + 8.0 * np.finfo(float).eps) + 1e-300
    worst = int(np.argmax(v - slack * envelope))
    tiny = max(np.max(v), 1.0) * 1e-250
    margin = float(np.min(np.log((envelope + tiny) / np.maximum(v, tiny))))
    return BoundCheck(bool(np.all(ok)), float(t[worst]), margin)


def verify_theorem_bound(
    trace: NormTrace,
    C_bound: float,
    lam: float,
    initial_norm: float,
    slack: float,
    name: str = "",
) -> BoundCheck:
    """:func:`check_envelope` of values(t) <= slack * C_bound * exp(-lam t) * initial_norm."""
    t = np.asarray(trace.times, dtype=float)
    return check_envelope(trace, C_bound * initial_norm * np.exp(-lam * t), slack, name)


# --------------------------------------------------------------------------
# scenario configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSettings:
    n_xi: int = 401
    tol: float = 1e-10
    max_iter: int = 80

    def __post_init__(self):
        if not (self.tol > 0 and self.max_iter >= 1 and self.n_xi >= MIN_N_XI and self.n_xi % 2):
            raise ConfigError(f"kernel settings need tol > 0, max_iter >= 1 and odd n_xi >= "
                              f"{MIN_N_XI}, got {self}")


#: each initial-datum family's parameters and their defaults
_INITIAL_FAMILIES = {
    "constant": {"a": 1.0},
    "cosine": {"a": 1.0, "modes": 1.0},
    "polynomial": {"coeffs": (1.0,)},
    "bump": {"center": 0.5, "width": 0.3, "height": 1.0},
}


@dataclass(frozen=True)
class InitialData:
    """Named initial-datum family for the closed-loop run."""

    family: str = "bump"
    params: dict = field(default_factory=dict)
    adjust_compatibility: bool = True

    def __post_init__(self):
        if self.family not in _INITIAL_FAMILIES:
            raise ConfigError(f"unknown initial-data family {self.family!r}")
        unknown = sorted(set(self.params) - set(_INITIAL_FAMILIES[self.family]))
        if unknown:
            raise ConfigError(f"initial-data family {self.family!r} takes no "
                              f"parameter {', '.join(unknown)}")
        p = self.params  # the defaults in _INITIAL_FAMILIES pass every check
        for key, value in p.items():
            if not all(math.isfinite(v) for v in (value if key == "coeffs" else (value,))):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if "modes" in p and not float(p["modes"]).is_integer():
            raise ConfigError(f"cosine modes must be a whole number, got {p['modes']!r}")
        if "width" in p and not p["width"] > 0:
            raise ConfigError(f"bump width must be > 0, got {p['width']!r}")
        if "coeffs" in p and len(p["coeffs"]) == 0:
            raise ConfigError("polynomial coeffs must be non-empty")

    def build(self, grid_m: int) -> Profile:
        p = {**_INITIAL_FAMILIES[self.family], **self.params}
        x = np.linspace(0.0, 1.0, grid_m)
        if self.family == "constant":
            vals = np.full(grid_m, float(p["a"]))
        elif self.family == "cosine":
            vals = float(p["a"]) * np.cos(int(p["modes"]) * np.pi * x)
        elif self.family == "polynomial":
            vals = horner(x, np.asarray(p["coeffs"], dtype=float))
        else:
            c, wd, hgt = (float(p[k]) for k in ("center", "width", "height"))
            d = np.abs(x - c)
            vals = np.zeros(grid_m)
            inside = d < wd  # so d / wd < 1 cannot overflow
            vals[inside] = hgt * np.exp(1.0 - 1.0 / (1.0 - (d[inside] / wd) ** 2))
        return Profile(grid_m, vals)


@dataclass(frozen=True)
class ScenarioConfig:
    spec: ProblemSpec
    kernel: KernelSettings = field(default_factory=KernelSettings)
    sim: SimConfig = field(default_factory=SimConfig)
    initial_data: InitialData = field(default_factory=InitialData)
    p_list: tuple = (1.0, 2.0, math.inf)
    tau_list: tuple = (1e-1, 1e-2, 1e-3)
    skip_fraction: float = 0.1
    slack: float = 1.05
    outputs: str = "out"

    def __post_init__(self):
        if len(self.p_list) == 0 or any(not (p >= 1.0) for p in self.p_list):
            raise ConfigError("p_list must be non-empty with every p >= 1")
        try:
            for tau in self.tau_list:
                _check_tau(tau)
        except ValueError as exc:
            raise ConfigError(f"tau_list: {exc}") from None
        if not (0.0 <= self.skip_fraction < 1.0):
            raise ConfigError(f"skip_fraction must lie in [0, 1), got {self.skip_fraction}")
        if not (1.0 <= self.slack < math.inf):
            raise ConfigError(f"slack must be finite and >= 1, got {self.slack}")
        for name, tag in (("p_list", _ptag), ("tau_list", _tautag)):
            seen = {}
            for v in getattr(self, name):  # one tag per value: its flags, traces and constants
                if tag(v) in seen:
                    raise ConfigError(f"{name}: {seen[tag(v)]!r} and {v!r} share the tag {tag(v)}")
                seen[tag(v)] = v


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split())


def _matrix(text: str) -> tuple:
    rows = tuple(_floats(row) for row in text.split(";"))
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows differ in length")
    return rows


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _scheme(text: str) -> str:
    if text != "crank_nicolson":
        raise ValueError("the only scheme is crank_nicolson")
    return text


#: section -> key -> parser of the key's text.  An omitted key takes the
#: default of the dataclass field it fills, so no default is written here.
_SCHEMA = {
    "problem": {"c1_poly": _floats, "c2_kind": str, "c2_a": float, "c2_b": float,
                "f_poly": _matrix, "lambda0": float, "horizon": float, "sup_tolerance": float},
    "kernel": {"n_xi": int, "tol": float, "max_iter": int},
    "sim": {"grid_m": int, "dt": float, "t_end": float, "record_stride": int, "scheme": _scheme},
    "initial_data": {"family": str, "adjust_compatibility": _boolean,
                     **{key: _floats if isinstance(default, tuple) else float
                        for params in _INITIAL_FAMILIES.values()
                        for key, default in params.items()}},
    "verify": {"p_list": _floats, "tau_list": _floats, "skip_fraction": float, "slack": float},
    "outputs": {"directory": str},
}


def _section(cp: configparser.ConfigParser, name: str) -> dict:
    """The keys that section ``[name]`` sets, each parsed by its ``_SCHEMA`` entry."""
    section = cp[name] if cp.has_section(name) else {}
    parsers = _SCHEMA[name]
    unknown = sorted(set(section) - set(parsers))
    if unknown:
        raise ConfigError(f"unknown key {', '.join(unknown)} in [{name}]")
    parsed = {}
    for key, text in section.items():
        try:
            parsed[key] = parsers[key](text)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key} = {text}: {exc}") from None
    return parsed


def _build(name: str, cls, **kwargs):
    """``cls(**kwargs)``; an admissibility error it raises names section ``[name]``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def load_scenario(path) -> ScenarioConfig:
    """Parse the scenario file; an omitted key takes its dataclass field's default."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read(path)
        for name in cp.sections():
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]")
        if not cp.has_section("problem"):
            raise ConfigError("missing section [problem]")
        prob, ker, sim, init, top, out = (_section(cp, name) for name in (
            "problem", "kernel", "sim", "initial_data", "verify", "outputs"))
        family = {f.name: prob.pop(f.name) for f in fields(CoefficientFamily) if f.name in prob}
        sim.pop("scheme", None)  # its parser admits only the one scheme
        named = {f.name: init.pop(f.name) for f in fields(InitialData) if f.name in init}
        if "directory" in out:
            top["outputs"] = out["directory"]
        spec = _build("problem", ProblemSpec, family=_build("problem", CoefficientFamily, **family),
                      **prob)
        return _build("verify", ScenarioConfig, spec=spec,
                      kernel=_build("kernel", KernelSettings, **ker),
                      sim=_build("sim", SimConfig, **sim),
                      initial_data=_build("initial_data", InitialData, params=init, **named),
                      **top)
    except (ValueError, configparser.Error) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad scenario file {path}: {exc}") from exc


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


@dataclass
class DecayReport:
    """Outcome of one scenario: constants, fits and envelope checks."""

    lambda_lower: float
    fitted_C: float | None
    fitted_sigma: float | None
    fit_residual: float | None
    bound_margin: float
    constants: dict
    pass_flags: dict
    compatibility: CompatibilityReport | None = None
    fits: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(self.pass_flags.values())

    def to_json(self) -> str:
        payload = asdict(self)
        payload["passed"] = self.passed
        return json.dumps(payload, indent=2)


# --------------------------------------------------------------------------
# experiments and the pipeline
# --------------------------------------------------------------------------


def solve_kernels(config: ScenarioConfig) -> tuple[KernelGrid, KernelGrid]:
    """The direct kernel k and the inverse kernel l at the config's kernel settings."""
    ks = config.kernel
    return (picard_solve(GoursatProblem.direct(config.spec), ks.n_xi, ks.tol, ks.max_iter),
            picard_solve(GoursatProblem.inverse(config.spec), ks.n_xi, ks.tol, ks.max_iter))


def continuous_dependence_experiment(
    config: ScenarioConfig, w01: Profile, w02: Profile
) -> tuple[dict, float]:
    """Closed-loop sensitivity to initial data, checked against the stability envelope.

    The plant and the feedback are linear, so w1 - w2 is the closed loop
    started from w01 - w02, and each configured norm of it obeys the
    envelope ``||w1 - w2||(t) <= C e^{-lambda_lower t} ||w01 - w02||`` of
    :func:`verify_theorem_bound`.  The block [w01, w02, w01 - w02] runs
    through one simulation; its third column, which must reproduce
    w1 - w2 to rounding, is the linearity cross-check.  Returns
    ``({"lp_p2": BoundCheck, ...}, linearity_gap)``, tags as in
    :func:`run_scenario`'s ``envelope_w_*`` flags; a trace or envelope that
    is not finite raises OverflowError led by its tag.
    """
    if w01.grid_m != w02.grid_m:
        raise ValueError("both initial data must share a grid")
    lam = lambda_lower(config.spec)  # raises unless lambda0 > sup c
    k, l = solve_kernels(config)
    con = kernel_constants(k, l)
    block = np.stack((w01.values, w02.values, w01.values - w02.values), axis=1)
    traj = simulate_closed_loop(config.spec, k, block, config.sim)
    diff = traj.fields[..., 0] - traj.fields[..., 1]
    linearity_gap = float(np.max(np.abs(diff - traj.fields[..., 2])))
    checks = {}
    with np.errstate(over="ignore", invalid="ignore"):  # check_envelope names a non-finite flag
        for (p, kind), tr in norm_trace(Trajectory(traj.times, diff), config.p_list).items():
            tag = f"{kind}_{_ptag(p)}"
            checks[tag] = verify_theorem_bound(tr, constants_for_p(p, con)[kind], lam,
                                               tr.values[0], config.slack, tag)
    return checks, linearity_gap


def _alf_envelopes(config: ScenarioConfig, lam: float, traj: Trajectory) -> dict:
    """``{"p2_tau0.1": (trace, passed), ...}`` of the smoothed functional, finite p, p-major.

    Evaluated tau-major, so rho(u, tau) is formed once per tau; lambda(x, t)
    is formed once.
    """
    finite = [p for p in config.p_list if not np.isinf(p)]
    if not finite:
        return {}
    fam = config.spec.family
    lam_xt = config.spec.lambda0 - fam.c1(traj.x) - fam.c2(traj.times)[:, None]
    tags = {(p, tau): f"{_ptag(p)}_{_tautag(tau)}" for p in finite for tau in config.tau_list}
    out = dict.fromkeys(tags.values())  # p-major order, filled tau-major
    for tau in config.tau_list:
        r = rho(traj.fields, tau)
        for p in finite:
            z, psi = alf(r, lam_xt, 1.0 / (traj.grid_m - 1), p)
            env = gronwall_bound(z[0], np.full_like(z, -lam * p), tau * psi, traj.times)
            tr, tag = NormTrace(traj.times, z), tags[p, tau]
            out[tag] = tr, check_envelope(tr, env, config.slack, f"alf_envelope_{tag}").passed
    return out


def _openblas_threads():
    """``(get, set)`` of numpy's bundled OpenBLAS thread count; None without that library."""
    import ctypes  # kept off the package's import path
    import glob

    found = glob.glob(os.path.join(np.__path__[0] + ".libs", "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(found[0])
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread, so that the artifacts do not depend
    on the caller's count, and give that count back; without the library, change nothing."""
    get, put = _openblas_threads() or (int, lambda threads: None)
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


@one_blas_thread()
def run_scenario(config: ScenarioConfig) -> DecayReport:
    """Full pipeline: validate, solve kernels, simulate, fit, check, write.

    Deterministic for a given config.  On a stage failure the exception
    propagates with its ``stage`` attribute set, after the MANIFEST has
    noted the incomplete stage (see :func:`failure_text`).

    One stdlib-only ``python -S`` child of :mod:`._csvout` formats
    ``kernels.csv``, fed once the kernels are solved, and then
    ``closed_loop.csv``, fed after the target and then the closed loop are
    simulated, so that each feed finds it reading.  A failure of that
    writer (spawn error, broken pipe, nonzero exit) raises OSError in stage
    ``artifacts``, led by the first file it did not write.  The child is
    reaped on every exit path; a failed call leaves none of its files.

    The call runs under :func:`one_blas_thread`, so that no second BLAS
    thread spins on the core the child formats on.  Numpy's overflow and
    invalid warnings are off in the norms and verify stages:
    :func:`check_envelope` reports a non-finite value, with its flag.
    """
    outdir = config.outputs
    artifacts: list[str] = []
    stage = "validate"
    writer = None
    try:
        os.makedirs(outdir, exist_ok=True)
        spec = config.spec
        lam = lambda_lower(spec)  # raises unless lambda0 > sup c
        # started before the kernel stage, so that its start-up overlaps the solve
        writer = _WriterChild([os.path.join(outdir, name)
                               for name in ("kernels.csv", "closed_loop.csv")])

        stage = "kernel"
        k, l = solve_kernels(config)
        writer.feed(_csvout.KERNELS, len(k.x_nodes), 0, k.x_nodes, _kernel_triangle(k, l))

        stage = "constants"
        con = kernel_constants(k, l)
        per_p = {p: constants_for_p(p, con) for p in config.p_list}
        constants = {
            "alpha": (con.alpha1, con.alpha2, con.alpha3),
            "beta": (con.beta1, con.beta2, con.beta3),
            "per_p": {("inf" if np.isinf(p) else f"{p:g}"): cm for p, cm in per_p.items()},
        }

        stage = "compatibility"
        w0 = config.initial_data.build(config.sim.grid_m)
        if config.initial_data.adjust_compatibility:
            w0, _ = make_compatible(w0, k)
        compat = check_compatibility(w0, k)

        stage = "simulate"
        u0 = initial_target_data(w0, k)
        traj_u = simulate_target(spec, u0, config.sim)
        traj_w = simulate_closed_loop(spec, k, w0, config.sim)
        writer.feed(_csvout.TRAJECTORY, len(traj_w.times), traj_w.grid_m,
                    traj_w.times, traj_w.x, traj_w.fields)

        with np.errstate(over="ignore", invalid="ignore"):
            stage = "norms"
            norms_w, norms_u = norm_trace(traj_w, config.p_list), norm_trace(traj_u, config.p_list)

            stage = "verify"
            traces: dict[str, NormTrace] = {}
            pass_flags: dict[str, bool] = {}
            fits: dict[str, tuple] = {}
            margins = []
            for (p, kind), wtr in norms_w.items():
                tag, utr = f"{kind}_{_ptag(p)}", norms_u[p, kind]
                traces[f"w_{tag}"], traces[f"u_{tag}"] = wtr, utr
                chk = verify_theorem_bound(wtr, per_p[p][kind], lam, wtr.values[0], config.slack,
                                           f"envelope_w_{tag}")
                pass_flags[f"envelope_w_{tag}"] = chk.passed
                margins.append(chk.margin)
                chk_u = verify_theorem_bound(utr, 1.0, lam, utr.values[0], config.slack,
                                             f"floor_u_{tag}")
                pass_flags[f"floor_u_{tag}"] = chk_u.passed
                for name, tr in ((f"w_{tag}", wtr), (f"u_{tag}", utr)):
                    try:
                        fits[name] = fit_decay_rate(tr, config.skip_fraction)
                    except FitError:
                        fits[name] = None
            for tag, (tr, ok) in _alf_envelopes(config, lam, traj_u).items():
                pass_flags[f"alf_envelope_{tag}"] = ok
                traces[f"u_alf_{tag}"] = tr

        headline = fits.get(f"w_lp_{_ptag(config.p_list[0])}")
        report = DecayReport(
            lambda_lower=lam,
            fitted_C=None if headline is None else headline[0],
            fitted_sigma=None if headline is None else headline[1],
            fit_residual=None if headline is None else headline[2],
            bound_margin=float(min(margins)),
            constants=constants,
            pass_flags=pass_flags,
            compatibility=compat,
            fits=fits,
            notes=(
                "envelope checks sample the recorded times only",
                f"record stride {config.sim.record_stride} steps of dt {config.sim.dt:g}",
            ),
        )

        stage = "artifacts"
        artifacts += _write_traces(outdir, traces)
        artifacts.append(write_controls(outdir, traj_w))
        artifacts.append(write_trajectory(outdir, "target.csv", traj_u))
        kernels, closed = writer.join()
        artifacts.insert(len(traces), closed)
        artifacts.insert(0, kernels)
        rpath = os.path.join(outdir, "report.json")
        with open(rpath, "w") as fh:
            fh.write(report.to_json())
        artifacts.append(rpath)
        _write_manifest(outdir, artifacts, complete=True)
        return report
    except Exception as exc:
        exc.stage = stage
        with contextlib.suppress(OSError):
            os.makedirs(outdir, exist_ok=True)
            _write_manifest(outdir, artifacts, complete=False, error=failure_text(exc))
        raise
    finally:
        if writer is not None:
            writer.close()


def failure_text(exc: BaseException) -> str:
    """The message of ``exc``, led by the run_scenario stage it escaped from, if any."""
    stage = getattr(exc, "stage", None)
    return str(exc) if stage is None else f"stage {stage}: {exc}"


def _ptag(p: float) -> str:
    return "pinf" if np.isinf(p) else f"p{p:g}"


_tautag = "tau{:g}".format


def _write_traces(outdir, traces: dict) -> list[str]:
    """One ``t,value`` CSV per trace; each distinct ``times`` array is formatted once."""
    cells: dict[bytes, list[str]] = {}
    paths = []
    for name, tr in traces.items():
        key = tr.times.tobytes()
        if key not in cells:
            cells[key] = _csvout.cells(tr.times.tolist(), _csvout.VALUE)
        paths.append(_csvout.write_csv(os.path.join(outdir, f"trace_{name}.csv"), "t,value",
                                       [("", cells[key], tr.values.tolist())]))
    return paths


def write_trajectory(outdir, name, traj: Trajectory) -> str:
    """Long-format CSV ``t,x,value`` of every recorded slice, one record per write."""
    return _csvout.write_trajectory(os.path.join(outdir, name), traj.times.tolist(),
                                    traj.x.tolist(), (row.tolist() for row in traj.fields))


class _WriterChild:
    """CSV files formatted, in order, by one ``python -S`` child running :mod:`._csvout`.

    The child starts at construction.  :meth:`feed` sends it the raw
    float64 values of the next file, :meth:`join` waits for the files, and
    :meth:`close` reaps the child on every path.  A spawn error or a broken
    pipe is kept and raised by :meth:`join`, where the files are collected.
    """

    def __init__(self, paths: list):
        import subprocess  # kept off the package's import path

        self.paths, self.pending, self.error = paths, 0, None
        try:
            self.proc = subprocess.Popen([sys.executable, "-S", _csvout.__file__, *paths],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=subprocess.PIPE)
        except OSError as exc:
            self.proc, self.error = None, exc

    def feed(self, kind: int, n: int, m: int, *arrays) -> None:
        """Send the next file's int64 header ``(kind, n, m)``, then ``arrays`` as float64;
        stdin closes after the last file."""
        if self.proc is None:
            return
        self.pending += 1
        try:
            self.proc.stdin.write(np.array([kind, n, m], np.int64).tobytes())
            for a in arrays:
                self.proc.stdin.write(memoryview(np.ascontiguousarray(a, np.float64).reshape(-1)))
            if self.pending == len(self.paths):
                self.proc.stdin.close()
        except BrokenPipeError as exc:
            self.error = exc

    def join(self) -> list:
        """The paths, once the child wrote them all; else OSError led by the first it did not."""
        done = 0
        if self.proc is not None:
            done = self.proc.stdout.read().count(b"\n")  # one line per written file
            message = self.proc.stderr.read().decode(errors="replace").strip()
            if self.proc.wait():  # the child's failure, not the broken pipe it left in feed
                self.error = f"writer exited with code {self.proc.returncode}" + (
                    f": {message}" if message else "")
        if self.error is not None:
            raise OSError(f"{os.path.basename(self.paths[done])}: {self.error}")
        self.pending = 0
        return self.paths

    def close(self) -> None:
        """Reap the child; a fed child whose files :meth:`join` never returned is
        killed and every file it was fed is removed."""
        if self.proc is None:
            return
        if self.pending:
            self.proc.kill()
        for pipe in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            with contextlib.suppress(BrokenPipeError):
                pipe.close()  # an unfed child reads an empty stdin and exits 0
        self.proc.wait()
        for path in self.paths[:self.pending]:
            with contextlib.suppress(OSError):
                os.remove(path)


def write_controls(outdir, traj: Trajectory) -> str:
    """CSV ``t,U`` of the boundary control at the recorded times."""
    return _csvout.write_csv(os.path.join(outdir, "controls.csv"), "t,U",
                             [("", _csvout.cells(traj.times.tolist(), _csvout.VALUE),
                               traj.controls.tolist())])


def _kernel_triangle(k: KernelGrid, l: KernelGrid) -> np.ndarray:
    """k and l interleaved on the triangle y <= x, row-major in x then y."""
    return np.stack((k.values_xy, l.values_xy), axis=-1)[np.tri(len(k.x_nodes), dtype=bool)]


def dump_kernel_csv(path, k: KernelGrid, l: KernelGrid) -> str:
    """CSV ``x,y,k,l`` on the triangle grid, row-major in x then y, one x-row per write."""
    return _csvout.write_kernels(path, k.x_nodes.tolist(), _kernel_triangle(k, l).ravel().tolist())


def write_oracle(path, rows) -> str:
    """CSV ``xi,eta,picard,series,abs_err`` of :func:`oracle_comparison`'s rows."""
    return _csvout.write_csv(path, "xi,eta,picard,series,abs_err",
                             [("", ["%.12g,%.12g,%.12g,%.12g,%.12g\r\n"] * len(rows),
                               np.ravel(rows).tolist())])


def _write_manifest(outdir, artifacts, complete: bool, error: str | None = None):
    path = os.path.join(outdir, "MANIFEST.txt")
    with open(path, "w") as fh:
        fh.write("complete\n" if complete else "INCOMPLETE\n")
        if error:
            fh.write(f"error: {error}\n")
        for a in artifacts:
            fh.write(os.path.basename(a) + "\n")


def oracle_comparison(spec: ProblemSpec, n_xi: int, tol: float, max_iter: int):
    """Series-vs-Picard table for the closed-form family f = 0, c1 = r x^2.

    Returns (rows, sup_error): rows is an array of (xi, eta, picard, series, abs_err)
    at every ``len // 200``-th region node.
    """
    c1 = np.asarray(spec.family.c1_poly)
    ok_family = spec.family.f_is_zero and len(c1) <= 3 and not np.any(c1[:2])
    if not ok_family:
        raise ConfigError("oracle comparison needs f = 0 and c1(x) = r x^2")
    r = float(c1[2]) if len(c1) == 3 else 0.0
    if r < 0:
        raise ConfigError("oracle comparison needs r >= 0")
    grid = picard_solve(GoursatProblem.direct(spec), n_xi, tol, max_iter)
    lat = grid.lattice
    mask = lat.region_mask()
    xi, eta = (a[mask] for a in lat.mesh())
    series = series_oracle(spec.lambda0, r, xi, eta, 25)  # 25 series terms
    picard = grid.values_xieta[mask]
    err = np.abs(picard - series)
    step = max(1, len(picard) // 200)
    return np.column_stack((xi, eta, picard, series, err))[::step], float(np.max(err))
