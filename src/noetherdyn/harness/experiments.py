"""Experiment runners behind the CLI.

Each runner executes one experiment kind, writes its CSV/SVG artifacts
into the output directory, and returns the verdicts for the assertions it
covers.  Randomness is drawn exclusively from the configured seed, so a
rerun with the same configuration reproduces every CSV byte-for-byte.
"""

import math
import shutil
import time
from pathlib import Path

import numpy as np

from .. import __version__
from ..closedform import (
    bn_rmsprop_map,
    g_schedule,
    r2_schedule,
    steady_angular_speed,
    steady_radius,
)
from ..continuous import eom_bregman, integrate_rk4, integrate_rk4_lockstep, rk4_solve
from ..discrete import centered_velocities, simulate, step_gd_momentum_wd, step_nesterov, step_rmsprop
from ..geometry import Euclidean, NegativeEntropy, QuadraticForm, natural_schedule, nesterov_schedule
from ..losses import Quadratic, RadialWell, RayleighQuotient, TwoLayerChain
from ..symmetry import (SYMMETRIC_TOL, Rescale, Rotation, Scale, Translation, noether_residual,
                        table2_report)
from .config import MODIFIED_EQ_REFINE, ExperimentConfig, step_count
from .report import Verdict, compare_channels, write_csv, write_manifest, write_svg, write_table_csv, write_verdicts


def _skew(dim: int, rng) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return a - a.T


def _quotient(num: float, den: float) -> float:
    """num / den for num >= 0, as numpy divides: inf at den = 0, nan at 0 / 0."""
    return num / den if den else (math.inf if num else math.nan)


def transient_end(beta: float, k: float, total_time: float) -> float:
    """Start of the comparison window: five kernel time constants, capped
    at a fifth of the run."""
    if k <= 0:
        return 0.2 * total_time
    return min(5.0 * (1.0 - beta) / (4.0 * k), 0.2 * total_time)


# ---------------------------------------------------------------------------
# table2

def run_table2(cfg: ExperimentConfig, out: Path):
    dim, samples = 4, 16
    rng = np.random.default_rng(cfg["seed"])
    metrics = [Euclidean(dim), NegativeEntropy(dim)]
    transforms = [Translation(np.eye(dim)[0]), Rotation(_skew(dim, rng)),
                  Scale(), Rescale(dim // 2)]
    max_abs = table2_report(metrics, transforms, samples=samples, seed=cfg["seed"])
    symmetric = max_abs <= SYMMETRIC_TOL
    labels = np.where(symmetric, "symmetric", "asymmetric").tolist()

    header = ["metric"] + [tf.name for tf in transforms]
    write_table_csv(out / "table2.csv", header,
                    [[metric.name] + row for metric, row in zip(metrics, labels)])
    write_table_csv(out / "table2_magnitudes.csv", header,
                    [[metric.name] + row for metric, row in zip(metrics, max_abs.tolist())])

    expected = [["symmetric", "symmetric", "asymmetric", "asymmetric"],
                ["asymmetric"] * 4]
    verdicts = [Verdict("table2.pattern", labels == expected,
                        float(labels == expected), 1.0)]
    asym_floor = float(np.min(max_abs[~symmetric]))
    verdicts.append(Verdict("table2.asymmetric-cells-macroscopic",
                            asym_floor >= 1e-3, asym_floor, 1e-3))
    sym_ceiling = float(np.max(max_abs[symmetric], initial=0.0))
    verdicts.append(Verdict("table2.symmetric-cells-null", sym_ceiling <= SYMMETRIC_TOL,
                            sym_ceiling, SYMMETRIC_TOL))
    return verdicts


# ---------------------------------------------------------------------------
# noether-residual

def _residual_cases():
    """(metric, transform, invariant loss, q0, qdot0) for each combination of
    the three metric families with the four transform families."""
    nhat = np.ones(3) / np.sqrt(3)
    translation = (
        Translation(nhat),
        Quadratic(25.0 * (np.eye(3) - np.outer(nhat, nhat))),
        np.array([1.2, 0.9, 1.0]),
        np.array([0.1, -0.2, 0.15]),
    )
    rotation = (
        Rotation(np.array([[0.0, -1.0], [1.0, 0.0]])),
        RadialWell(1.0, 25.0, 2),
        np.array([0.9, 0.6]),
        np.array([-0.12, 0.18]),
    )
    theta = np.pi / 6
    rot_m = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    scale = (
        Scale(),
        RayleighQuotient(rot_m @ np.diag([1.0, 21.0]) @ rot_m.T),
        np.array([1.034, 0.376]),
        np.array([0.1, 0.1]),
    )
    rescale = (
        Rescale(1),
        TwoLayerChain([5.0], [5.0]),
        np.array([1.4, 0.8]),
        np.array([0.1, -0.05]),
    )

    metrics3 = [Euclidean(3),
                QuadraticForm(np.array([[2.0, 0.3, 0.0], [0.3, 1.2, 0.1], [0.0, 0.1, 1.5]])),
                NegativeEntropy(3)]
    metrics2 = [Euclidean(2), QuadraticForm(np.array([[2.0, 0.3], [0.3, 1.2]])),
                NegativeEntropy(2)]
    cases = [(metric,) + translation for metric in metrics3]
    for tf_case in (rotation, scale, rescale):
        cases.extend((metric,) + tf_case for metric in metrics2)
    return cases


def _trajectory(outcome):
    """An integrate_rk4_lockstep outcome's trajectory; raises its exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_noether_residual(cfg: ExperimentConfig, out: Path):
    """The 12 cases are integrated at dt and at dt / 2 in one two-grid
    lockstep pass, but a case's failure is raised where a case-by-case loop
    would meet it: coarse integration, coarse residual, fine integration,
    then fine residual, case by case, so the first failing case is named and
    the CSVs of the cases before it are written."""
    dt = cfg["dt"]
    t1 = cfg["t1"]
    schedule = natural_schedule(1.0, cfg["mu"])  # unit mass
    cases = _residual_cases()
    problems = [(eom_bregman(metric, schedule, loss), q0, qd0)
                for metric, _, loss, q0, qd0 in cases]
    coarse, fine = integrate_rk4_lockstep(problems, 0.0, t1, dt)
    verdicts = []
    coarse_max = 0.0
    fine_max = 0.0
    series = []
    for (metric, transform, *_), traj, fine_traj in zip(cases, coarse, fine):
        tag = f"{metric.name}-{transform.name}"
        obs = noether_residual(metric, schedule, transform, _trajectory(traj))
        obs_fine = noether_residual(metric, schedule, transform, _trajectory(fine_traj))

        worst = float(np.max(np.abs(obs.residual)))
        coarse_max = max(coarse_max, worst)
        fine_max = max(fine_max, float(np.max(np.abs(obs_fine.residual))))
        verdicts.append(Verdict(f"noether-residual.{tag}.max", worst <= 1e-4, worst, 1e-4))

        write_csv(out / f"residual_{tag}.csv", obs.times, {
            "charge": obs.charge,
            "charge_rate": obs.charge_rate,
            "dissipation": obs.dissipation,
            "dynamic_asymmetry": obs.dynamic_asymmetry,
            "noneuclid_term": obs.noneuclid_term,
            "residual": obs.residual,
        })
        series.append((tag, obs.times, np.log10(np.abs(obs.residual) + 1e-18)))

    ratio = coarse_max / fine_max if fine_max > 0 else np.inf
    verdicts.append(Verdict("noether-residual.halving-ratio", ratio >= 8.0, ratio, 8.0))
    write_svg(out / "noether_residual.svg",
              "charge balance residual (log10) per metric x transform",
              series, ylabel="log10 |residual|")
    return verdicts


# ---------------------------------------------------------------------------
# conservation

def run_conservation(cfg: ExperimentConfig, out: Path):
    eta = cfg["eta"]
    steps = cfg["steps"]
    dim = 4
    ray = RayleighQuotient(np.diag(np.linspace(1.0, 2.0, dim)))
    q0 = np.full(dim, 0.5)
    # the steps' constants as 0-d arrays, which a ufunc takes for less than a
    # float, for the same bits; plain descent: no momentum and no decay
    beta = np.zeros(())

    def gd_norms(lr, n):
        buffer = np.zeros(dim)
        lr_ = np.array(lr)
        return simulate(lambda _, q, g, q_next: step_gd_momentum_wd(q, g, q_next, buffer, ray, lr_,
                                                                    beta),
                        q0, n, lambda _, qs, gs: np.vecdot(qs, qs), lr)

    times, norms = gd_norms(eta, steps)
    drift = abs(norms[-1] - norms[0]) / norms[0]
    verdicts = [Verdict("conservation.rayleigh-norm-drift", drift <= 1e-3, drift, 1e-3)]
    write_csv(out / "conservation_norm.csv", times, {"norm_sq": norms})

    chain = TwoLayerChain([1.0], [1.0])
    buffer = np.zeros(2)
    eta_ = np.array(eta)
    # float_power is the C library's pow, as a numpy scalar's ** 2 is; an
    # array's ** 2 is q * q, which can differ from it in the last bit
    _, balance = simulate(lambda _, q, g, q_next: step_gd_momentum_wd(q, g, q_next, buffer,
                                                                      chain, eta_, beta),
                          [1.5, 0.5], steps,
                          lambda _, qs, gs: np.float_power(qs[:, 0], 2.0) - np.float_power(
                              qs[:, 1], 2.0), eta)
    bal_drift = abs(balance[-1] - balance[0]) / abs(balance[0])
    verdicts.append(Verdict("conservation.rescale-balance-drift",
                            bal_drift <= 1e-3, bal_drift, 1e-3))
    write_csv(out / "conservation_balance.csv", times, {"balance": balance})

    # symmetry breaking per unit time grows linearly with the step size; the
    # first rate is eta itself, whose drift over the same time is measured above
    etas = [eta, 10.0 * eta, 100.0 * eta]
    total_time = steps * eta
    drifts = [drift]
    for lr in etas[1:]:
        _, series = gd_norms(lr, step_count(total_time, lr))
        drifts.append(abs(series[-1] - series[0]) / series[0])
    slope = float(np.polyfit(np.log(etas), np.log(drifts), 1)[0])
    verdicts.append(Verdict("conservation.drift-slope", abs(slope - 1.0) <= 0.2,
                            slope, 0.2))
    write_table_csv(out / "conservation_sweep.csv", ["eta", "norm_drift"],
                    [[lr, d] for lr, d in zip(etas, drifts)])
    write_svg(out / "conservation.svg", "squared-norm drift under plain descent",
              [("norm_sq", times, norms),
               ("initial", times, np.full_like(times, norms[0]))],
              ylabel="|q|^2")
    return verdicts


# ---------------------------------------------------------------------------
# modified-eq (finite-step model vs gradient flow, plus accelerated gradient)

def run_modified_eq(cfg: ExperimentConfig, out: Path):
    eta = cfg["eta"]
    beta = cfg["beta"]
    t1 = cfg["t1"]
    loss = Quadratic(np.eye(1))

    steps = step_count(t1, eta)
    buffer = np.zeros(1)
    # the step's constants as 0-d arrays, for the same bits as the floats
    eta_, beta_ = np.array(eta), np.array(beta)
    times, qs = simulate(lambda _, q, g, q_next: step_gd_momentum_wd(q, g, q_next, buffer, loss,
                                                                     eta_, beta_),
                         np.ones(1), steps, lambda _, qs, gs: qs[:, 0], eta)

    # anchor both continuous models at the first interior sample, with the
    # centered-difference velocity export for the second-order model
    q1 = qs[1:2]
    v1 = centered_velocities(qs, eta)[:1]
    t_end = steps * eta  # last discrete sample; t1 need not be a multiple
    # mass eta (1+beta) / 2 and friction 1-beta: the learning rate is a small
    # mass, and the model collapses to (1-beta) qdot = -grad f as eta -> 0
    heavy_ball = natural_schedule(eta * (1.0 + beta) / 2.0, 1.0 - beta)
    ode = integrate_rk4(eom_bregman(Euclidean(1), heavy_ball, loss), q1, v1,
                        eta, t_end, eta / MODIFIED_EQ_REFINE)
    ode_at = ode.q[::MODIFIED_EQ_REFINE, 0]
    _, flow = rk4_solve(lambda t, y: -loss.grad(y) / (1.0 - beta),
                        q1, eta, t_end, eta / MODIFIED_EQ_REFINE)
    flow_at = flow[::MODIFIED_EQ_REFINE, 0]

    ode_dev = float(np.max(np.abs(ode_at - qs[1:])))
    flow_dev = float(np.max(np.abs(flow_at - qs[1:])))
    # a model that matches every iterate beats any flow that does not, and
    # 0/0 (neither deviates) shows nothing, so it fails
    ratio = _quotient(flow_dev, ode_dev)
    verdicts = [Verdict("modified-eq.flow-deviation-ratio", ratio >= 5.0, ratio, 5.0)]

    write_csv(out / "modified_eq.csv", times[1:], {
        "discrete": qs[1:], "modified_ode": ode_at, "gradient_flow": flow_at,
    })
    write_svg(out / "modified_eq.svg",
              "heavy-ball iterates vs continuous models",
              [("discrete", times[1:], qs[1:]),
               ("modified ODE", times[1:], ode_at),
               ("gradient flow", times[1:], flow_at)], ylabel="q")

    # accelerated gradient vs its singular-damping model (one step == sqrt(eta))
    eta_n = 1e-4
    s = np.sqrt(eta_n)
    n_steps = int(round(1.0 / s))
    buffer = np.zeros(1)
    eta_n_ = np.array(eta_n)
    xt, xs = simulate(lambda n, q, g, q_next: step_nesterov(q, g, q_next, buffer, n, loss, eta_n_),
                      np.ones(1), n_steps, lambda _, qs, gs: qs[:, 0], s)
    k0 = int(round(0.2 / s))
    v0 = centered_velocities(xs, s)[k0 - 1:k0]
    system = eom_bregman(Euclidean(1), nesterov_schedule(2.0, 0.25), loss)
    traj = integrate_rk4(system, xs[k0:k0 + 1], v0, k0 * s, 1.0, s / 10)
    ode_f = np.array([loss.value(q) for q in traj.q[::10]])
    disc_f = np.array([loss.value(x) for x in xs[k0:, None]])
    rel_err = abs(disc_f[-1] - ode_f[-1]) / abs(ode_f[-1])
    verdicts.append(Verdict("modified-eq.nesterov-f-error", rel_err <= 1e-2,
                            rel_err, 1e-2))
    nt = xt[k0:]
    write_csv(out / "nesterov.csv", nt, {"f_discrete": disc_f, "f_ode": ode_f})
    write_svg(out / "nesterov.svg", "accelerated gradient: loss vs singular-damping model",
              [("discrete", nt, disc_f), ("ODE", nt, ode_f)], ylabel="f")
    return verdicts


# ---------------------------------------------------------------------------
# bn-effective-lr and steady-state share the flagship run

FLAGSHIP_DIM = 10
# the Rayleigh quotient's eigenvalues; a near-degenerate spectrum: slow
# angular decay keeps the radial balance crossing broad enough to resolve
FLAGSHIP_SPECTRUM = np.concatenate(([1.0], np.linspace(1.01, 1.02, FLAGSHIP_DIM - 1)))
RECORD_EVERY = 100  # the CSVs and SVGs keep every 100th step


def flagship_start(seed: int) -> np.ndarray:
    """The flagship's start point: a unit vector 60 degrees off the lowest
    eigenvector, toward a tangent direction drawn from `seed`."""
    rng = np.random.default_rng(seed)
    tangent = rng.standard_normal(FLAGSHIP_DIM)
    tangent[0] = 0.0
    tangent /= np.linalg.norm(tangent)
    angle = np.deg2rad(60.0)
    return np.cos(angle) * np.eye(FLAGSHIP_DIM)[0] + np.sin(angle) * tangent


def flagship_run(cfg: ExperimentConfig):
    """Heavy-ball descent with weight decay on a scale-invariant objective,
    recording the norm, the unit-sphere gradient norm, and the per-step
    angular displacement.

    `simulate` drives a fused step rather than the library step:
    step_gd_momentum_wd with RayleighQuotient.grad's dense A q costs about
    37% more per step, even with 0-d constants.  The step reads
    rr = q.dot(q) from its row and writes the gradient and the next point
    through the ufuncs' `out` argument, with k, eta and beta held as
    vectors.  The spectrum is held doubled, so aq = 2 A q, q.dot(aq) / rr
    and aq - f q are twice the library's values, and the gradient is one
    division by rr, the library's 2 (A q - f q) / rr.  Every other
    elementwise op has the same operands, in the same order, as the
    library step, so all four channels are the library step's bits while
    the values stay normal and finite (tests/test_harness.py checks them);
    near overflow the doubled spectrum overflows first, and the fused run
    can abort a step before the library's.  The last point's gradient is
    the step's first half; the buffer and the point that call also writes
    are never read.

    At dim 10 a step costs its calls, not its arithmetic: about 2.75 us in
    all, observer included, for 10 ufunc and 2 dot calls.  So rr and f are
    stored by item assignment into two 0-d arrays, which the ufuncs take as
    operands: a ufunc call costs about 0.15 us with a 0-d array operand
    against 0.28 us with a numpy scalar, and the item assignment about
    0.015 us.  The ufunc multiplies or divides by the double the array
    holds with the same IEEE op, and f is still the scalar q.dot(aq) / rr,
    so the bits are the same.  The step calls np.ndarray.dot unbound, and
    every name it reads is a default argument: a fast local, which costs
    less to load than a closure cell.  The defaults are positional, not
    keyword-only, since a call fills each missing keyword-only argument by
    a dict lookup; the step's two callers pass its four arguments.

    The observer records a whole block at once: the norm,
    |ghat|^2 = rr |g|^2, and the angular steps |qhat_n - qhat_(n-1)|,
    carrying the last normalised point into the next block; a block's dot
    products are `np.vecdot`, which gives the bits of `x.dot(x)` per row.
    `simulate` aborts the run at its first step whose record is not
    finite, naming that step and its time.
    """
    eta = cfg["eta"]
    beta = cfg["beta"]
    dim = FLAGSHIP_DIM
    lam2 = 2.0 * FLAGSHIP_SPECTRUM

    multiply, divide = np.multiply, np.divide
    # a constant operand as a vector: a ufunc call converts a Python float
    # on every call, which costs more than the op on ten entries
    k_vec, eta_vec, beta_vec = (np.full(dim, c) for c in (cfg["wd"], eta, beta))
    aq, t, spare = np.empty(dim), np.empty(dim), np.empty(dim)
    buffer = np.zeros(dim)
    rr_, f_ = np.empty(()), np.empty(())

    def step(n, q, g, q_next, dot=np.ndarray.dot, multiply=np.multiply,
             subtract=np.subtract, add=np.add, divide=np.divide, lam2=lam2, k_vec=k_vec,
             eta_vec=eta_vec, beta_vec=beta_vec, aq=aq, t=t, buffer=buffer, rr_=rr_, f_=f_):
        rr_[()] = rr = dot(q, q)
        multiply(lam2, q, aq)  # aq = 2 A q, the diagonal matrix product
        f_[()] = dot(q, aq) / rr  # twice the Rayleigh quotient
        multiply(f_, q, t)  # g = (aq - f q) / rr, the library's 2 (A q - f q) / rr
        subtract(aq, t, t)
        divide(t, rr_, g)
        multiply(k_vec, q, t)  # buffer = beta buffer - eta (g + k q)
        add(g, t, t)
        multiply(eta_vec, t, t)
        multiply(beta_vec, buffer, buffer)
        subtract(buffer, t, buffer)
        add(q, buffer, q_next)

    last_unit = None  # the normalised point before the block

    def observe(lo, qs, gs):
        nonlocal last_unit
        norm_sq = np.vecdot(qs, qs)
        # |ghat|^2 = r^2 |grad f(q)|^2 by scale invariance
        gsq = multiply(norm_sq, np.vecdot(gs, gs))
        units = divide(qs, np.sqrt(norm_sq)[:, None])
        # the angular step at step 0 is 0
        d = np.diff(units, axis=0, prepend=units[:1] if lo == 0 else last_unit[None])
        last_unit = units[-1]
        return norm_sq, gsq, np.sqrt(np.vecdot(d, d))

    times, record = simulate(step, flagship_start(cfg["seed"]), cfg["steps"], observe, eta,
                             grad=lambda q, out: step(None, q, out, spare))
    return (times, *record.T)


def run_bn_effective_lr(cfg: ExperimentConfig, out: Path):
    eta, beta, k = cfg["eta"], cfg["beta"], cfg["wd"]
    times, norm_sq, gsq, ang = flagship_run(cfg)
    predicted = r2_schedule(gsq, eta, eta, beta, k, np.sqrt(norm_sq[0]))  # one sample per step

    t_start = transient_end(beta, k, times[-1])
    verdicts = [compare_channels("bn-effective-lr.norm-matches-schedule", times, norm_sq,
                                 predicted, 0.05, window=(t_start, times[-1]))]
    every = RECORD_EVERY
    rel = np.abs(norm_sq - predicted) / predicted
    write_csv(out / "bn_effective_lr.csv", times[::every], {
        "norm_sq": norm_sq[::every],
        "predicted_norm_sq": predicted[::every],
        "gsq_unit_sphere": gsq[::every],
        "relative_error": rel[::every],
    })
    write_svg(out / "bn_effective_lr.svg",
              "measured squared norm vs closed-form schedule",
              [("measured", times[::every], norm_sq[::every]),
               ("predicted", times[::every], predicted[::every])], ylabel="r^2")
    write_svg(out / "bn_effective_lr_error.svg",
              "relative error of the closed-form schedule",
              [("relative error", times[::every], rel[::every])], ylabel="rel err")
    return verdicts


def run_steady_state(cfg: ExperimentConfig, out: Path):
    """Measure the steady-state relations where the radial balance holds:
    at the crest of the norm trajectory, where rdot = 0.  A crest at the
    first or last sample is where the run starts or stops, not a balance
    point, so both relations fail there (the measured values are kept), as
    they do at a prediction that underflows to 0 (inf, or nan at 0 / 0) and
    at a radius prediction that overflows to inf (nan)."""
    eta, beta, k = cfg["eta"], cfg["beta"], cfg["wd"]
    times, norm_sq, gsq, ang = flagship_run(cfg)

    crest = int(np.argmax(norm_sq))
    interior = 0 < crest < norm_sq.size - 1
    t_c = times[crest]
    window = (times >= t_c - 2.0) & (times <= t_c + 2.0)
    # no step lies in a window that holds only a crest at sample 0: nothing
    # to average, and the relation fails there anyway
    steps_in_window = ang[1:][window[1:]]
    ang_measured = float(np.mean(steps_in_window)) if steps_in_window.size else math.nan
    ang_predicted = steady_angular_speed(eta, beta, k)
    ang_rel = _quotient(abs(ang_measured - ang_predicted), ang_predicted)

    g_mean = float(np.mean(np.sqrt(gsq[window])))
    r_measured = float(np.mean(np.sqrt(norm_sq[window])))
    r_predicted = steady_radius(eta, beta, k, g_mean)
    r_rel = _quotient(abs(r_measured - r_predicted), r_predicted)

    verdicts = [
        Verdict("steady-state.angular-displacement", interior and ang_rel <= 0.10,
                ang_rel, 0.10),
        Verdict("steady-state.radius", interior and r_rel <= 0.10, r_rel, 0.10),
    ]
    every = RECORD_EVERY
    write_csv(out / "steady_state.csv", times[::every], {
        "norm_sq": norm_sq[::every],
        "angular_displacement": ang[::every],
        "gnorm_unit_sphere": np.sqrt(gsq[::every]),
    })
    write_svg(out / "steady_state.svg",
              "per-step angular displacement vs steady-state prediction",
              [("measured", times[1::every], ang[1::every]),
               ("predicted", times[1::every],
                np.full(times[1::every].size, ang_predicted))],
              ylabel="|qhat step|")
    return verdicts


# ---------------------------------------------------------------------------
# rmsprop-equiv

def run_rmsprop_equiv(cfg: ExperimentConfig, out: Path):
    eta, rho = cfg["eta"], cfg["rho"]
    t1 = cfg["t1"]
    dim = 8
    g0 = 1.0  # initial adaptive memory
    rng = np.random.default_rng(cfg["seed"])
    loss = Quadratic(np.diag(np.linspace(0.5, 2.0, dim)))
    q0 = 2.0 * rng.standard_normal(dim)
    steps = step_count(t1, eta)
    accumulators = np.empty(steps + 1)  # the adaptive memory after each step
    accumulators[0] = g0

    def step(n, q, g, q_next):
        accumulators[n + 1] = step_rmsprop(q, g, q_next, accumulators[n], loss, eta, rho)

    times, record = simulate(step, q0, steps,
                             lambda n, qs, gs: (np.vecdot(gs, gs), accumulators[n:n + len(qs)]),
                             eta, grad=loss.grad)
    gsq, memory = record.T
    predicted = g_schedule(gsq, eta, eta, rho, g0)  # one sample per step
    measured = np.sqrt(memory)
    verdicts = [compare_channels("rmsprop-equiv.discrete-vs-schedule", times, measured,
                                 predicted, 0.02)]
    write_csv(out / "rmsprop_schedule.csv", times, {
        "sqrt_G_discrete": measured, "sqrt_G_schedule": predicted, "gsq": gsq,
    })
    write_svg(out / "rmsprop_schedule.svg",
              "adaptive factor: recursion vs closed form",
              [("discrete", times, measured), ("closed form", times, predicted)],
              ylabel="sqrt(G)")

    # functional identity on a synthetic history with kernel-matched parameters
    beta_bn = 0.5
    eta_bn = 0.004
    k_bn = eta_bn * (1.0 + beta_bn) / (2.0 * (1.0 - beta_bn) ** 2)
    kernel = bn_rmsprop_map(eta_bn, beta_bn, k_bn)
    n = 5000
    grid = 0.01 * np.arange(n + 1)
    synthetic = 1.0 + 0.5 * np.sin(0.7 * grid) + 0.2 * np.cos(2.3 * grid) ** 2
    r0 = 2.0 ** 0.25
    norm_series = r2_schedule(synthetic, 0.01, eta_bn, beta_bn, k_bn, r0)
    adaptive_series = g_schedule(synthetic, 0.01, eta_bn, kernel.rho, r0 ** 4)
    verdicts.append(compare_channels("rmsprop-equiv.functional-identity", grid, norm_series,
                                     adaptive_series, 1e-10))
    # recorded, not asserted: the residual prefactor ratio of the kernel map
    # at the flagship hyperparameters, where the constraints over-determine
    generic = bn_rmsprop_map(0.01, 0.9, 1e-4)
    verdicts.append(Verdict("rmsprop-equiv.prefactor-ratio", True,
                            generic.prefactor_ratio, np.inf))
    write_csv(out / "kernel_identity.csv", grid, {
        "norm_schedule": norm_series, "adaptive_schedule": adaptive_series,
    })
    write_svg(out / "kernel_identity.svg",
              "norm schedule vs adaptive schedule on one history",
              [("norm schedule", grid, norm_series),
               ("adaptive schedule", grid, adaptive_series)], ylabel="value")
    return verdicts


_RUNNERS = {
    "table2": run_table2,
    "noether-residual": run_noether_residual,
    "conservation": run_conservation,
    "modified-eq": run_modified_eq,
    "bn-effective-lr": run_bn_effective_lr,
    "steady-state": run_steady_state,
    "rmsprop-equiv": run_rmsprop_equiv,
}


def run_experiment(cfg: ExperimentConfig):
    """Execute one experiment: artifacts, manifest, verdict file.

    Returns the verdict list; all assertions passing means CLI exit 0.  A
    run that raises removes the directories it created, and a directory that
    already existed keeps no earlier run's manifest or verdict file, so only
    a finished run leaves its record.
    """
    runner = _RUNNERS[cfg.kind]
    out = Path(cfg["out"])
    created = []  # each directory this run makes, in the order it makes them
    try:
        # one at a time, not mkdir(parents=True): with ".." in the path
        # ("a/../b") the directories made are not one subtree
        for path in (*reversed(out.parents), out):
            if not path.is_dir():
                path.mkdir()
                created.append(path)
        for name in ("manifest.txt", "verdict.tsv"):
            (out / name).unlink(missing_ok=True)
        started = time.perf_counter()
        verdicts = runner(cfg, out)
        wall = time.perf_counter() - started
        write_manifest(out / "manifest.txt", cfg, wall, __version__)
        write_verdicts(out / "verdict.tsv", verdicts)
    except BaseException:
        for path in reversed(created):  # innermost first
            shutil.rmtree(path, ignore_errors=True)
        raise
    return verdicts
