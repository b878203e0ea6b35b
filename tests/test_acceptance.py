"""Acceptance suite: every exit criterion at its stated tolerance.

Each experiment runs at its shipped config, `configs/<kind>.cfg`, read as
`noetherdyn <kind> --config configs/<kind>.cfg` reads it, so the shipped
configs are the acceptance configs.  They hold only the values they set,
and a changed default moves these verdicts as it moves the benchmark's.
Each criterion prints one pass/fail line (run with `pytest -s` to see them
live).  Experiments run once into a shared module-scoped directory; the
determinism criterion reruns all of them and compares CSV bytes.
"""

import hashlib
import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from noetherdyn.harness.config import build_config, parse_config_file
from noetherdyn.harness.experiments import run_experiment

CONFIG_FILES = {path.stem: path
                for path in sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))}

# the benchmark's stored verdicts, keyed by kind and then by input set (or
# "any" for a kind that ignores the seed); read here, never written
REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference_verdicts.json"
REFERENCE_REL_TOL = 1e-12

# sha256 of every artifact the shipped-config runs write (each at the default
# seed 0), except the manifest (which holds the output path and the wall
# time); regenerate with `python tests/test_acceptance.py` only in a change
# meant to move bytes
GOLDEN = Path(__file__).with_name("golden_digests_seed0.json")


def _run(kind, out):
    cfg = build_config(kind, parse_config_file(CONFIG_FILES[kind]), {"out": str(out)})
    started = time.perf_counter()
    verdicts = run_experiment(cfg)
    wall = time.perf_counter() - started
    return SimpleNamespace(verdicts={v.assertion_id: v for v in verdicts},
                           wall=wall, out=out, seed=cfg["seed"])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    return {kind: _run(kind, base / kind) for kind in CONFIG_FILES}


def _digests(runs):
    return {f"{kind}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for kind, run in runs.items()
            for path in sorted(run.out.iterdir()) if path.name != "manifest.txt"}


def _report(criterion, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {marker} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_table2_reproduction(runs):
    r = runs["table2"]
    pattern = r.verdicts["table2.pattern"]
    floor = r.verdicts["table2.asymmetric-cells-macroscopic"]
    ceil = r.verdicts["table2.symmetric-cells-null"]
    ok = pattern.passed and floor.passed and ceil.passed and r.wall < 1.0
    _report("criterion-01 kinetic-symmetry table", ok,
            f"pattern={pattern.passed}, asym_floor={floor.measured:.3e}>=1e-3, "
            f"sym_ceiling={ceil.measured:.3e}<=1e-8, wall={r.wall:.2f}s<1s")


def test_criterion_02_charge_balance_residual(runs):
    r = runs["noether-residual"]
    cells = [v for aid, v in r.verdicts.items() if aid.endswith(".max")]
    assert len(cells) == 12
    worst = max(v.measured for v in cells)
    ratio = r.verdicts["noether-residual.halving-ratio"]
    ok = all(v.passed for v in cells) and ratio.passed and r.wall < 30.0
    _report("criterion-02 charge balance residual", ok,
            f"12 combos max={worst:.3e}<=1e-4, halving ratio={ratio.measured:.1f}>=8, "
            f"wall={r.wall:.1f}s<30s")


def test_criterion_03_gradient_flow_conservation(runs):
    r = runs["conservation"]
    norm = r.verdicts["conservation.rayleigh-norm-drift"]
    balance = r.verdicts["conservation.rescale-balance-drift"]
    slope = r.verdicts["conservation.drift-slope"]
    ok = norm.passed and balance.passed and slope.passed
    _report("criterion-03 gradient-flow conservation", ok,
            f"norm drift={norm.measured:.2e}<=1e-3, balance drift={balance.measured:.2e}<=1e-3, "
            f"drift-vs-step slope={slope.measured:.3f}=1+-0.2")


def test_criterion_04_modified_equation(runs):
    r = runs["modified-eq"]
    ratio = r.verdicts["modified-eq.flow-deviation-ratio"]
    ok = ratio.passed and r.wall < 5.0
    _report("criterion-04 finite-step model beats gradient flow", ok,
            f"deviation ratio={ratio.measured:.2f}>=5, wall={r.wall:.1f}s<5s")


def test_criterion_05_accelerated_gradient_tracking(runs):
    r = runs["modified-eq"]
    err = r.verdicts["modified-eq.nesterov-f-error"]
    _report("criterion-05 accelerated-gradient model", err.passed,
            f"relative f error at t=1: {err.measured:.4f}<=0.01")


def test_criterion_06_effective_learning_rate_schedule(runs):
    r = runs["bn-effective-lr"]
    match = r.verdicts["bn-effective-lr.norm-matches-schedule"]
    ok = match.passed and r.wall < 30.0
    _report("criterion-06 implicit adaptive schedule", ok,
            f"norm vs closed form max rel={match.measured:.4f}<=0.05 after transient, "
            f"wall={r.wall:.1f}s<30s")


def test_criterion_07_steady_state_relations(runs):
    r = runs["steady-state"]
    ang = r.verdicts["steady-state.angular-displacement"]
    rad = r.verdicts["steady-state.radius"]
    ok = ang.passed and rad.passed
    _report("criterion-07 steady-state relations", ok,
            f"angular displacement rel={ang.measured:.4f}<=0.10, "
            f"radius rel={rad.measured:.4f}<=0.10")


def test_criterion_08_adaptive_factor_closed_form(runs):
    r = runs["rmsprop-equiv"]
    match = r.verdicts["rmsprop-equiv.discrete-vs-schedule"]
    _report("criterion-08 adaptive factor closed form", match.passed,
            f"sqrt(G) discrete vs schedule max rel={match.measured:.4f}<=0.02 on [0,10]")


def test_criterion_09_functional_identity(runs):
    r = runs["rmsprop-equiv"]
    identity = r.verdicts["rmsprop-equiv.functional-identity"]
    recorded = "rmsprop-equiv.prefactor-ratio" in r.verdicts
    verdict_text = (r.out / "verdict.tsv").read_text()
    in_file = "prefactor-ratio" in verdict_text
    ok = identity.passed and recorded and in_file
    _report("criterion-09 kernel identity", ok,
            f"pointwise rel={identity.measured:.2e}<=1e-10, prefactor ratio recorded "
            f"({r.verdicts['rmsprop-equiv.prefactor-ratio'].measured:.6g})")


def test_criterion_10_determinism(runs, tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    mismatches = []
    for kind in CONFIG_FILES:
        rerun = _run(kind, base / kind)
        first = runs[kind].out
        csvs = sorted(p.name for p in first.glob("*.csv"))
        assert csvs, f"{kind} wrote no CSVs"
        for name in csvs:
            if (first / name).read_bytes() != (rerun.out / name).read_bytes():
                mismatches.append(f"{kind}/{name}")
    _report("criterion-10 determinism", not mismatches,
            "all CSVs byte-identical across reruns" if not mismatches
            else f"mismatched: {', '.join(mismatches)}")


def test_verdicts_match_benchmark_reference(runs):
    """Every measured verdict equals the benchmark's stored value to 1e-12
    relative, so a change that moves a rounding fails here too."""
    reference = json.loads(REFERENCE.read_text())
    drifted = []
    for kind, run in runs.items():
        table = reference[kind]
        expected = table["any"] if "any" in table else table[str(run.seed)]
        assert set(run.verdicts) == set(expected), kind
        for aid, value in expected.items():
            measured = run.verdicts[aid].measured
            if not abs(measured - value) <= REFERENCE_REL_TOL * abs(value):
                drifted.append(f"{aid}={measured!r} (reference {value!r})")
    _report("reference verdicts", not drifted,
            f"{sum(len(r.verdicts) for r in runs.values())} verdicts within "
            f"{REFERENCE_REL_TOL:g} relative" if not drifted else "; ".join(drifted))


def test_artifacts_match_golden_digests(runs):
    """Every CSV, SVG and verdict.tsv of the seed-0 runs keeps its recorded
    bytes, so a change meant to leave the numbers alone cannot move them."""
    expected = json.loads(GOLDEN.read_text())
    measured = _digests(runs)
    changed = sorted(name for name in expected.keys() | measured.keys()
                     if expected.get(name) != measured.get(name))
    _report("golden artifact digests", not changed,
            f"{len(expected)} artifacts byte-identical" if not changed
            else f"changed, missing or new: {', '.join(changed)}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests({kind: _run(kind, Path(tmp) / kind) for kind in CONFIG_FILES})
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
