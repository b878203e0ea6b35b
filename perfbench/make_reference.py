"""Regenerate reference_verdicts.json and counters_seed0.json from src/.

    python3 perfbench/make_reference.py

Records every verdict's measured value for each input set the benchmark can
select (seeded experiments once per input set, the others once), and the
work counters of a traced seed-0 pass of each workload.  It refuses to write
anything if a pass exits nonzero, a verdict fails, or an experiment that
ignores the seed gives different values for different seeds.  Regenerate
only for a change that is meant to move verdict values or counters.
"""

import json
import shutil
import sys
import time

from run import COUNTERS, COUNTERS_SEED0, OUT_ROOT, REFERENCE, Bench, layer_values
from workloads import INPUT_SETS, SEEDED, WORKLOADS


def main():
    run_dir = OUT_ROOT / "reference"
    run_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(run_dir, deadline=time.monotonic() + 3600.0)
    reference = {}
    counters = {}
    problems = []
    try:
        for workload, kinds in WORKLOADS.items():
            seeds = range(INPUT_SETS) if SEEDED.intersection(kinds) else (0,)
            for seed in seeds:
                started = time.monotonic()
                record = bench.spawn(f"{workload}-{seed}", kinds, seed, traced=seed == 0)
                if record.exit_code != 0:
                    problems.append(f"{workload} seed {seed}: exit {record.exit_code}")
                    continue
                if seed == 0:
                    values = layer_values(record.result)
                    counters[workload] = {name: values[name][0] for name in COUNTERS}
                for kind in kinds:
                    measured = record.verdicts[kind]
                    problems += [f"{aid} fails at seed {seed}"
                                 for aid, (passed, _) in measured.items() if not passed]
                    values = {aid: value for aid, (_, value) in measured.items()}
                    slot = str(seed) if kind in SEEDED else "any"
                    previous = reference.setdefault(kind, {}).setdefault(slot, values)
                    if previous != values:
                        problems.append(f"{kind} changes with the seed but is not in SEEDED")
                print(f"{workload} seed {seed}: {time.monotonic() - started:.1f} s",
                      file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if problems:
        sys.exit("not written:\n" + "\n".join(problems))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    COUNTERS_SEED0.write_text(json.dumps(counters, indent=1) + "\n")


if __name__ == "__main__":
    main()
