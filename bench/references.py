"""Reference residuals of the checks that are expected not to pass.

A check expected to pass compares a closed form with the oracle, so its
reference residual is 0 and needs no record. A failing soliton equation
has a residual that only the program computes; reference_residuals.json
keeps the residuals the program gave at the recorded commit, per workload,
seed and spec, at the workload's N, for gate.recorded to look up.

    python3 bench/references.py --seeds 100     # rewrite for seeds 0..99
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import gate
import run
import workloads

def measure(cli, workload, seed):
    """The non-pass residuals of one correct verify call per spec."""
    specs = workloads.generate(workload, seed)
    paths = workloads.write_specs(specs, os.path.join(
        run.OUT, "specs", f"{workload}-seed{seed}"))
    out = {}
    for spec, path in zip(specs, paths):
        _, code, text, err = run.call(cli, spec.argv(path))
        found = gate.problems(spec, code, text)
        if found:
            run.fail(f"{workload} seed {seed} {spec.name}: {found} {err}")
        values = gate.residuals(json.loads(text))
        out[spec.name] = {k: values[k] for k, status in spec.expected.items()
                          if status != "pass" and values.get(k) is not None}
    return {name: table for name, table in out.items() if table}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, required=True,
                        help="record seeds 0 .. SEEDS-1")
    args = parser.parse_args(argv)
    cli = run.import_program()
    document = {"git_commit": run.environment()["git_commit"],
                "workloads": {}}
    for name, (points, _) in workloads.WORKLOADS.items():
        if not any("fail" in s.expected.values()
                   for s in workloads.generate(name, 0)):
            continue
        seeds = {}
        for seed in range(args.seeds):
            table = measure(cli, name, seed)
            if table:
                seeds[str(seed)] = table
        if seeds:
            document["workloads"][name] = {"N": points, "seeds": seeds}
        print(f"# {name}: {len(seeds)} seeds recorded", file=sys.stderr)
    with open(gate.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
