"""Record the expected answers the benchmark checks against.

    python3 bench/record_expected.py

Writes, under bench/expected/, the exit code, byte count and SHA-256 of
the output of every CLI request the workloads make (cli.json), and the
single_locus_coincidence outcome of every record the strata-sweep
workload may draw as a target (coincidence.json). Run it only on a
commit whose behaviour is the reference: a later run overwrites the
reference with whatever the code does then.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.use_source_tree()
    from splitloci import strata
    import workloads
    commit = run.provenance()["commit"]
    requests = {}
    for workload in run.WORKLOADS:
        for argv in workloads.cli_argvs(workload):
            requests[" ".join(argv)] = workloads.digest(*workloads.run_cli(argv))
    records = {}
    for degree, genera in workloads.COINCIDENCE_GENERA.items():
        for genus in genera:
            recs = strata.enumerate_strata(degree, genus)
            for rec in recs:
                key = workloads.coincidence_key(degree, genus, rec.e.parts,
                                                rec.f.parts)
                records[key] = workloads.coincidence_code(
                    strata.single_locus_coincidence(rec, recs))
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    for name, body in (("cli.json", {"commit": commit, "requests": requests}),
                       ("coincidence.json", {"commit": commit, "records": records})):
        with open(os.path.join(workloads.EXPECTED_DIR, name), "w",
                  encoding="utf-8") as fh:
            json.dump(body, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("recorded %d CLI answers and %d coincidence outcomes"
          % (len(requests), len(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
