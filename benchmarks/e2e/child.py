"""One measured pass in a fresh interpreter (spawned by ``run.py``).

Usage: ``python child.py '{"workload": ..., "seed": ..., "pass": ..., "traced": ...}'``
Prints the pass record as one JSON line.
"""

import json
import sys

from workloads import run_pass

if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    print(json.dumps(run_pass(job["workload"], job["seed"], job["pass"], traced=job["traced"])))
