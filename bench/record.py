"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/record.py [WORKLOAD ...]

Sends every request in each workload's pool once (all variants of every
slot, so whatever seed a run uses, each of its requests has a reference) and
writes bench/reference/<workload>.json.  Run it only when the program's
output is meant to change; the file records the commit it was made at.
"""

import json
import sys

import run  # pins the BLAS threads before numpy loads
import workloads


def record(workload: str) -> dict:
    cli = run.load_compext()
    requests = {}
    with run.work_dir() as work:
        for req in workloads.pool(workload):
            rc, stdout, out_path, _ = run.execute(cli, req, work)
            if rc not in (0, 1) or (rc == 1 and req.command != "verify"):
                detail = f"\n{stdout}" if rc is None else ""
                raise run.BenchError(f"request fails outright (rc={rc}): {req.key}{detail}")
            requests[req.key] = workloads.digest(req, rc, stdout, out_path)
    return {
        "workload": workload,
        "environment": run.environment(),
        "tolerances": {
            "residual": {"rtol": workloads.RESIDUAL_RTOL, "atol": workloads.RESIDUAL_ATOL},
            "matrix_checksum": {"rtol_of_frobenius_times_n2": workloads.CHECKSUM_RTOL},
        },
        "requests": requests,
    }


def dumps(doc: dict) -> str:
    """JSON with one line per request, so that a re-recording diffs by request."""
    requests = doc["requests"]
    head = json.dumps({k: v for k, v in doc.items() if k != "requests"}, indent=1, sort_keys=True)
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(requests.items()))
    return head[:-2] + ',\n "requests": {\n' + body + "\n }\n}\n"


def main(argv) -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        doc = record(workload)
        path = run.REFERENCE / f"{workload}.json"
        path.write_text(dumps(doc))
        print(f"{workload}: {len(doc['requests'])} requests -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
