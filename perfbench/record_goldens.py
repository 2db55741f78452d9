"""Record the golden response digests the benchmark checks against.

Runs the first rounds of every workload for the default seed, full-size and
smoke-size, in process, and writes ``goldens.json``: canonical request key
-> SHA-256 of the canonical response bytes.  Re-record only when a change
is meant to alter response bytes, and say so in the change.

    PYTHONPATH=src python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import hashlib
import itertools
import json

import repro.api as api
import repro.service.wire as wire
import workloads

DEFAULT_SEED = 1
#: Rounds per phase whose responses get a golden digest.
ROUNDS = 4


def main() -> None:
    goldens: dict[str, str] = {}
    # Requests run in process here, so no service is started in workdir.
    workdir = workloads.HERE.parent / ".bench_build" / "perfbench"
    for cls, smoke in itertools.product(workloads.WORKLOADS, (False, True)):
        workload = workloads.make(cls.name, DEFAULT_SEED, smoke, workdir)
        for phase in ("timed", "traced"):
            rounds = itertools.islice(workload.rounds(phase), ROUNDS)
            for op in itertools.chain.from_iterable(rounds):
                key = api.canonical_request_key(op.request)
                if key in goldens:
                    continue
                data = wire.canonical_response_bytes(api.run(op.request))
                goldens[key] = hashlib.sha256(data).hexdigest()
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} digests to {workloads.GOLDENS_PATH}")


if __name__ == "__main__":
    main()
