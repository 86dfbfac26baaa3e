"""Record perfbench/reference.json from the current program.

    python3 perfbench/record_reference.py

Records, for the benchmark's checks:
- verify_all: the sha256 and size of the JSON report for every corpus seed
  the benchmark can use (see inputs.corpus_seed);
- trees_n12: the extreme radii for each p;
- ledger: the deterministic work counts of one traced pass of each workload
  at seed 0, which test_ledger.py asserts exactly.

A reference is only recorded from a run that exits 0 with every extremality
flag true. Re-record only when a change is meant to alter the outputs or the
work counts, and say so in the change.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from layers import Tracer  # noqa: E402
from run import REFERENCE, run_pass  # noqa: E402


def _run(cli, items) -> list[bytes]:
    result = run_pass(cli, items)
    if any(result.codes):
        raise SystemExit(f"refusing to record: exit codes {result.codes}")
    return [Path(item["out"]).read_bytes() for item in items]


def main() -> int:
    inputs.import_psombor()
    from psombor import cli

    ref = {"verify_all": {}, "trees_n12": [], "ledger": {}}
    with tempfile.TemporaryDirectory(dir=inputs.ROOT) as tmp:
        for slot in range(inputs.CORPUS_SEED_SLOTS):
            items = inputs.generate("verify_all", slot, tmp)
            data, = _run(cli, items)
            ref["verify_all"][str(items[0]["corpus_seed"])] = {
                "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
            print(f"verify_all corpus seed {items[0]['corpus_seed']}: {len(data)} bytes")

        data, = _run(cli, inputs.generate("trees_n12", 0, tmp))
        for entry in json.loads(data)["extremes"]:
            flags = [entry[k] for k in ("min_is_path", "max_is_star", "min_unique", "max_unique")]
            if not all(flags):
                raise SystemExit(f"refusing to record: p={entry['p']} flags {flags}")
            ref["trees_n12"].append({k: entry[k] for k in ("p", "min_radius", "max_radius")})

        for workload in inputs.WORKLOADS:
            items = inputs.generate(workload, 0, tmp)
            with Tracer(capture_spectra=False) as tracer:
                _run(cli, items)
            ref["ledger"][workload] = tracer.counts()
            print(f"ledger {workload}: {tracer.counts()}")

    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
