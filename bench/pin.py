"""Regenerate the benchmark's pinned data at the default seed.

    python3 bench/pin.py snapshot   # retrain learned_params.json, pin its hash
    python3 bench/pin.py digests    # pin every workload's per-op output digests

The snapshot is the README quickstart trained for its full 200 iterations.
Re-pin digests only in a change that deliberately alters persisted output.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from parlab import default_vocabulary, init_params, train_step  # noqa: E402
from parlab.harness import save_params  # noqa: E402

import workloads  # noqa: E402


def write_pins(pins: dict) -> None:
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def pin_snapshot() -> None:
    vocab = default_vocabulary()
    params = init_params(len(vocab))
    tasks = workloads.quickstart_tasks(0)
    for t in range(workloads.QUICKSTART_RL.iterations):
        params, _ = train_step(
            params, tasks, vocab, workloads.QUICKSTART_RL, workloads.QUICKSTART_PARL, t, seed=0
        )
    save_params(params, workloads.SNAPSHOT_PATH)
    pins = workloads.load_pins() if workloads.PINS_PATH.exists() else {"digests": {}}
    pins["snapshot_hash"] = params.params_hash()
    write_pins(pins)


def pin_digests() -> None:
    pins = workloads.load_pins()
    pins["seed"] = workloads.DEFAULT_SEED
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls()
            workload.setup(workloads.DEFAULT_SEED, Path(tmp))
            pins["digests"][name] = [
                workload.check(k, workload.run_op(k))[0] for k in range(workload.n_ops)
            ]
    write_pins(pins)


if __name__ == "__main__":
    actions = {"snapshot": pin_snapshot, "digests": pin_digests}
    if len(sys.argv) != 2 or sys.argv[1] not in actions:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(actions)}}}")
    actions[sys.argv[1]]()
