"""Regenerate ``reference.json``: output hashes for the checked seeds.

For ``DEFAULT_SEED`` and ``HELD_OUT_SEED`` it records the hash of every
paper_cells and fault_storm cell's outputs (all rounds) and the hash of
the store_readback fixture's record lines; per simulator cell kind, the
mean simulated NoC hops over those cells is the reference cell size the
``cells_per_s`` ratio estimate scales to.  The simulator is deterministic
and must stay bit-identical, so this is only rerun when a change is
*meant* to alter simulated outputs.  Run from the root of a checkout::

    python3 perfbench/make_reference.py
"""

import json
import os
import shutil

from common import (
    BUILD_DIR, DEFAULT_SEED, HELD_OUT_SEED, REFERENCE_PATH, bootstrap,
)


def main():
    """Compute and write the reference hashes."""
    bootstrap()
    from readback import StoreReadback
    from simcells import FaultStorm, PaperCells

    workdir = os.path.join(BUILD_DIR, "reference-{}".format(os.getpid()))
    os.makedirs(workdir)
    reference = {}
    try:
        for cls in (PaperCells, FaultStorm):
            entry = reference[cls.name] = {"seeds": {}}
            hops = {}
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                hashes, cell_hops = cls(seed, workdir).reference_run()
                entry["seeds"][str(seed)] = hashes
                for kind, values in cell_hops.items():
                    hops.setdefault(kind, []).extend(values)
            entry["hops_per_cell"] = {
                kind: sum(values) / len(values)
                for kind, values in hops.items()
            }
        entry = reference[StoreReadback.name] = {"seeds": {}}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            readback = StoreReadback(seed, workdir)
            readback.prepare()
            entry["seeds"][str(seed)] = {"fixture": readback.fixture_digest()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote {}".format(REFERENCE_PATH))


if __name__ == "__main__":
    main()
