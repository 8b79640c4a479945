"""Regenerate ``reference.npz``, the outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, only on a commit whose outputs are the
intended reference. A linear workload stores its outputs for amplitude 1
(``run.py`` scales them); ``nonlinear_wave`` stores one set per amplitude.
Each set also keeps the sha256 of the full output arrays.
"""

import sys
import tempfile

import numpy as np

import run


def main():
    run.import_package()
    from workloads import AMPLITUDES, WORKLOADS

    store = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for cls in WORKLOADS.values():
            for amp in (1.0,) if cls.linear else AMPLITUDES:
                workload = cls(0, workdir)
                workload.amp = amp
                workload.setup()
                failures, arrays, info = workload.check(workload.timed())
                if failures:
                    sys.exit(f"{cls.name} at amplitude {amp}: {failures}")
                prefix = workload.reference_prefix()
                store.update({prefix + k: v for k, v in workload.reduce(arrays).items()})
                store[prefix + "sha256"] = np.array(run.digest(arrays))
                print(f"{prefix} {run.digest(arrays)} {info}")
    np.savez_compressed(run.REFERENCE, **store)


if __name__ == "__main__":
    main()
