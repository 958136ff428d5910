"""Set-up probe: import the program, build a workload's service, say ready.

``python -m perfbench.probe WORKLOAD STORE_DIR`` is what
:func:`perfbench.common.probe_setup` times from process start: imports
plus the service (and, for ``bulk``, store) construction the workload
does before its first timed operation.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    workload, store_dir = argv
    from repro.api.service import RedService
    from repro.eval.store import PackedSweepStore

    store = PackedSweepStore(store_dir) if workload == "bulk" else None
    service = RedService(cache=store)
    print("ready", flush=True)
    service.close()
    if store is not None:
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
