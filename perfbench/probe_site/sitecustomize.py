"""Per-layer probes inside subprocesses of a traced benchmark run.

The traced run puts this directory first on ``PYTHONPATH``, so every
Python process it starts (sweep workers, the serve daemon) imports this
module at start-up.  When ``PERFBENCH_PROBE_DIR`` is set, the module
wraps the layer functions named by ``PERFBENCH_PROBE_LAYERS`` (see
``perfbench/probe.py``) and, at interpreter exit, writes the recorded
samples to ``<PERFBENCH_PROBE_DIR>/<pid>.json`` for the parent to fold
in.  Without the variable it does nothing.
"""

import os


def _install() -> None:
    out_dir = os.environ.get("PERFBENCH_PROBE_DIR")
    if not out_dir:
        return
    import atexit
    import sys

    root = os.path.dirname(os.path.abspath(__file__))
    for _ in range(2):
        root = os.path.dirname(root)
    sys.path.insert(0, root)
    try:
        from perfbench.probe import SUBPROCESS_LAYERS, Probe
    finally:
        sys.path.pop(0)

    probe = Probe()
    SUBPROCESS_LAYERS[os.environ.get("PERFBENCH_PROBE_LAYERS", "case")](probe)
    atexit.register(
        lambda: probe.dump(os.path.join(out_dir, f"{os.getpid()}.json"))
    )


_install()
