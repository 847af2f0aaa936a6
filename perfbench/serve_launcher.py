"""Start ``repro serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_DIR serve FLAG...``

Installs the wrappers of :mod:`tracing`, then hands the remaining
arguments to ``repro.cli.main``.  Workers forked by the daemon inherit
the wrappers, start with an empty span list, and append their spans to
``SPANS_DIR`` at the end of each task; the daemon's own spans are
written when it exits.  Targets that no longer exist are listed in
``SPANS_DIR/missing.json``.
"""

import json
import os
import sys

import checkout
import tracing


def main(argv) -> int:
    spans_dir, arguments = argv[0], argv[1:]
    checkout.import_repro()
    import repro.cli
    import repro.serve.daemon  # noqa: F401 — wrapped where it looks up

    recorder = tracing.Recorder(spans_dir)
    installation = tracing.install(recorder)
    with open(os.path.join(spans_dir, "missing.json"), "w",
              encoding="utf-8") as out:
        json.dump(installation.missing, out)
    os.register_at_fork(after_in_child=recorder.after_fork)
    try:
        return repro.cli.main(arguments)
    finally:
        tracing.uninstall(installation)
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
