"""Fresh-process steps of the benchmark: set-up, and one timed CLI command.

    python3 perfbench/child.py setup RESULT.json WORKLOAD SEED WORK_DIR
    python3 perfbench/child.py run RESULT.json [--trace TRACE_ID] -- CLI_ARGS...

Both import ``biasaudit`` from the ``src`` directory of this checkout.
``setup`` writes the workload's input and warms up by validating it
through the CLI.  ``run`` times ``biasaudit.cli.main(CLI_ARGS)`` alone,
after the import, between two timings of the reference kernel, and
records the exit code, wall time, mean reference time, peak RSS and,
when traced, every span.  Each writes RESULT.json.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from reference import reference_seconds

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    """Import the CLI from this checkout's sources."""
    sys.path.insert(0, str(ROOT / "src"))
    from biasaudit import cli
    package_dir = Path(cli.__file__).resolve().parent
    if package_dir != ROOT / "src" / "biasaudit":
        raise SystemExit(f"imported biasaudit from {package_dir}, not from this checkout")
    return cli


def call_cli(entry, cli_args) -> int:
    """Run a click entry point; returns its exit code."""
    try:
        entry(cli_args)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        return 1
    return 0


def setup(workload_name, seed, work_dir):
    from workloads import WORKLOADS, write_inputs

    cli = import_cli()
    inputs = write_inputs(WORKLOADS[workload_name], int(seed), Path(work_dir))
    with contextlib.redirect_stdout(io.StringIO()):
        code = call_cli(cli.main, ["validate", "--input", str(inputs["csv"])])
    return {"exit_code": code,
            "inputs": {"csv": str(inputs["csv"]),
                       "config": str(inputs["config"]) if inputs["config"] else None,
                       "alphas": inputs["alphas"]}}


def run(own, cli_args):
    trace_id = own[own.index("--trace") + 1] if "--trace" in own else None
    cli = import_cli()
    entry, recorder = cli.main, None
    if trace_id is not None:
        from spans import Recorder, install
        recorder = Recorder(trace_id)
        install(recorder)
        entry = recorder.wrap("cli.main", cli.main)

    reference_seconds()  # warm-up
    ref_before = reference_seconds()
    start = time.perf_counter()
    code = call_cli(entry, cli_args)
    wall_s = time.perf_counter() - start
    ref_after = reference_seconds()

    payload = {"exit_code": code, "wall_s": wall_s, "ref_s": (ref_before + ref_after) / 2,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if recorder is not None:
        payload["trace"] = recorder.dump()
    return payload


def main(argv):
    mode, result_path = argv[0], Path(argv[1])
    if mode == "setup":
        payload = setup(*argv[2:5])
    else:
        split = argv.index("--")
        payload = run(argv[2:split], argv[split + 1:])
    result_path.write_text(json.dumps(payload), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
