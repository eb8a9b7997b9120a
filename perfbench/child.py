"""One benchmark operation in its own process, optionally traced.

    python3 perfbench/child.py [--trace-out FILE] cli ARGS...
    python3 perfbench/child.py [--trace-out FILE] setup --preset P --seed S \
        --n-trajectories N --out FILE.ords

``cli`` is exactly what the ``red-offline`` entry point does. ``setup`` is the
work before an experiment: import ``red_offline``, write the dataset with
``red-offline gen``, and build the environment and its reference scores.
With ``--trace-out`` the spans of the process are written to FILE at exit.
"""

import sys


def _setup(argv):
    from red_offline.cli import main
    from red_offline.envsuite import env_from_name, preset_config

    preset = argv[argv.index("--preset") + 1]
    code = main(["gen", *argv])
    if code == 0:
        env_from_name(preset_config(preset).mdp_name).reference_scores
    return code


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        import tracing
        tracer = tracing.install()
    op, rest = argv[0], argv[1:]
    try:
        if op == "setup":
            return _setup(rest)
        if op == "cli":
            from red_offline.cli import main as cli_main
            return cli_main(rest)
        print(f"unknown operation {op!r}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
