"""Run the mrlife CLI under the benchmark's tracer and dump its spans.

    python perfbench/cli_shim.py SPANS.json <mrlife arguments...>

Used by the traced ``cli`` workload in place of ``python -m mrlife.cli``;
exit codes and output are the CLI's own.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "benchmarks")]


def main():
    import mrlife.cli
    from tracer import Tracer

    spans_path = Path(sys.argv[1])
    tracer = Tracer().install()
    try:
        mrlife.cli.main(args=sys.argv[2:], prog_name="mrlife")
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.to_dict()), encoding="utf-8")


if __name__ == "__main__":
    main()
