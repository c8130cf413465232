"""Benchmark-owned entry point for one ``fullgroups`` command.

Usage: python3 bench/cli_entry.py <io-report> <span-file or -> <fullgroups args...>

Runs ``fullgroups.cli.main`` on the arguments, as the ``fullgroups`` script
would. It counts the characters the command reads from and writes to text
files. Given a span file, it first installs the same wrappers as the
library workloads, traces the command as one op and writes the spans
there. Last it writes the two counts, and its peak resident set size in
KiB, to the io report; a command that dies earlier leaves no report.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> int:
    io_path, span_path, *argv = sys.argv[1:]
    tracer = None
    if span_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import fullgroups.cli

    counts = {"read": 0, "written": 0}
    read_text, write_text = Path.read_text, Path.write_text

    def counted_read(self, *args, **kwargs):
        text = read_text(self, *args, **kwargs)
        counts["read"] += len(text)
        return text

    def counted_write(self, data, *args, **kwargs):
        counts["written"] += len(data)
        return write_text(self, data, *args, **kwargs)

    Path.read_text, Path.write_text = counted_read, counted_write
    try:
        if tracer is not None:
            tracer.op = 1
            tracer.enabled = True
        code = fullgroups.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.enabled = False
        Path.read_text, Path.write_text = read_text, write_text
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(span_path)
        with open(io_path, "w") as fh:  # written last: its presence means a full report
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            fh.write(f"{counts['read']} {counts['written']} {rss_kb}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
