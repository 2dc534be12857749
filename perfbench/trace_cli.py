"""`kacvmrt` CLI with the benchmark's spans installed, for traced query runs.

    PYTHONPATH=src python3 perfbench/trace_cli.py OUT.json OP_ID vmrt LABEL --n N ...

Installs the wrappers of tracing.py in this process, runs kacvmrt.cli.main
on the remaining arguments, then writes the spans, the call counters and
the positive_roots cache hits and misses to OUT.json.
"""

import sys

import tracing

import kacvmrt.cli

tracer = tracing.Tracer()
tracer.install()
tracer.op = int(sys.argv[2])
hits0, misses0 = tracer.cache_counts()
tracer.enabled = True
try:
    code = kacvmrt.cli.main(sys.argv[3:])
finally:
    tracer.enabled = False
    hits1, misses1 = tracer.cache_counts()
    tracer.dump(sys.argv[1], {"cache": [hits1 - hits0, misses1 - misses0]})
sys.exit(code)
