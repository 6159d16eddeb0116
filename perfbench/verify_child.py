"""The traced operation of the `verify` workload: run `bn verify 7..12`
in-process through `bnloci.cli.main` under the tracer, in a fresh
interpreter, and print the exit status, the output and the spans as one
JSON line."""

import contextlib
import io
import json

import bench


def main() -> None:
    bench.require_sources()
    cli = bench.import_bnloci().cli
    tracer = bench.Tracer()
    tracer.install()
    buf = io.StringIO()
    tracer.op = 0
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", bench.VERIFY_RANGE])
    tracer.op = None
    tracer.finish_op()
    print(json.dumps({"rc": rc, "stdout": buf.getvalue(), "spans": tracer.spans}))


if __name__ == "__main__":
    main()
