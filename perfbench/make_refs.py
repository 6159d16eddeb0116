"""Regenerate perfbench/refs.json from the engine in this checkout.

    python3 perfbench/make_refs.py

The file is a regression lock: it records what the engine computed when it
was generated, not mathematical truth.  It holds, for every genus in the
assemble pools, a digest of the verdict matrix (cell kinds, equality classes
and covers, without provenance) and, for every k3_list job, the assignment
count, the minimum c2 bound and a digest of the JSON output.  As a check on
the digest function, the digest of assemble(g) with the packaged facts must
equal that of the packaged fixture matrix for g = 7..12.  Takes about two
minutes on a 2-CPU machine.
"""

from __future__ import annotations

import json

import bench


def main() -> None:
    bench.require_sources()
    bnloci = bench.import_bnloci()
    from bnloci.cli import packaged_facts, packaged_fixture_matrix
    from bnloci.poset import assemble

    for g in bench.VERIFY_GENERA:
        got = bench.matrix_digest(assemble(g, packaged_facts(g)))
        want = bench.matrix_digest(packaged_fixture_matrix(g))
        if got != want:
            raise SystemExit(f"digest self-check failed at genus {g}")

    genera = sorted(set(bench.POOLS["assemble_cold"]) | set(bench.POOLS["assemble_warm"]))
    matrix = {}
    for g in genera:
        m = assemble(g)
        matrix[str(g)] = {
            "digest": bench.matrix_digest(m),
            "classes": len(m.classes),
            "unknown_pairs": len(m.unknown_pairs()),
        }
        print(f"genus {g}: {matrix[str(g)]}", flush=True)

    k3 = {}
    for job in bench.POOLS["k3_list"]:
        rc, text = bench.run_k3_job(job)
        if rc != 0:
            raise SystemExit(f"bn k3 {job} exited {rc}")
        k3[bench.job_key(job)] = bench.k3_summary(text)
        print(f"k3 {job}: {k3[bench.job_key(job)]}", flush=True)

    refs = {
        "note": "regression lock generated from the engine by make_refs.py; not mathematical truth",
        "generated_from": {"commit": bench.commit_hash(), "src_sha256": bench.source_digest(),
                           "bnloci": bnloci.__version__},
        "verify": {"range": bench.VERIFY_RANGE, "exit": 0, "pass_lines": len(bench.VERIFY_GENERA)},
        "matrix": matrix,
        "k3": k3,
    }
    bench.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
