#!/usr/bin/env python3
"""Run every mark-family / constraint / completion combination on one corpus.

With the oracle scorer all rows come out at QM = 1.0 by design; the point is
the wiring.  Only the two mark families change the serialized input (the
annotated.src file written per row): a ``structsql gen`` corpus gives every
example its own interaction, so discourse has no previous turn to mark, and
the constraint and completion act on decoding and its output, never on the
input.  Attach a real scorer via --scorer extern:host:port to measure actual
ablation deltas.
"""

import argparse
import itertools
from pathlib import Path

from structsql.cli import PipelineConfig, run_pipeline
from structsql.synth import generate_synthetic_corpus, write_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--n-schemas", type=int, default=6)
    parser.add_argument("--n-queries", type=int, default=40)
    parser.add_argument("--scorer", default="oracle")
    parser.add_argument("--out-dir", default="out/ablation")
    args = parser.parse_args()

    out = Path(args.out_dir)
    corpus = generate_synthetic_corpus(args.seed, args.n_schemas, args.n_queries)
    paths = write_corpus(corpus, out / "data")

    print(f"{'marks':>6} {'struct':>6} {'disc':>5} {'constr':>6} {'compl':>6} {'QM':>8} {'LX':>8}")
    for sp, ds, dc, constrained, completion in itertools.product((True, False), repeat=5):
        tag = f"{int(sp)}{int(ds)}{int(dc)}_{int(constrained)}{int(completion)}"
        config = PipelineConfig(
            data=str(paths["examples"]),
            tables=str(paths["tables"]),
            out_dir=str(out / f"run_{tag}"),
            schema_property=sp,
            database_structure=ds,
            discourse=dc,
            constrained=constrained,
            completion=completion,
            scorer=args.scorer,
            beam_width=3,
            max_len=200,
        )
        report = run_pipeline(config)
        print(
            f"{str(sp):>6} {str(ds):>6} {str(dc):>5} {str(constrained):>6} "
            f"{str(completion):>6} {report.qm:8.4f} {report.lx:8.4f}"
        )


if __name__ == "__main__":
    main()
