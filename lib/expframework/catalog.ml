(* The experiment/benchmark inventory, as data. `bench --docs-check`
   walks this to fail the build when the docs drift: every experiments
   subcommand must be named in EXPERIMENTS.md (as `experiments <name>`)
   and every committed BENCH_*.json must have a BENCH.md section (headed
   `### `<file>``) whose Regenerate: line is the exact command below,
   the one that writes the committed file. bin/experiments.ml asserts its cmdliner group matches
   [experiments_subcommands] at startup, so a subcommand cannot be added
   without landing here — and therefore not without landing in the
   docs. *)

let experiments_subcommands =
  [ ("matrix", "attack x profile matrix");
    ("e1", "replay window sweep");
    ("e3", "password crack sweep");
    ("e13", "discrete log sweep");
    ("e14", "protocol overheads");
    ("e15", "encryption box invariants");
    ("validation", "message-confusion matrices");
    ("opsview", "operator view of the attacks");
    ("chaos", "seeded fault-plane drills");
    ("session-fuzz", "property-based session fuzzing");
    ("recovery", "crash/restart/replay drills");
    ("load", "capacity planning suite (BENCH_load.json)");
    ("detect", "blended attack campaign (BENCH_detect.json)");
    ("replicate", "viral-service replication campaign (BENCH_replication.json)");
    ("overload", "metastable-failure overload campaign (BENCH_overload.json)");
    ("all", "run everything") ]

let bench_files =
  [ ("BENCH_crypto.json", "dune exec bench/main.exe");
    ("BENCH_faults.json", "dune exec bench/main.exe");
    ("BENCH_telemetry.json", "dune exec bench/main.exe");
    ( "BENCH_load.json",
      "dune exec bin/experiments.exe -- load --users 1000000 --shards 8 \
       --kdcs 4 --active 2000 --requests 10 --lightweight --lazy" );
    ("BENCH_recovery.json", "dune exec bench/main.exe -- --recovery-smoke");
    ("BENCH_detect.json", "dune exec bin/experiments.exe -- detect");
    ("BENCH_transport.json", "dune exec bench/main.exe -- --transport-smoke");
    ("BENCH_replication.json", "dune exec bin/experiments.exe -- replicate");
    ("BENCH_overload.json", "dune exec bin/experiments.exe -- overload") ]
