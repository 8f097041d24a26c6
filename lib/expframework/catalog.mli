(** The experiment/benchmark inventory, as data — the source of truth
    [bench --docs-check] lints the documentation against, and that
    [bin/experiments.ml] asserts its subcommand group matches at
    startup. Adding a subcommand or a committed [BENCH_*.json] without
    updating this module (and the docs it is checked against) turns the
    build red. *)

val experiments_subcommands : (string * string) list
(** [(name, one-line purpose)] for every [experiments] subcommand.
    EXPERIMENTS.md must mention each as [`experiments <name>`]. *)

val bench_files : (string * string) list
(** [(filename, regeneration command)] for every committed
    [BENCH_*.json]: the exact command, options included, that writes the
    committed file. BENCH.md must carry a [### `<filename>`] section for
    each whose first [Regenerate: `<command>`] line is this command, and
    every [BENCH_*.json] present in the repo root must be listed here. *)
