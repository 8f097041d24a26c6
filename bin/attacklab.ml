(* attacklab: run one named attack against one profile, with optional
   packet-level narration — an exploration tool for the reproduction.

     dune exec bin/attacklab.exe -- list
     dune exec bin/attacklab.exe -- run e6 --profile v5
     dune exec bin/attacklab.exe -- run e8b -p hardened

   Exit status: 0 = the profile defended, 1 = the attack broke through —
   so the lab can sit in scripts. *)

open Kerberos

let profile_of_string = function
  | "v4" -> Ok Profile.v4
  | "v5" | "v5-draft3" -> Ok Profile.v5_draft3
  | "hardened" -> Ok Profile.hardened
  | s -> Error (`Msg ("unknown profile " ^ s ^ " (v4|v5|hardened)"))

(* The matrix's attacks, keyed by their lower-case ids (e1, e6b, ...). *)
let key (a : Expframework.Matrix.attack) = String.lowercase_ascii a.id

let list_cmd () =
  List.iter
    (fun (a : Expframework.Matrix.attack) -> Printf.printf "%-5s %s\n" (key a) a.title)
    Expframework.Matrix.attacks

let run_cmd name profile_name opsview =
  match profile_of_string profile_name with
  | Error (`Msg m) ->
      prerr_endline m;
      exit 2
  | Ok profile -> (
      match List.find_opt (fun a -> key a = name) Expframework.Matrix.attacks with
      | None ->
          Printf.eprintf "unknown attack %s (try `attacklab list`)\n" name;
          exit 2
      | Some a ->
          (* A collector of our own, so the report covers exactly this run. *)
          let tel = Telemetry.Collector.fresh_default () in
          Printf.printf "%s vs %s:\n" a.title profile.Profile.name;
          let o = a.run profile in
          Printf.printf "  %s — %s\n" (Attacks.Outcome.label o) (Attacks.Outcome.detail o);
          if opsview then
            Printf.printf "\nOperator view:\n%s"
              (Telemetry.Rates.report ~addr:Sim.Addr.to_string
                 (Telemetry.Collector.rates tel) (Telemetry.Collector.metrics tel));
          if Attacks.Outcome.is_broken o then exit 1)

open Cmdliner

let () =
  let list_t = Term.(const list_cmd $ const ()) in
  let attack_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ATTACK")
  in
  let profile_arg =
    Arg.(value & opt string "v4" & info [ "profile"; "p" ] ~docv:"PROFILE")
  in
  let opsview_arg =
    Arg.(
      value & flag
      & info [ "opsview"; "o" ]
          ~doc:"also print what the operator's telemetry showed during the run")
  in
  let run_t = Term.(const run_cmd $ attack_arg $ profile_arg $ opsview_arg) in
  let info_ =
    Cmd.info "attacklab" ~doc:"run one attack from the paper against one protocol profile"
  in
  let cmds =
    [ Cmd.v (Cmd.info "list" ~doc:"list attacks") list_t;
      Cmd.v (Cmd.info "run" ~doc:"run an attack") run_t ]
  in
  exit (Cmd.eval (Cmd.group ~default:list_t info_ cmds))
