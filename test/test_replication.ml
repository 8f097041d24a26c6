(* Master/slave KDC replication: the kprop push, serving logins from the
   slave, refreshing after a password change, and refusing rogue pushes. *)

open Kerberos

let realm = "ATHENA"

let replication_flow () =
  let profile = Profile.v5_draft3 in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let quad = Sim.Addr.of_quad in
  let master_host = Sim.Host.create ~name:"kerberos-1" ~ips:[ quad 10 0 0 1 ] () in
  let slave_host = Sim.Host.create ~name:"kerberos-2" ~ips:[ quad 10 0 0 3 ] () in
  let ws = Sim.Host.create ~name:"ws" ~ips:[ quad 10 0 0 10 ] () in
  List.iter (Sim.Net.attach net) [ master_host; slave_host; ws ];
  let rng = Util.Rng.create 0x4b50L in
  (* Master database: realm key, a user, the master's own principal, and
     the slave's kpropd service. *)
  let master_db = Kdb.create () in
  Kdb.add_service master_db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  Kdb.add_user master_db (Principal.user ~realm "pat") ~password:"first.pw";
  let master_principal = Principal.user ~realm "kadmin" in
  Kdb.add_user master_db master_principal ~password:"master.host.pw";
  let kpropd_principal = Principal.service ~realm "kprop" ~host:"kerberos-2" in
  let kpropd_key = Crypto.Des.random_key rng in
  Kdb.add_service master_db kpropd_principal ~key:kpropd_key;
  let master_kdc = Kdc.create ~realm ~profile ~lifetime:28800.0 master_db in
  Kdc.install net master_host master_kdc ();
  (* Slave: an empty database and a kpropd accepting only the master. *)
  let slave_db = Kdb.create () in
  let slave_kdc = Kdc.create ~realm ~profile ~lifetime:28800.0 slave_db in
  Kdc.install net slave_host slave_kdc ();
  let kpropd =
    Services.Kprop.install_slave net slave_host ~profile ~principal:kpropd_principal
      ~key:kpropd_key ~port:754 ~master:master_principal ~slave_db
  in
  let kdcs_master = [ (realm, Sim.Host.primary_ip master_host) ] in
  let kdcs_slave = [ (realm, Sim.Host.primary_ip slave_host) ] in
  (* Before propagation the slave knows nobody. *)
  let early = ref None in
  let c_early =
    Client.create ~seed:1L net ws ~profile ~kdcs:kdcs_slave (Principal.user ~realm "pat")
  in
  Client.login c_early ~password:"first.pw" (fun r -> early := Some (Result.is_ok r));
  Sim.Engine.run eng;
  Alcotest.(check (option bool)) "slave empty before push" (Some false) !early;
  (* The master pushes. *)
  let admin =
    Client.create ~seed:2L net master_host ~profile ~kdcs:kdcs_master master_principal
  in
  let pushed = ref None in
  Client.login admin ~password:"master.host.pw" (fun r ->
      ignore (Result.get_ok r);
      Client.get_ticket admin ~service:kpropd_principal (fun r ->
          let creds = Result.get_ok r in
          Client.ap_exchange admin creds ~dst:(Sim.Host.primary_ip slave_host)
            ~dport:754 (fun r ->
              let chan = Result.get_ok r in
              Services.Kprop.propagate admin chan ~db:master_db ~k:(fun r ->
                  pushed := Some r))));
  Sim.Engine.run eng;
  (match !pushed with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "push failed: %s" e
  | None -> Alcotest.fail "push stalled");
  Alcotest.(check int) "one propagation" 1 (Services.Kprop.propagations_received kpropd);
  Alcotest.(check int) "databases equal" (Kdb.size master_db) (Kdb.size slave_db);
  (* Now pat can log in against the slave. *)
  let late = ref None in
  let c_late =
    Client.create ~seed:3L net ws ~profile ~kdcs:kdcs_slave (Principal.user ~realm "pat")
  in
  Client.login c_late ~password:"first.pw" (fun r -> late := Some (Result.is_ok r));
  Sim.Engine.run eng;
  Alcotest.(check (option bool)) "slave serves after push" (Some true) !late;
  (* Password changes at the master reach the slave on the next push. *)
  Kdb.add_user master_db (Principal.user ~realm "pat") ~password:"second.pw";
  let repushed = ref None in
  Client.get_ticket admin ~service:kpropd_principal (fun r ->
      let creds = Result.get_ok r in
      Client.ap_exchange admin creds ~dst:(Sim.Host.primary_ip slave_host) ~dport:754
        (fun r ->
          let chan = Result.get_ok r in
          Services.Kprop.propagate admin chan ~db:master_db ~k:(fun r ->
              repushed := Some r)));
  Sim.Engine.run eng;
  (match !repushed with Some (Ok ()) -> () | _ -> Alcotest.fail "second push failed");
  let old_pw = ref None and new_pw = ref None in
  let c2 =
    Client.create ~seed:4L net ws ~profile ~kdcs:kdcs_slave (Principal.user ~realm "pat")
  in
  Client.login c2 ~password:"first.pw" (fun r ->
      old_pw := Some (Result.is_ok r);
      Client.login c2 ~password:"second.pw" (fun r -> new_pw := Some (Result.is_ok r)));
  Sim.Engine.run eng;
  Alcotest.(check (option bool)) "old password gone from slave" (Some false) !old_pw;
  Alcotest.(check (option bool)) "new password live on slave" (Some true) !new_pw;
  (* A rogue push from an ordinary user is refused. *)
  Kdb.add_user master_db (Principal.user ~realm "robin") ~password:"robin.pw";
  (* robin needs to be known to the slave too (it is, after the pushes? no —
     robin was added after; push again first). For the rogue test, use the
     already-replicated pat account. *)
  let rogue = ref None in
  let evil_db = Kdb.create () in
  Kdb.add_user evil_db (Principal.user ~realm "pat") ~password:"attacker-chosen";
  let c_pat =
    Client.create ~seed:5L net ws ~profile ~kdcs:kdcs_master (Principal.user ~realm "pat")
  in
  Client.login c_pat ~password:"second.pw" (fun r ->
      ignore (Result.get_ok r);
      Client.get_ticket c_pat ~service:kpropd_principal (fun r ->
          let creds = Result.get_ok r in
          Client.ap_exchange c_pat creds ~dst:(Sim.Host.primary_ip slave_host)
            ~dport:754 (fun r ->
              let chan = Result.get_ok r in
              Services.Kprop.propagate c_pat chan ~db:evil_db ~k:(fun r ->
                  rogue := Some r))));
  Sim.Engine.run eng;
  (match !rogue with
  | Some (Error _) -> ()
  | Some (Ok ()) -> Alcotest.fail "rogue push accepted"
  | None -> Alcotest.fail "rogue push stalled");
  Alcotest.(check int) "refusal counted" 1 (Services.Kprop.pushes_refused kpropd)

(* ------------------------------------------------------------------ *)
(* Sharded propagation: one shard at a time, atomically.               *)
(* ------------------------------------------------------------------ *)

let shard_propagation_flow () =
  let profile = Profile.v5_draft3 in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng in
  let quad = Sim.Addr.of_quad in
  let master_host = Sim.Host.create ~name:"kerberos-1" ~ips:[ quad 10 0 0 1 ] () in
  let slave_host = Sim.Host.create ~name:"kerberos-2" ~ips:[ quad 10 0 0 3 ] () in
  let odd_host = Sim.Host.create ~name:"kerberos-3" ~ips:[ quad 10 0 0 4 ] () in
  List.iter (Sim.Net.attach net) [ master_host; slave_host; odd_host ];
  let rng = Util.Rng.create 0x5D4BL in
  let master_db = Kdb.create ~shards:2 () in
  Kdb.add_service master_db (Principal.tgs ~realm) ~key:(Crypto.Des.random_key rng);
  for i = 0 to 11 do
    Kdb.add_user master_db (Principal.user ~realm (Printf.sprintf "u%d" i))
      ~password:(Printf.sprintf "pw%d" i)
  done;
  let master_principal = Principal.user ~realm "kadmin" in
  Kdb.add_user master_db master_principal ~password:"master.host.pw";
  let kpropd_principal = Principal.service ~realm "kprop" ~host:"kerberos-2" in
  let kpropd_key = Crypto.Des.random_key rng in
  Kdb.add_service master_db kpropd_principal ~key:kpropd_key;
  let odd_principal = Principal.service ~realm "kprop" ~host:"kerberos-3" in
  let odd_key = Crypto.Des.random_key rng in
  Kdb.add_service master_db odd_principal ~key:odd_key;
  let master_kdc = Kdc.create ~realm ~profile ~lifetime:28800.0 master_db in
  Kdc.install net master_host master_kdc ();
  (* A slave partitioned like the master, and one partitioned differently. *)
  let slave_db = Kdb.create ~shards:2 () in
  let kpropd =
    Services.Kprop.install_slave net slave_host ~profile ~principal:kpropd_principal
      ~key:kpropd_key ~port:754 ~master:master_principal ~slave_db
  in
  let odd_db = Kdb.create ~shards:3 () in
  let odd_kpropd =
    Services.Kprop.install_slave net odd_host ~profile ~principal:odd_principal
      ~key:odd_key ~port:754 ~master:master_principal ~slave_db:odd_db
  in
  let admin =
    Client.create ~seed:7L net master_host ~profile
      ~kdcs:[ (realm, Sim.Host.primary_ip master_host) ]
      master_principal
  in
  let pushed = ref None in
  Client.login admin ~password:"master.host.pw" (fun r ->
      ignore (Result.get_ok r);
      Client.get_ticket admin ~service:kpropd_principal (fun r ->
          let creds = Result.get_ok r in
          Client.ap_exchange admin creds ~dst:(Sim.Host.primary_ip slave_host)
            ~dport:754 (fun r ->
              let chan = Result.get_ok r in
              Services.Kprop.propagate_shards admin chan ~db:master_db ~k:(fun r ->
                  pushed := Some r))));
  Sim.Engine.run eng;
  (match !pushed with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "shard push failed: %s" e
  | None -> Alcotest.fail "shard push stalled");
  Alcotest.(check int) "one push per shard" 2
    (Services.Kprop.shard_propagations_received kpropd);
  Alcotest.(check int) "no full-database push" 0
    (Services.Kprop.propagations_received kpropd);
  Alcotest.(check int) "databases equal" (Kdb.size master_db) (Kdb.size slave_db);
  List.iter
    (fun p ->
      match (Kdb.lookup master_db p, Kdb.lookup slave_db p) with
      | Some a, Some b when a.Kdb.kind = b.Kdb.kind && Bytes.equal a.Kdb.key b.Kdb.key
        -> ()
      | _ -> Alcotest.failf "entry mismatch for %s" (Principal.to_string p))
    (Kdb.principals master_db);
  (* The differently-partitioned slave refuses rather than scattering
     entries into the wrong shards. *)
  let refused = ref None in
  Client.get_ticket admin ~service:odd_principal (fun r ->
      let creds = Result.get_ok r in
      Client.ap_exchange admin creds ~dst:(Sim.Host.primary_ip odd_host) ~dport:754
        (fun r ->
          let chan = Result.get_ok r in
          Services.Kprop.propagate_shards admin chan ~db:master_db ~k:(fun r ->
              refused := Some r)));
  Sim.Engine.run eng;
  (match !refused with
  | Some (Error e) ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the mismatch (%s)" e)
        true
        (Astring.String.is_infix ~affix:"mismatch" e)
  | Some (Ok ()) -> Alcotest.fail "mismatched shard count accepted"
  | None -> Alcotest.fail "mismatched push stalled");
  Alcotest.(check int) "nothing installed on the odd slave" 0 (Kdb.size odd_db);
  Alcotest.(check int) "no shard pushes counted" 0
    (Services.Kprop.shard_propagations_received odd_kpropd)

(* replace_shard_from_bytes is all-or-nothing: a truncated or misrouted
   blob leaves the previous shard contents fully in place — the regression
   for the old reset-then-refill replace_from, which destroyed the slave's
   data before the refill could fail. *)
let shard_atomicity () =
  let db = Kdb.create ~shards:2 () in
  for i = 0 to 19 do
    Kdb.add_user db (Principal.user ~realm (Printf.sprintf "u%d" i))
      ~password:(Printf.sprintf "pw%d" i)
  done;
  let in_shard_1 = List.filter (fun p -> Kdb.shard_of db p = 1) (Kdb.principals db) in
  Alcotest.(check bool) "shard 1 populated" true (in_shard_1 <> []);
  let intact label =
    List.iter
      (fun p ->
        match Kdb.lookup db p with
        | Some _ -> ()
        | None -> Alcotest.failf "%s: lost %s" label (Principal.to_string p))
      in_shard_1
  in
  let good = Kdb.shard_to_bytes db 1 in
  (* Truncated mid-entry: must raise and change nothing. *)
  (match Kdb.replace_shard_from_bytes db 1 (Bytes.sub good 0 (Bytes.length good - 3)) with
  | exception Wire.Codec.Decode_error _ -> ()
  | () -> Alcotest.fail "truncated shard blob accepted");
  intact "after truncated push";
  (* A well-formed blob whose entries belong in another shard: same deal.
     Membership is checked in dump order, so the refusal names the dump's
     first principal whatever order the table keeps. *)
  let first_of_shard_0 =
    List.filter (fun p -> Kdb.shard_of db p = 0) (Kdb.principals db)
    |> List.map Principal.to_string |> List.sort String.compare |> List.hd
  in
  (match Kdb.replace_shard_from_bytes db 1 (Kdb.shard_to_bytes db 0) with
  | exception Wire.Codec.Decode_error e ->
      Alcotest.(check string) "refusal names the dump's first principal"
        (Printf.sprintf "kdb: %s does not belong in shard 1" first_of_shard_0)
        e
  | () -> Alcotest.fail "misrouted shard blob accepted");
  intact "after misrouted push";
  (* And the good blob still installs cleanly. *)
  let size_before = Kdb.size db in
  Kdb.replace_shard_from_bytes db 1 good;
  intact "after clean push";
  Alcotest.(check int) "size unchanged by idempotent push" size_before (Kdb.size db)

let kdb_roundtrip =
  QCheck.Test.make ~name:"kdb serialization roundtrip" ~count:100
    QCheck.(int_range 0 20)
    (fun n ->
      let rng = Util.Rng.create (Int64.of_int (n + 1)) in
      let db = Kdb.create () in
      for i = 0 to n - 1 do
        if i mod 2 = 0 then
          Kdb.add_user db (Principal.user ~realm (Printf.sprintf "u%d" i))
            ~password:(Printf.sprintf "pw%d" i)
        else
          Kdb.add_service db
            (Principal.service ~realm (Printf.sprintf "s%d" i) ~host:"h")
            ~key:(Crypto.Des.random_key rng)
      done;
      let back = Kdb.of_bytes (Kdb.to_bytes db) in
      Kdb.size back = Kdb.size db
      && List.for_all
           (fun p ->
             match (Kdb.lookup db p, Kdb.lookup back p) with
             | Some a, Some b -> a.Kdb.kind = b.Kdb.kind && Bytes.equal a.Kdb.key b.Kdb.key
             | _ -> false)
           (Kdb.principals db))

let kdb_reshard =
  QCheck.Test.make ~name:"replace_from re-partitions across shard counts" ~count:60
    QCheck.(triple (int_range 0 30) (int_range 1 8) (int_range 1 8))
    (fun (n, s1, s2) ->
      let rng = Util.Rng.create (Int64.of_int ((n * 64) + (s1 * 8) + s2 + 1)) in
      let src = Kdb.create ~shards:s1 () in
      for i = 0 to n - 1 do
        if i mod 2 = 0 then
          Kdb.add_user src (Principal.user ~realm (Printf.sprintf "u%d" i))
            ~password:(Printf.sprintf "pw%d" i)
        else
          Kdb.add_service src
            (Principal.service ~realm (Printf.sprintf "s%d" i) ~host:"h")
            ~key:(Crypto.Des.random_key rng)
      done;
      let dst = Kdb.create ~shards:s2 () in
      let stale = Principal.user ~realm "stale" in
      Kdb.add_user dst stale ~password:"gone.after.swap";
      Kdb.replace_from dst src;
      Kdb.shard_count dst = s2
      && Kdb.size dst = Kdb.size src
      && Option.is_none (Kdb.lookup dst stale)
      && List.for_all
           (fun p ->
             match (Kdb.lookup src p, Kdb.lookup dst p) with
             | Some a, Some b ->
                 a.Kdb.kind = b.Kdb.kind && Bytes.equal a.Kdb.key b.Kdb.key
             | _ -> false)
           (Kdb.principals src))

(* Every key the database holds is a DES key. One of another length used
   to be stored, by [add_*] or from a dump or a WAL record, and then
   raised out of the simulation at the KDC's first [Des.schedule] of it.
   Each write path now refuses it where it enters. *)
let dump_of_one name ~kind key =
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.u32 w 1;
  Wire.Codec.Writer.lstring w name;
  Wire.Codec.Writer.u8 w kind;
  Wire.Codec.Writer.lbytes w key;
  Wire.Codec.Writer.contents w

let keys_must_be_8_bytes () =
  let db = Kdb.create ~shards:2 () in
  Kdb.add_user db (Principal.user ~realm "pat") ~password:"pat.pw";
  let versions = Kdb.version_vector db and digests = Kdb.digests db in
  let svc = Principal.service ~realm "rlogin" ~host:"ws" in
  let short = Bytes.make 7 'k' in
  Alcotest.check_raises "add_service, 7 bytes"
    (Invalid_argument "Kdb.add_service: key must be 8 bytes") (fun () ->
      Kdb.add_service db svc ~key:short);
  Alcotest.check_raises "add_cross_realm, 9 bytes"
    (Invalid_argument "Kdb.add_cross_realm: key must be 8 bytes") (fun () ->
      Kdb.add_cross_realm db
        (Principal.cross_realm_tgs ~local:realm ~remote:"ENG")
        ~key:(Bytes.make 9 'k'));
  let refused label f =
    match f () with
    | exception Wire.Codec.Decode_error e ->
        Alcotest.(check string) label "kdb: key must be 8 bytes" e
    | _ -> Alcotest.failf "%s: a 7-byte key accepted" label
  in
  let dump = dump_of_one (Principal.to_string svc) ~kind:1 short in
  refused "of_bytes" (fun () -> Kdb.of_bytes dump);
  refused "replace_shard_from_bytes" (fun () ->
      Kdb.replace_shard_from_bytes db (Kdb.shard_of db svc) dump);
  Alcotest.(check int) "nothing stored" 1 (Kdb.size db);
  Alcotest.(check (array int)) "no version moved" versions (Kdb.version_vector db);
  Alcotest.(check (array int)) "no shard changed" digests (Kdb.digests db);
  (* In the WAL, a Put carrying the short key ends the clean prefix. *)
  let w = Kdb.Wal.create () in
  let put shard name key kind =
    Kdb.Wal.append w
      { Kdb.Wal.w_shard = shard; w_version = 1;
        w_op = Kdb.Wal.Put (name, { Kdb.key; kind }) }
  in
  put 0 "pat@ATHENA" (Bytes.make 8 'p') Kdb.User;
  put 1 (Principal.to_string svc) short Kdb.Service;
  let records, discarded = Kdb.Wal.replay (Kdb.Wal.contents w) in
  Alcotest.(check int) "replay keeps the record before it" 1 (List.length records);
  Alcotest.(check bool) "and discards the short key's frame" true (discarded > 0)

(* The shard table against a model: a [Hashtbl] from principal name to
   entry, each operation's effect written out by hand. Names come from a
   pool of 600, so bulk adds cross several of the table's growth steps.
   After every operation, every read the database offers agrees with the
   model, its dumps and digests included, rendered here in the dump
   format. *)
type kdb_op =
  | Add of int * int * int  (* name, kind code, key seed *)
  | Bulk of int * int  (* first name, count: services *)
  | Swap_shard of int * (int * int * int) list  (* a dump of these *)
  | Replace_from of int * (int * int * int) list  (* source shard count *)
  | Durable
  | Crash  (* wipe, then recover and restore from the disk image *)
  | Wipe

let show_kdb_op = function
  | Add (i, k, s) -> Printf.sprintf "add %d kind %d key %d" i k s
  | Bulk (i, n) -> Printf.sprintf "bulk %d+%d" i n
  | Swap_shard (i, es) -> Printf.sprintf "swap shard %d (%d)" i (List.length es)
  | Replace_from (n, es) -> Printf.sprintf "replace_from %d shards (%d)" n (List.length es)
  | Durable -> "durable"
  | Crash -> "crash"
  | Wipe -> "wipe"

let pool_name i =
  match i mod 3 with
  | 0 -> Principal.user ~realm (Printf.sprintf "u%d" i)
  | 1 -> Principal.service ~realm (Printf.sprintf "s%d" i) ~host:"h"
  | _ -> Principal.cross_realm_tgs ~local:realm ~remote:(Printf.sprintf "R%d" i)

let pool_key seed =
  Bytes.sub (Bytes.of_string (Digest.string (string_of_int seed))) 0 8

(* Add pool entry [i] to [db] and to [model] as kind [k]. *)
let model_add db model (i, k, seed) =
  let p = pool_name i in
  let e =
    match k with
    | 0 ->
        let password = Printf.sprintf "pw%d" seed in
        Kdb.add_user db p ~password;
        { Kdb.key = Crypto.Str2key.derive password; kind = Kdb.User }
    | 1 ->
        Kdb.add_service db p ~key:(pool_key seed);
        { Kdb.key = pool_key seed; kind = Kdb.Service }
    | _ ->
        Kdb.add_cross_realm db p ~key:(pool_key seed);
        { Kdb.key = pool_key seed; kind = Kdb.Cross_realm }
  in
  Hashtbl.replace model (Principal.to_string p) e

let model_dump model names =
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.u32 w (List.length names);
  List.iter
    (fun n ->
      let e = Hashtbl.find model n in
      Wire.Codec.Writer.lstring w n;
      Wire.Codec.Writer.u8 w
        (match e.Kdb.kind with Kdb.User -> 0 | Kdb.Service -> 1 | Kdb.Cross_realm -> 2);
      Wire.Codec.Writer.lbytes w e.Kdb.key)
    names;
  Wire.Codec.Writer.contents w

let agrees db model =
  let n = Kdb.shard_count db in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) model [] |> List.sort String.compare in
  let shard name = Kdb.shard_of db (Principal.of_string name) in
  let in_shard i = List.filter (fun name -> shard name = i) names in
  let same a b = a.Kdb.kind = b.Kdb.kind && Bytes.equal a.Kdb.key b.Kdb.key in
  let looked_up i =
    let name = Principal.to_string (pool_name i) in
    match (Kdb.lookup db (pool_name i), Hashtbl.find_opt model name) with
    | Some a, Some b -> same a b
    | None, None -> true
    | _ -> false
  in
  List.for_all looked_up (List.init 600 Fun.id)
  && Kdb.size db = Hashtbl.length model
  && Kdb.shard_sizes db = Array.init n (fun i -> List.length (in_shard i))
  && Kdb.principals db
     = List.sort Principal.compare (List.map Principal.of_string names)
  && Kdb.cross_realm_keys db
     = (List.filter_map
          (fun name ->
            let e = Hashtbl.find model name in
            if e.Kdb.kind = Kdb.Cross_realm then Some (Principal.of_string name, e.Kdb.key)
            else None)
          names
       |> List.sort (fun (a, _) (b, _) -> Principal.compare a b))
  && Bytes.equal (Kdb.to_bytes db) (model_dump model names)
  && List.for_all
       (fun i -> Bytes.equal (Kdb.shard_to_bytes db i) (model_dump model (in_shard i)))
       (List.init n Fun.id)
  && Kdb.digests db
     = Array.init n (fun i -> Crypto.Crc32.bytes_digest (model_dump model (in_shard i)))

let kdb_table_matches_model =
  let open QCheck.Gen in
  let entry = triple (int_bound 599) (int_bound 2) small_nat in
  let op =
    frequency
      [ (6, map (fun e -> let i, k, s = e in Add (i, k, s)) entry);
        (3, map2 (fun i n -> Bulk (i, n)) (int_bound 599) (int_range 1 200));
        (2, map2 (fun i es -> Swap_shard (i, es)) (int_bound 7) (list_size (int_bound 60) entry));
        (1, map2 (fun n es -> Replace_from (n, es)) (int_range 1 6)
              (list_size (int_bound 120) entry));
        (1, return Durable); (1, return Crash); (1, return Wipe) ]
  in
  QCheck.Test.make ~name:"shard table agrees with a Hashtbl model" ~count:60
    (QCheck.make
       ~print:(fun (n, ops) ->
         Printf.sprintf "%d shards: %s" n (String.concat "; " (List.map show_kdb_op ops)))
       (pair (int_range 1 4) (list_size (int_range 1 30) op)))
    (fun (shards, ops) ->
      let db = Kdb.create ~shards () and model = Hashtbl.create 64 in
      let source n entries =
        let src = Kdb.create ~shards:n () and m = Hashtbl.create 64 in
        List.iter (model_add src m) entries;
        (src, m)
      in
      List.for_all
        (fun op ->
          (match op with
          | Add (i, k, s) -> model_add db model (i, k, s)
          | Bulk (first, count) ->
              for j = first to first + count - 1 do
                model_add db model (j mod 600, 1, j)
              done
          | Swap_shard (i, entries) ->
              let i = i mod shards in
              let src, m = source shards entries in
              Kdb.replace_shard_from_bytes db i (Kdb.shard_to_bytes src i);
              Hashtbl.filter_map_inplace
                (fun name e ->
                  if Kdb.shard_of db (Principal.of_string name) = i then None
                  else Some e)
                model;
              Hashtbl.iter
                (fun name e ->
                  if Kdb.shard_of db (Principal.of_string name) = i then
                    Hashtbl.replace model name e)
                m
          | Replace_from (n, entries) ->
              let src, m = source n entries in
              Kdb.replace_from db src;
              Hashtbl.reset model;
              Hashtbl.iter (Hashtbl.replace model) m
          | Durable ->
              if not (Kdb.durable db) then Kdb.enable_durability ~checkpoint_every:7 db
          | Crash -> (
              let image = Kdb.disk_image db in
              Kdb.wipe db;
              match image with
              | Some (checkpoint, wal) -> Kdb.restore db (Kdb.recover ~checkpoint ~wal)
              | None -> Hashtbl.reset model)
          | Wipe ->
              Kdb.wipe db;
              Hashtbl.reset model);
          agrees db model)
        ops)

(* ------------------------------------------------------------------ *)
(* WAL-shipped read replicas: apply-before-ack, torn shipments,        *)
(* bounded-lag routing, crash/rejoin convergence, determinism.         *)
(* ------------------------------------------------------------------ *)

let user i = Principal.user ~realm (Printf.sprintf "u%d" i)

let primary_with ?(shards = 4) ?(checkpoint_every = 0) n =
  let db = Kdb.create ~shards () in
  for i = 0 to n - 1 do
    Kdb.add_user db (user i) ~password:(Printf.sprintf "pw%d" i)
  done;
  Kdb.enable_durability ~checkpoint_every db;
  db

let converged db r =
  Kdb.version_vector (Kdb.replica_db r) = Kdb.version_vector db
  && Kdb.digests (Kdb.replica_db r) = Kdb.digests db

(* The ack (applied LSN) only moves when the record's effect is visible
   in the replica's database: writes made after the last shipping round
   are neither visible nor acked, and one round makes them both at
   once. *)
let apply_before_ack () =
  let db = primary_with 8 in
  let r = Kdb.attach_replica db ~name:"r0" in
  Alcotest.(check int) "bootstrap acks the full log" (Kdb.head_lsn db)
    (Kdb.replica_applied_lsn r);
  Kdb.add_user db (user 100) ~password:"pw100";
  Kdb.add_user db (user 101) ~password:"pw101";
  Alcotest.(check int) "unshipped writes leave the replica lagging" 2
    (Kdb.replica_lag db r);
  Alcotest.(check (option reject)) "unacked record is not visible"
    None
    (Kdb.lookup (Kdb.replica_db r) (user 100));
  let applied = Kdb.ship_to_replica r in
  Alcotest.(check int) "one round applies both records" 2 applied;
  Alcotest.(check int) "ack caught up to head" (Kdb.head_lsn db)
    (Kdb.replica_applied_lsn r);
  Alcotest.(check bool) "acked record is visible" true
    (Kdb.lookup (Kdb.replica_db r) (user 100) <> None
    && Kdb.lookup (Kdb.replica_db r) (user 101) <> None);
  Alcotest.(check bool) "replica converged" true (converged db r)

(* A shipment torn mid-frame replays to the clean prefix — LSNs strictly
   increasing, trailing garbage discarded, never an exception. *)
let torn_shipment () =
  let db = primary_with 6 in
  let wal = Option.get (Kdb.wal db) in
  let base = Kdb.Wal.head_lsn wal in
  for i = 200 to 204 do
    Kdb.add_user db (user i) ~password:(Printf.sprintf "pw%d" i)
  done;
  let blob = Kdb.Wal.ship_since wal ~lsn:base in
  let whole, none = Kdb.Wal.replay_shipment blob in
  Alcotest.(check int) "intact shipment: all five records" 5 (List.length whole);
  Alcotest.(check int) "intact shipment: nothing discarded" 0 none;
  let lsns = List.map fst whole in
  Alcotest.(check bool) "LSNs strictly increasing" true
    (List.sort_uniq compare lsns = lsns && List.sort compare lsns = lsns);
  (* Tear inside the last frame. *)
  let torn = Bytes.sub blob 0 (Bytes.length blob - 7) in
  let prefix, discarded = Kdb.Wal.replay_shipment torn in
  Alcotest.(check int) "torn tail: clean prefix of four" 4 (List.length prefix);
  Alcotest.(check bool) "torn tail: remainder discarded" true (discarded > 0);
  (* Bit-flip mid-frame: CRC stops replay at the flip, cleanly. *)
  let flipped = Bytes.copy blob in
  let off = Bytes.length blob / 2 in
  Bytes.set flipped off (Char.chr (Char.code (Bytes.get flipped off) lxor 0x40));
  let p2, d2 = Kdb.Wal.replay_shipment flipped in
  Alcotest.(check bool) "bit flip: strict prefix survives" true
    (List.length p2 < 5 && d2 > 0);
  List.iter2
    (fun (la, _) (lb, _) -> Alcotest.(check int) "prefix LSNs match" la lb)
    (List.filteri (fun i _ -> i < List.length p2) whole)
    p2

(* Bounded-lag routing: an ordinary read uses a replica only within
   max_lag; a fresh read (the AS client-key path) only within
   fresh_floor — otherwise the primary serves and the fallback is
   counted. *)
let bounded_lag_routing () =
  let db = primary_with ~shards:1 4 in
  let router =
    Replication.create ~service_time:0.001 ~max_lag:2 ~fresh_floor:0 db
  in
  let r = Kdb.attach_replica db ~name:"r0" in
  Replication.add_replica router r;
  let read ?fresh p = fst (Replication.read router ~now:0.0 ?fresh p) in
  (* In sync: the replica (idle, same queue) is eligible; with both
     queues empty the tie breaks to the first unit, the primary — so
     issue two reads and expect one each. *)
  ignore (read (user 0));
  ignore (read (user 1));
  Alcotest.(check (list (pair string int)))
    "tie-break then queue-balance" [ ("primary", 1); ("r0", 1) ]
    (Replication.unit_reads router);
  (* Three writes push the lag past max_lag = 2: ordinary reads must
     fall back to the primary. *)
  for i = 300 to 302 do
    Kdb.add_user db (user i) ~password:"pw"
  done;
  Alcotest.(check int) "lag beyond bound" 3 (Kdb.replica_lag db r);
  ignore (read (user 0));
  Alcotest.(check int) "stale fallback counted" 1
    (Replication.stale_fallbacks router);
  Alcotest.(check (list (pair string int)))
    "over-lag read pinned to primary" [ ("primary", 2); ("r0", 1) ]
    (Replication.unit_reads router);
  (* One shipping round brings lag to 0; reads spread again. *)
  ignore (Replication.ship_all router);
  ignore (read (user 300));
  Alcotest.(check (list (pair string int)))
    "replica eligible again after shipping" [ ("primary", 2); ("r0", 2) ]
    (Replication.unit_reads router);
  (* Fresh reads tolerate no lag at all (fresh_floor = 0). *)
  Kdb.add_user db (user 303) ~password:"pw";
  ignore (read ~fresh:true (user 0));
  Alcotest.(check int) "fresh fallback counted" 1
    (Replication.fresh_fallbacks router);
  ignore (Replication.ship_all router);
  ignore (read ~fresh:true (user 0));
  Alcotest.(check int) "fresh read uses a caught-up replica" 1
    (Replication.fresh_fallbacks router)

(* Self-tuning ship cadence under a bursty write schedule: the trigger
   ships only when some replica's lag reaches [fraction] of [max_lag],
   so as long as the burst size per check interval stays under the
   remaining headroom, bounded-staleness routing never observes
   lag >= max_lag — no read ever falls back to the primary for
   staleness — and quiet checks ship nothing. *)
let self_tuning_cadence () =
  let db = primary_with ~shards:1 8 in
  let max_lag = 8 in
  let router = Replication.create ~service_time:0.001 ~max_lag db in
  let r = Kdb.attach_replica db ~name:"r0" in
  Replication.add_replica router r;
  Alcotest.(check int) "router exposes its staleness bound" max_lag
    (Replication.staleness_bound router);
  let rng = Util.Rng.create 0xcadc3L in
  let ships = ref 0 and checks_shipping = ref 0 and next = ref 1000 in
  let worst = ref 0 in
  (* 200 check intervals; each carries a write burst of 0..4 records —
     sometimes silence, sometimes half the threshold at once. The
     trigger fraction is 2/8, so headroom between a passing check and
     the bound is 6 records > any single burst. *)
  for _ = 1 to 200 do
    let burst = Util.Rng.int rng 5 in
    for _ = 1 to burst do
      Kdb.add_user db (user !next) ~password:"pw";
      incr next
    done;
    (* Routing decisions observe the lag as it stands when the read
       lands, before this check's shipping round. *)
    if Kdb.replica_lag db r > !worst then worst := Kdb.replica_lag db r;
    ignore (Replication.read router ~now:0.0 (user 0));
    let shipped = Replication.ship_if_lagged ~fraction:0.25 router in
    ships := !ships + shipped;
    if shipped > 0 then incr checks_shipping
  done;
  Alcotest.(check bool)
    (Printf.sprintf "lag stays strictly inside the bound (worst %d)" !worst)
    true (!worst < max_lag);
  Alcotest.(check int) "no read ever fell back for staleness" 0
    (Replication.stale_fallbacks router);
  (* fraction 0.0 is the fixed-cadence daemon: ships unconditionally,
     leaving the replica fully converged. *)
  ignore (Replication.ship_if_lagged ~fraction:0.0 router);
  Alcotest.(check int) "fraction 0.0 ships on every check" 0
    (Kdb.replica_lag db r);
  Alcotest.(check bool)
    (Printf.sprintf "quiet checks ship nothing (%d/200 shipped)"
       !checks_shipping)
    true
    (!checks_shipping < 200 && !checks_shipping > 0)

(* Replay-cache flood: a capped cache holds its memory bound under a
   flood of distinct authenticators — evicting the soonest-to-expire
   entry, counting every eviction — while a replay of a {e recent}
   authenticator (well inside the horizon, still resident) is caught. *)
let replay_cache_flood () =
  let cap = 1000 in
  let evictions = ref 0 in
  let c =
    Replay_cache.create ~cap ~on_evict:(fun () -> incr evictions)
      ~horizon:600.0 ()
  in
  let blob i = Bytes.of_string (Printf.sprintf "flood-%08d" i) in
  let n = 5000 in
  for i = 0 to n - 1 do
    let now = float_of_int i *. 0.001 in
    (match Replay_cache.check_and_insert c ~now (blob i) with
    | Replay_cache.Fresh -> ()
    | Replay_cache.Replayed -> Alcotest.failf "distinct blob %d reported Replayed" i);
    Alcotest.(check bool) "size never exceeds cap" true
      (Replay_cache.size c <= cap);
    (* A recent authenticator — inside the cap window, not yet evicted —
       must still be rejected mid-flood. *)
    if i mod 50 = 0 && i > 100 then
      match Replay_cache.check_and_insert c ~now (blob (i - 100)) with
      | Replay_cache.Replayed -> ()
      | Replay_cache.Fresh ->
          Alcotest.failf "recent duplicate %d accepted mid-flood" (i - 100)
  done;
  Alcotest.(check int) "cache ends exactly at cap" cap (Replay_cache.size c);
  (* Every displaced entry is accounted: inserts minus live = evicted.
     The mid-flood duplicates are hits, not inserts, so the arithmetic
     is exact. *)
  Alcotest.(check int) "every eviction counted" (n - cap)
    (Replay_cache.evicted c);
  Alcotest.(check int) "eviction hook fired once per eviction" (n - cap)
    !evictions;
  (* With all entries live (horizon 600 s >> 5 s of flood), eviction
     order is soonest-to-expire = oldest surviving: the resident window
     is exactly the newest [cap] blobs. *)
  (match Replay_cache.check_and_insert c ~now:5.0 (blob (n - cap)) with
  | Replay_cache.Replayed -> ()
  | Replay_cache.Fresh -> Alcotest.fail "oldest resident entry was evicted early");
  match Replay_cache.check_and_insert c ~now:5.0 (blob (n - cap - 2)) with
  | Replay_cache.Fresh -> ()
  | Replay_cache.Replayed -> Alcotest.fail "evicted entry still resident"

(* Crash and rejoin: the reconcile pull restores byte-identical shards
   (digest + version-vector equality), including when the primary has
   checkpointed past the replica's cursor in the meantime. *)
let crash_rejoin_convergence () =
  (* checkpoint_every 4: the log truncates often, so the crashed
     replica's cursor falls behind first_retained_lsn and rejoin must go
     through the reconcile install, not a log tail. *)
  let db = primary_with ~checkpoint_every:4 10 in
  let r = Kdb.attach_replica db ~name:"r0" in
  ignore (Kdb.ship_to_replica r);
  Alcotest.(check bool) "in sync before the crash" true (converged db r);
  Kdb.replica_crash r;
  Alcotest.(check bool) "crash marks the replica down" false (Kdb.replica_live r);
  Alcotest.(check int) "crash wipes the image" 0 (Kdb.size (Kdb.replica_db r));
  for i = 400 to 409 do
    Kdb.add_user db (user i) ~password:(Printf.sprintf "pw%d" i)
  done;
  let pulled = Kdb.replica_rejoin r in
  Alcotest.(check bool) "rejoin pulls diverged shards" true (pulled > 0);
  Alcotest.(check bool) "rejoin marks the replica live" true (Kdb.replica_live r);
  Alcotest.(check bool) "digests and version vectors equal" true (converged db r);
  Alcotest.(check int) "cursor reset to head" (Kdb.head_lsn db)
    (Kdb.replica_applied_lsn r);
  (* And the shipped path still works on top of the rejoin. *)
  Kdb.add_user db (user 410) ~password:"pw410";
  ignore (Kdb.ship_to_replica r);
  Alcotest.(check bool) "still converged after post-rejoin shipping" true
    (converged db r)

(* A replica so far behind that the log no longer reaches it catches up
   via checkpoint + tail (counted), and converges. *)
let catchup_after_truncation () =
  let db = primary_with ~checkpoint_every:3 6 in
  let r = Kdb.attach_replica db ~name:"r0" in
  let catchups_before = Kdb.replica_catchups r in
  (* 9 writes = three checkpoints: the retained tail starts far past the
     replica's ack. *)
  for i = 500 to 508 do
    Kdb.add_user db (user i) ~password:(Printf.sprintf "pw%d" i)
  done;
  let wal = Option.get (Kdb.wal db) in
  Alcotest.(check bool) "gap: ack is behind the retained log" true
    (Kdb.replica_applied_lsn r + 1 < Kdb.Wal.first_retained_lsn wal);
  ignore (Kdb.ship_to_replica r);
  Alcotest.(check int) "catch-up taken, not a tail ship"
    (catchups_before + 1) (Kdb.replica_catchups r);
  Alcotest.(check bool) "converged after catch-up" true (converged db r);
  Alcotest.(check int) "ack at head" (Kdb.head_lsn db) (Kdb.replica_applied_lsn r)

(* Routing is a deterministic function of the read sequence: two
   identically-built pools given the same reads in the same order serve
   them from the same units with the same delays. *)
let routing_determinism () =
  let build () =
    let db = primary_with ~shards:4 40 in
    let router = Replication.create ~service_time:0.002 ~max_lag:8 db in
    Replication.add_replica router (Kdb.attach_replica db ~name:"r0");
    Replication.add_replica router (Kdb.attach_replica db ~name:"r1");
    router
  in
  let drive router =
    List.init 200 (fun i ->
        let now = 0.01 *. float_of_int i in
        let _, delay = Replication.read router ~now (user (i * 7 mod 40)) in
        delay)
  in
  let a = build () and b = build () in
  let da = drive a and db_ = drive b in
  Alcotest.(check (list (float 0.0))) "identical delay sequences" da db_;
  Alcotest.(check (list (pair string int))) "identical unit loads"
    (Replication.unit_reads a) (Replication.unit_reads b);
  Alcotest.(check bool) "work actually spread beyond the primary" true
    (List.for_all (fun (_, c) -> c > 0) (Replication.unit_reads a))

(* ------------------------------------------------------------------ *)
(* Replay-cache stress: a busy server's worth of authenticators.       *)
(* ------------------------------------------------------------------ *)

let cache_stress () =
  (* 50k inserts with simulated time advancing 10 ms per request and a 50 s
     horizon, so ~5000 entries are live at any instant and entries expire
     continuously under the insert load. Verdicts are checked against the
     specification (live duplicate -> Replayed, expired or new -> Fresh),
     and the wall clock bounds the implementation to sub-quadratic: the old
     purge-on-insert scan (O(live) per insert, ~250M entry visits for this
     workload) blows far past the budget, while the heap implementation
     finishes in well under a second. *)
  let n = 50_000 in
  let horizon = 50.0 in
  let c = Replay_cache.create ~horizon () in
  let blob i = Bytes.of_string (Printf.sprintf "authenticator-%08d" i) in
  let started = Sys.time () in
  for i = 0 to n - 1 do
    let now = float_of_int i *. 0.01 in
    (match Replay_cache.check_and_insert c ~now (blob i) with
    | Replay_cache.Fresh -> ()
    | Replay_cache.Replayed -> Alcotest.failf "new blob %d reported Replayed" i);
    (* Every third request replays a recent authenticator (well inside the
       horizon): must be caught. *)
    if i mod 3 = 0 && i > 10 then begin
      match Replay_cache.check_and_insert c ~now (blob (i - 10)) with
      | Replay_cache.Replayed -> ()
      | Replay_cache.Fresh -> Alcotest.failf "live duplicate %d accepted" (i - 10)
    end;
    (* Every 97th request replays one from beyond the horizon (60 s ago):
       the entry has expired, so the timestamp check is the only defence
       and the cache must report Fresh. *)
    if i mod 97 = 0 && i > 6000 then begin
      match Replay_cache.check_and_insert c ~now (blob (i - 6000)) with
      | Replay_cache.Fresh -> ()
      | Replay_cache.Replayed -> Alcotest.failf "expired blob %d still cached" (i - 6000)
    end
  done;
  let elapsed = Sys.time () -. started in
  (* Live window is horizon / 0.01 = 5000 fresh entries, plus the re-inserted
     expired ones still inside their new horizon. *)
  let live = Replay_cache.size c in
  Alcotest.(check bool)
    (Printf.sprintf "live entries bounded by window (got %d)" live)
    true
    (live >= 5000 && live <= 5200);
  Alcotest.(check bool)
    (Printf.sprintf "sub-quadratic runtime (%.2fs cpu)" elapsed)
    true (elapsed < 5.0)

let () =
  Alcotest.run "replication"
    [ ("kprop",
       [ Alcotest.test_case "master/slave flow" `Quick replication_flow;
         Alcotest.test_case "shard-by-shard propagation" `Quick shard_propagation_flow ]);
      ("kdb",
       [ Alcotest.test_case "atomic shard swap" `Quick shard_atomicity;
         QCheck_alcotest.to_alcotest kdb_roundtrip;
         QCheck_alcotest.to_alcotest kdb_reshard;
         Alcotest.test_case "keys must be 8 bytes" `Quick keys_must_be_8_bytes;
         QCheck_alcotest.to_alcotest kdb_table_matches_model ]);
      ("replicas",
       [ Alcotest.test_case "apply before ack" `Quick apply_before_ack;
         Alcotest.test_case "torn shipment truncates cleanly" `Quick torn_shipment;
         Alcotest.test_case "bounded-lag and fresh routing" `Quick bounded_lag_routing;
         Alcotest.test_case "self-tuning ship cadence under bursts" `Quick
           self_tuning_cadence;
         Alcotest.test_case "crash/rejoin convergence" `Quick crash_rejoin_convergence;
         Alcotest.test_case "catch-up across log truncation" `Quick
           catchup_after_truncation;
         Alcotest.test_case "routing determinism" `Quick routing_determinism ]);
      ("replay_cache_stress",
       [ Alcotest.test_case "50k inserts with expiry" `Quick cache_stress;
         Alcotest.test_case "capped cache bounded under flood" `Quick
           replay_cache_flood ]) ]
