(* The replay cache as it stood before it became one heap of parallel
   arrays: a hash table of live keys beside a min-heap of (expiry, key)
   records, with the generic binary heap it shared with the engine copied
   in as [Heap]. Kept unchanged as the oracle that
   [test_priv.ml]'s "matches the table-and-heap oracle" property holds
   [Kerberos.Replay_cache] to: same verdicts, same counters, same evictions
   and the same snapshot bytes after every operation. *)

module Heap = struct
  type 'a t = { mutable data : 'a array; mutable len : int; cmp : 'a -> 'a -> int }

  let create ~cmp = { data = [||]; len = 0; cmp }

  let grow t x =
    let cap = Array.length t.data in
    if t.len = cap then begin
      let ncap = max 16 (2 * cap) in
      let ndata = Array.make ncap x in
      Array.blit t.data 0 ndata 0 t.len;
      t.data <- ndata
    end

  let swap t i j =
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(j);
    t.data.(j) <- tmp

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.cmp t.data.(i) t.data.(parent) < 0 then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.len && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
    if r < t.len && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let push t x =
    grow t x;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    sift_up t (t.len - 1)

  let peek t = if t.len = 0 then None else Some t.data.(0)

  let pop t =
    if t.len = 0 then None
    else begin
      let top = t.data.(0) in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.data.(0) <- t.data.(t.len);
        sift_down t 0
      end;
      Some top
    end

  let size t = t.len
  let is_empty t = t.len = 0
end

(* Entries live in a hash table keyed by the raw authenticator bytes (an
   earlier version keyed on an MD4 hex digest alone, which would conflate
   two distinct authenticators on a digest collision). Expiry is tracked by
   a min-heap of (expiry, key) pairs — reusing the discrete-event engine's
   heap — drained incrementally at the front of every operation, so a
   sustained insert load costs O(log n) amortized per operation instead of
   the O(n) full-table sweep the purge-on-every-insert scheme paid.

   The heap uses lazy deletion: a key that expires and is later re-inserted
   leaves its stale heap entry behind, so a popped entry only evicts the
   table slot when the slot's recorded expiry has itself passed. A live key
   is never re-inserted (it reports [Replayed]), so there is at most one
   heap entry per table entry plus already-popped stragglers.

   The paper's flooding vector: an attacker who stuffs the cache with
   distinct authenticators grows it without bound — memory exhaustion as
   denial of service. [cap] bounds the live entry count; at capacity the
   entry closest to expiry is evicted deterministically (it had the
   shortest remaining replay window, so its loss re-opens the smallest
   possible door) and counted, so operators can see a flood squeezing the
   cache rather than discovering it from an OOM kill. *)

type entry = { expiry : float; ekey : string }

type t = {
  horizon : float;
  cap : int option;
  on_evict : unit -> unit;
  entries : (string, float) Hashtbl.t; (* key -> expiry *)
  expq : entry Heap.t;
  mutable hits : int;     (* authenticators refused as replays *)
  mutable inserts : int;  (* fresh authenticators admitted *)
  mutable evicted : int;  (* live entries pushed out by the cap *)
}

let create ?cap ?(on_evict = fun () -> ()) ~horizon () =
  (match cap with
  | Some c when c <= 0 -> invalid_arg "Replay_cache.create: cap must be positive"
  | _ -> ());
  { horizon; cap; on_evict;
    (* The smallest table, grown on demand: every session owns a cache, a
       session sees few messages, and one that counts sequence numbers
       never inserts into its cache at all. *)
    entries = Hashtbl.create 1;
    expq = Heap.create ~cmp:(fun a b -> Float.compare a.expiry b.expiry);
    hits = 0; inserts = 0; evicted = 0 }

type verdict = Fresh | Replayed

(* Pop every heap entry whose expiry has passed; evict the table slot unless
   a re-insert refreshed it in the meantime. *)
let purge t ~now =
  let rec drain () =
    match Heap.peek t.expq with
    | Some e when e.expiry < now ->
        ignore (Heap.pop t.expq);
        (match Hashtbl.find_opt t.entries e.ekey with
        | Some recorded when recorded < now -> Hashtbl.remove t.entries e.ekey
        | _ -> ());
        drain ()
    | _ -> ()
  in
  drain ()

(* At capacity: pop heap entries until one still names a live table slot
   (its recorded expiry matches — lazy-deleted stragglers are skipped and
   discarded, they cost nothing) and evict that slot. Deterministic: the
   heap orders by expiry, and among equal expiries its internal order is
   a pure function of the insert sequence. *)
let evict_soonest t =
  let rec go () =
    match Heap.pop t.expq with
    | None -> ()
    | Some e -> (
        match Hashtbl.find_opt t.entries e.ekey with
        | Some recorded when recorded = e.expiry ->
            Hashtbl.remove t.entries e.ekey;
            t.evicted <- t.evicted + 1;
            t.on_evict ()
        | _ -> go ())
  in
  go ()

let check_and_insert t ~now blob =
  purge t ~now;
  let key = Bytes.to_string blob in
  match Hashtbl.find_opt t.entries key with
  | Some _ ->
      t.hits <- t.hits + 1;
      Replayed
  | None ->
      (match t.cap with
      | Some c when Hashtbl.length t.entries >= c -> evict_soonest t
      | _ -> ());
      let expiry = now +. t.horizon in
      Hashtbl.replace t.entries key expiry;
      Heap.push t.expq { expiry; ekey = key };
      t.inserts <- t.inserts + 1;
      Fresh

let size t = Hashtbl.length t.entries
let hits t = t.hits
let inserts t = t.inserts
let evicted t = t.evicted

(* Persistence: the paper's replay cache only earns its name if it
   survives a server restart — a cache that evaporates with the process
   re-admits every authenticator still inside the skew window. Entries are
   dumped sorted by key so the snapshot is deterministic; the heap is
   rebuilt from the table on load, and the lifetime counters start over
   (they describe a process, not a disk file). The cap travels with the
   snapshot (0 encodes "uncapped") so a restarted server keeps its memory
   bound. *)
let to_bytes t =
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.i64 w (Int64.bits_of_float t.horizon);
  Wire.Codec.Writer.u32 w (match t.cap with None -> 0 | Some c -> c);
  let entries = Hashtbl.fold (fun k exp acc -> (k, exp) :: acc) t.entries [] in
  let entries = List.sort compare entries in
  Wire.Codec.Writer.u32 w (List.length entries);
  List.iter
    (fun (k, exp) ->
      Wire.Codec.Writer.lstring w k;
      Wire.Codec.Writer.i64 w (Int64.bits_of_float exp))
    entries;
  Wire.Codec.Writer.contents w

(* [?now] prunes at load: a snapshot taken before a long crash window is
   mostly expired entries by the time the server restarts, and loading
   them would both grow the heap with dead weight and — worse — resurrect
   entries whose authenticators the timestamp check already rejects
   (harmless for correctness, unbounded for memory). Entries at or past
   expiry are simply not admitted. *)
let of_bytes ?now ?on_evict b =
  let r = Wire.Codec.Reader.of_bytes b in
  let horizon = Int64.float_of_bits (Wire.Codec.Reader.i64 r) in
  let cap = match Wire.Codec.Reader.u32 r with 0 -> None | c -> Some c in
  let t = create ?cap ?on_evict ~horizon () in
  let n = Wire.Codec.Reader.u32 r in
  for _ = 1 to n do
    let k = Wire.Codec.Reader.lstring r in
    let expiry = Int64.float_of_bits (Wire.Codec.Reader.i64 r) in
    let live = match now with None -> true | Some now -> expiry > now in
    if live then begin
      Hashtbl.replace t.entries k expiry;
      Heap.push t.expq { expiry; ekey = k }
    end
  done;
  Wire.Codec.Reader.expect_end r;
  t
