type kind = User | Service | Cross_realm

type entry = { key : bytes; kind : kind }

let kind_code = function User -> 0 | Service -> 1 | Cross_realm -> 2

let kind_of_code = function
  | 0 -> User
  | 1 -> Service
  | 2 -> Cross_realm
  | _ -> Wire.Codec.fail "kdb: unknown principal kind"

(* Dumps and WAL records carry an entry as [u8 kind; lbytes key]. Every
   key here is a DES key, so one of any other length is refused at this
   trust boundary: accepted, it would raise out of the simulation at the
   KDC's first [Des.schedule] of it. *)
let write_entry w kind key =
  Wire.Codec.Writer.u8 w (kind_code kind);
  Wire.Codec.Writer.lbytes w key

let read_entry r =
  let kind = kind_of_code (Wire.Codec.Reader.u8 r) in
  let key = Wire.Codec.Reader.lbytes r in
  if Bytes.length key <> 8 then Wire.Codec.fail "kdb: key must be 8 bytes";
  { key; kind }

(* FNV-1a over the principal string: stable across runs and processes
   (Hashtbl.hash is not guaranteed to be), so a dump produced by one
   process lands in the same shards on another. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0xffffffff
  done;
  !h

(* One shard's principals: an open-addressed table, probed linearly from
   the name's FNV-1a hash. Slot [s] keeps its name in [names.(s)], its key
   in bytes [8s, 8s + 8) of [keys], and its kind's code plus one in byte
   [s] of [kinds], where 0 marks a free slot. The capacity is a power of
   two, and the table is grown before it is more than three-quarters full,
   which bounds the probe length, not any population. Nothing is removed
   (a shard is only ever replaced whole), so there are no tombstones. *)
module Table = struct
  type t = {
    mutable names : string array;
    mutable keys : Bytes.t;
    mutable kinds : Bytes.t;
    mutable shift : int;  (* [Sys.int_size] less log2 of the capacity *)
    mutable count : int;
  }

  let make bits =
    { names = Array.make (1 lsl bits) "";
      keys = Bytes.make (8 lsl bits) '\000';
      kinds = Bytes.make (1 lsl bits) '\000';
      shift = Sys.int_size - bits;
      count = 0 }

  (* Room for [expected] names without growing. *)
  let create ?(expected = 0) () =
    let rec bits b = if 4 * expected <= 3 lsl b then b else bits (b + 1) in
    make (bits 3)

  (* The product's top bits: within a shard every name's hash leaves the
     same remainder modulo the shard count, so its low bits do not
     spread. *)
  let[@inline] home t h = (h * 0x2545F4914F6CDD1D) lsr t.shift
  let[@inline] used t s = Bytes.unsafe_get t.kinds s <> '\000'

  (* The slot holding [name], or the free slot where it would go; there
     is always a free one. [home] is below the capacity, and so is every
     later slot, so the unsafe reads are in bounds. *)
  let rec probe t name s =
    if (not (used t s)) || String.equal (Array.unsafe_get t.names s) name then s
    else probe t name ((s + 1) land (Array.length t.names - 1))

  let find t name h =
    let s = probe t name (home t h) in
    if used t s then s else -1

  let kind t s = kind_of_code (Char.code (Bytes.get t.kinds s) - 1)

  let key t s = Bytes.sub t.keys (8 * s) 8
  let entry t s = { key = key t s; kind = kind t s }

  let iter f t =
    Array.iteri (fun s name -> if used t s then f name s) t.names

  let fold f t acc =
    let acc = ref acc in
    iter (fun name s -> acc := f name s !acc) t;
    !acc

  (* Store [name] with kind byte [code] and the 8 key bytes at [off] of
     [src], replacing its entry if it has one. *)
  let rec put t name h code src off =
    let s = probe t name (home t h) in
    if used t s || 4 * (t.count + 1) <= 3 * Array.length t.names then begin
      if not (used t s) then t.count <- t.count + 1;
      t.names.(s) <- name;
      Bytes.set t.kinds s code;
      Bytes.blit src off t.keys (8 * s) 8
    end
    else begin
      let bigger = make (Sys.int_size - t.shift + 1) in
      iter (fun name s -> put bigger name (fnv1a name) (Bytes.get t.kinds s) t.keys (8 * s)) t;
      t.names <- bigger.names;
      t.keys <- bigger.keys;
      t.kinds <- bigger.kinds;
      t.shift <- bigger.shift;
      put t name h code src off
    end

  let replace t name h { key; kind } =
    put t name h (Char.chr (kind_code kind + 1)) key 0
end

(* [tables]' entries in the dump format: [u32 n], then each entry sorted
   by name, [lstring name; u8 kind; lbytes key]. *)
let dump tables =
  let w = Wire.Codec.Writer.create () in
  let slots =
    List.fold_left
      (fun acc tbl -> Table.fold (fun name s acc -> (name, tbl, s) :: acc) tbl acc)
      [] tables
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Wire.Codec.Writer.u32 w (List.length slots);
  List.iter
    (fun (name, tbl, s) ->
      Wire.Codec.Writer.lstring w name;
      write_entry w (Table.kind tbl s) (Table.key tbl s))
    slots;
  Wire.Codec.Writer.contents w

(* Decode a dump into a fresh table first; only a fully decoded blob is
   ever made visible to readers. Names are validated as principals here so
   a corrupted dump surfaces as a [Decode_error] at the trust boundary,
   not as an [Invalid_argument] from [principals] long after the swap.
   [admit] sees each name and its hash in dump order and may refuse it.
   The table is sized for the entries the blob can hold, at least 17 bytes
   each, not for the count it claims. *)
let table_of_bytes ?(admit = fun _ _ -> ()) b =
  let r = Wire.Codec.Reader.of_bytes b in
  let n = Wire.Codec.Reader.u32 r in
  let tbl = Table.create ~expected:(min n (Bytes.length b / 17)) () in
  for _ = 1 to n do
    let name = Wire.Codec.Reader.lstring r in
    (match Principal.of_string name with
    | (_ : Principal.t) -> ()
    | exception Invalid_argument _ ->
        Wire.Codec.fail "kdb: malformed principal name");
    let h = fnv1a name in
    admit name h;
    Table.replace tbl name h (read_entry r)
  done;
  Wire.Codec.Reader.expect_end r;
  tbl

(* The write-ahead log. Every mutation is rendered as a CRC-framed record
   and appended {e before} the in-memory tables change, so the log image
   captured at any crash instant covers at least everything a reader could
   have observed. A frame is [u32 len; u32 crc32(payload); payload]; the
   payload carries the shard index, the shard's post-mutation version
   (monotonic mutation counter — the same number the anti-entropy version
   vectors compare), and the operation itself. *)
module Wal = struct
  type op =
    | Put of string * entry  (* single-principal upsert *)
    | Swap of bytes          (* whole-shard replacement (propagation) *)

  type record = { w_shard : int; w_version : int; w_op : op }

  type t = {
    (* Newest first. Each frame carries its log sequence number: LSNs are
       assigned at append time from the lifetime counter, so they survive
       checkpoint truncation and give replicas a stable replication
       cursor. *)
    mutable frames : (int * record * bytes) list;
    mutable count : int;
    mutable bytes : int;
    mutable appended : int;  (* lifetime appends; survives truncation *)
  }

  let create () = { frames = []; count = 0; bytes = 0; appended = 0 }

  let payload_of_record r =
    let w = Wire.Codec.Writer.create () in
    Wire.Codec.Writer.u32 w r.w_shard;
    Wire.Codec.Writer.i64 w (Int64.of_int r.w_version);
    (match r.w_op with
    | Put (name, e) ->
        Wire.Codec.Writer.u8 w 0;
        Wire.Codec.Writer.lstring w name;
        write_entry w e.kind e.key
    | Swap b ->
        Wire.Codec.Writer.u8 w 1;
        Wire.Codec.Writer.lbytes w b);
    Wire.Codec.Writer.contents w

  let frame payload =
    let w = Wire.Codec.Writer.create () in
    Wire.Codec.Writer.u32 w (Bytes.length payload);
    Wire.Codec.Writer.u32 w (Crypto.Crc32.bytes_digest payload);
    Wire.Codec.Writer.raw w payload;
    Wire.Codec.Writer.contents w

  let append t r =
    let fb = frame (payload_of_record r) in
    let lsn = t.appended + 1 in
    t.frames <- (lsn, r, fb) :: t.frames;
    t.count <- t.count + 1;
    t.bytes <- t.bytes + Bytes.length fb;
    t.appended <- lsn

  let length t = t.count
  let byte_size t = t.bytes
  let appended t = t.appended
  let records t = List.rev_map (fun (_, r, _) -> r) t.frames

  (* The head LSN is the newest record ever appended; a replica whose
     applied LSN equals it has seen everything. *)
  let head_lsn t = t.appended

  (* Oldest LSN the log still holds. When the log is empty (everything
     behind the last checkpoint) this is head+1: a replica at exactly the
     head needs nothing, anything older must catch up via checkpoint. *)
  let first_retained_lsn t =
    match t.frames with
    | [] -> t.appended + 1
    | frames ->
        let rec oldest = function
          | [ (l, _, _) ] -> l
          | _ :: tl -> oldest tl
          | [] -> assert false
        in
        oldest frames

  let contents t =
    let buf = Buffer.create (max 64 t.bytes) in
    List.iter (fun (_, _, fb) -> Buffer.add_bytes buf fb) (List.rev t.frames);
    Buffer.to_bytes buf

  (* Replication shipment: every retained frame past [lsn], oldest first,
     each prefixed with its LSN — [i64 lsn; u32 len; u32 crc; payload]
     repeated. Reuses the already-rendered frame bytes, so shipping costs
     a concatenation, not a re-encode. *)
  let ship_since t ~lsn =
    let w = Wire.Codec.Writer.create () in
    List.iter
      (fun (l, _, fb) ->
        if l > lsn then begin
          Wire.Codec.Writer.i64 w (Int64.of_int l);
          Wire.Codec.Writer.raw w fb
        end)
      (List.rev t.frames);
    Wire.Codec.Writer.contents w

  let record_of_payload p =
    let r = Wire.Codec.Reader.of_bytes p in
    let w_shard = Wire.Codec.Reader.u32 r in
    let w_version = Int64.to_int (Wire.Codec.Reader.i64 r) in
    let w_op =
      match Wire.Codec.Reader.u8 r with
      | 0 ->
          let name = Wire.Codec.Reader.lstring r in
          Put (name, read_entry r)
      | 1 -> Swap (Wire.Codec.Reader.lbytes r)
      | _ -> Wire.Codec.fail "wal: unknown opcode"
    in
    Wire.Codec.Reader.expect_end r;
    { w_shard; w_version; w_op }

  (* Replay stops cleanly at the first torn or corrupt frame: a crash can
     leave a half-written record at the tail, and the fault plane can flip
     bits anywhere, so everything from the first frame that fails its
     length or CRC check is untrusted and reported as discarded. *)
  let replay b =
    let total = Bytes.length b in
    let r = Wire.Codec.Reader.of_bytes b in
    let recs = ref [] in
    let consumed_ok = ref 0 in
    (try
       while Wire.Codec.Reader.remaining r > 0 do
         let len = Wire.Codec.Reader.u32 r in
         let crc = Wire.Codec.Reader.u32 r in
         if len > Wire.Codec.Reader.remaining r then
           Wire.Codec.fail "wal: torn frame";
         let payload = Wire.Codec.Reader.raw r len in
         if Crypto.Crc32.bytes_digest payload <> crc then
           Wire.Codec.fail "wal: crc mismatch";
         recs := record_of_payload payload :: !recs;
         consumed_ok := total - Wire.Codec.Reader.remaining r
       done
     with Wire.Codec.Decode_error _ -> ());
    (List.rev !recs, total - !consumed_ok)

  (* Decode a shipment with the same torn-tail tolerance as {!replay}: a
     shipment cut mid-frame (lossy link, crashed shipper) yields the clean
     prefix plus a discarded byte count; the replica simply acks the
     prefix and asks again. *)
  let replay_shipment b =
    let total = Bytes.length b in
    let r = Wire.Codec.Reader.of_bytes b in
    let recs = ref [] in
    let consumed_ok = ref 0 in
    (try
       while Wire.Codec.Reader.remaining r > 0 do
         let lsn = Int64.to_int (Wire.Codec.Reader.i64 r) in
         let len = Wire.Codec.Reader.u32 r in
         let crc = Wire.Codec.Reader.u32 r in
         if len > Wire.Codec.Reader.remaining r then
           Wire.Codec.fail "wal: torn shipment frame";
         let payload = Wire.Codec.Reader.raw r len in
         if Crypto.Crc32.bytes_digest payload <> crc then
           Wire.Codec.fail "wal: shipment crc mismatch";
         recs := (lsn, record_of_payload payload) :: !recs;
         consumed_ok := total - Wire.Codec.Reader.remaining r
       done
     with Wire.Codec.Decode_error _ -> ());
    (List.rev !recs, total - !consumed_ok)

  (* Drop every record the checkpoint already covers: record versions are
     monotonic per shard, and a checkpoint taken at version vector [V]
     makes any record with [w_version <= V.(w_shard)] redundant. *)
  let truncate_after_checkpoint t ~versions =
    let keep =
      List.filter
        (fun (_, r, _) ->
          r.w_shard >= Array.length versions
          || r.w_version > versions.(r.w_shard))
        t.frames
    in
    t.frames <- keep;
    t.count <- List.length keep;
    t.bytes <- List.fold_left (fun a (_, _, fb) -> a + Bytes.length fb) 0 keep
end

(* Durable state: the log plus the last checkpoint image. [every = 0]
   means checkpoints are manual only. *)
type durable = {
  d_wal : Wal.t;
  mutable d_checkpoint : bytes;
  d_every : int;
  mutable d_since : int;       (* mutations since the last checkpoint *)
  mutable d_checkpoints : int; (* checkpoints taken, incl. the initial one *)
}

(* Hash-partitioned shards. [shards] is swapped wholesale (never mutated
   element-by-element across event boundaries) so a propagation installs
   either the old view or the new one — nothing in between. *)
type t = {
  mutable shards : Table.t array;
  mutable lookups : int array;  (* per-shard lookup counts, same length *)
  (* Per-shard monotonic mutation counters — bumped on every mutation,
     stamped into WAL records, and compared by anti-entropy
     reconciliation as a version vector. *)
  mutable versions : int array;
  (* The few cross-realm keys, memoized: the TGS opens every presented TGT
     against this set plus its own key, so deriving it must not scan a
     realm-sized database per request. Any mutation clears it. *)
  mutable cross_realm_cache : (Principal.t * bytes) list option;
  mutable durable : durable option;
  (* On-demand materialization for realm-scale load runs: a lookup miss
     consults the provider, and anything it supplies is memoized in a side
     table — never the shards, so the propagation/durability surface
     (dumps, digests, WAL, reconciliation) is exactly the registered
     population. *)
  mutable lazy_provider : (string -> entry option) option;
  lazy_memo : (string, entry) Hashtbl.t;
}

let create ?(shards = 1) () =
  if shards < 1 then invalid_arg "Kdb.create: shards must be >= 1";
  { shards = Array.init shards (fun _ -> Table.create ());
    lookups = Array.make shards 0;
    versions = Array.make shards 0;
    cross_realm_cache = None;
    durable = None;
    lazy_provider = None;
    lazy_memo = Hashtbl.create 64 }

let shard_count t = Array.length t.shards
let shard_of t principal = fnv1a (Principal.to_string principal) mod Array.length t.shards
let shard_lookups t = Array.copy t.lookups
let version_vector t = Array.copy t.versions
let durable t = t.durable <> None
let wal t = Option.map (fun d -> d.d_wal) t.durable
let checkpoints_taken t =
  match t.durable with None -> 0 | Some d -> d.d_checkpoints

let set_lazy_provider t f = t.lazy_provider <- Some f
let lazy_materialized t = Hashtbl.length t.lazy_memo

let lookup t principal =
  let name = Principal.to_string principal in
  let h = fnv1a name in
  let i = h mod Array.length t.shards in
  t.lookups.(i) <- t.lookups.(i) + 1;
  match Table.find t.shards.(i) name h with
  | s when s >= 0 -> Some (Table.entry t.shards.(i) s)
  | _ -> (
      match t.lazy_provider with
      | None -> None
      | Some provide -> (
          match Hashtbl.find_opt t.lazy_memo name with
          | Some _ as r -> r
          | None -> (
              match provide name with
              | Some e as r ->
                  Hashtbl.add t.lazy_memo name e;
                  r
              | None -> None)))

let fold f t acc =
  Array.fold_left (fun acc tbl -> Table.fold (f tbl) tbl acc) acc t.shards

let principals t =
  fold (fun _ name _ acc -> Principal.of_string name :: acc) t []
  |> List.sort Principal.compare

let cross_realm_keys t =
  match t.cross_realm_cache with
  | Some l -> l
  | None ->
      let l =
        fold
          (fun tbl name s acc ->
            if Table.kind tbl s = Cross_realm then
              (Principal.of_string name, Table.key tbl s) :: acc
            else acc)
          t []
        |> List.sort (fun (a, _) (b, _) -> Principal.compare a b)
      in
      t.cross_realm_cache <- Some l;
      l

let to_bytes t = dump (Array.to_list t.shards)

let shard_to_bytes t i =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Kdb.shard_to_bytes";
  dump [ t.shards.(i) ]

let shard_digest t i = Crypto.Crc32.bytes_digest (shard_to_bytes t i)
let digests t = Array.init (Array.length t.shards) (shard_digest t)

(* Checkpoint image: CRC-guarded [shard_count; (version, dump) per shard].
   Written atomically (the invariant the WAL's torn-tail tolerance rests
   on): a crash leaves either the previous checkpoint or the new one. *)
let checkpoint_to_bytes t =
  let w = Wire.Codec.Writer.create () in
  let n = Array.length t.shards in
  Wire.Codec.Writer.u32 w n;
  for i = 0 to n - 1 do
    Wire.Codec.Writer.i64 w (Int64.of_int t.versions.(i));
    Wire.Codec.Writer.lbytes w (shard_to_bytes t i)
  done;
  let body = Wire.Codec.Writer.contents w in
  let fw = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.u32 fw (Crypto.Crc32.bytes_digest body);
  Wire.Codec.Writer.raw fw body;
  Wire.Codec.Writer.contents fw

let checkpoint t =
  match t.durable with
  | None -> invalid_arg "Kdb.checkpoint: durability not enabled"
  | Some d ->
      d.d_checkpoint <- checkpoint_to_bytes t;
      Wal.truncate_after_checkpoint d.d_wal ~versions:t.versions;
      d.d_since <- 0;
      d.d_checkpoints <- d.d_checkpoints + 1

let maybe_checkpoint t =
  match t.durable with
  | Some d when d.d_every > 0 && d.d_since >= d.d_every -> checkpoint t
  | _ -> ()

let enable_durability ?(checkpoint_every = 0) t =
  let d =
    { d_wal = Wal.create ();
      d_checkpoint = Bytes.empty;
      d_every = checkpoint_every;
      d_since = 0;
      d_checkpoints = 1 }
  in
  d.d_checkpoint <- checkpoint_to_bytes t;
  t.durable <- Some d

let disk_image t =
  Option.map (fun d -> (d.d_checkpoint, Wal.contents d.d_wal)) t.durable

(* Append-before-apply: the record hits the log before the caller touches
   the tables, so the disk image at any crash instant is never behind the
   in-memory state a client could have observed. *)
let log_mutation t i v op =
  match t.durable with
  | None -> ()
  | Some d ->
      Wal.append d.d_wal { Wal.w_shard = i; w_version = v; w_op = op };
      d.d_since <- d.d_since + 1

let add t principal entry =
  let name = Principal.to_string principal in
  let h = fnv1a name in
  let i = h mod Array.length t.shards in
  let v = t.versions.(i) + 1 in
  log_mutation t i v (Wal.Put (name, entry));
  t.versions.(i) <- v;
  t.cross_realm_cache <- None;
  (* A real registration supersedes any materialized-on-demand entry (a
     password change must not resurrect the old key from the memo). *)
  Hashtbl.remove t.lazy_memo name;
  Table.replace t.shards.(i) name h entry;
  maybe_checkpoint t

let add_user t principal ~password =
  add t principal { key = Crypto.Str2key.derive password; kind = User }

let add_keyed fn t principal key kind =
  if Bytes.length key <> 8 then invalid_arg (fn ^ ": key must be 8 bytes");
  add t principal { key; kind }

let add_service t principal ~key = add_keyed "Kdb.add_service" t principal key Service

let add_cross_realm t principal ~key =
  add_keyed "Kdb.add_cross_realm" t principal key Cross_realm

let of_bytes b =
  let tbl = table_of_bytes b in
  let t = create () in
  t.shards <- [| tbl |];
  t

let replace_shard_from_bytes ?version t i b =
  let n = Array.length t.shards in
  if i < 0 || i >= n then invalid_arg "Kdb.replace_shard_from_bytes";
  let tbl =
    table_of_bytes b ~admit:(fun name h ->
        if h mod n <> i then
          Wire.Codec.fail
            (Printf.sprintf "kdb: %s does not belong in shard %d" name i))
  in
  (* A reconcile install adopts the winner's version; a plain propagation
     counts as one local mutation. *)
  let v = match version with Some v -> v | None -> t.versions.(i) + 1 in
  log_mutation t i v (Wal.Swap b);
  t.versions.(i) <- v;
  t.cross_realm_cache <- None;
  t.shards.(i) <- tbl;
  maybe_checkpoint t

let replace_from dst src =
  let n = Array.length dst.shards in
  let fresh = Array.init n (fun _ -> Table.create ()) in
  fold
    (fun tbl name s () ->
      let h = fnv1a name in
      Table.replace fresh.(h mod n) name h (Table.entry tbl s))
    src ();
  (* Log every shard's new contents before the swap becomes visible. *)
  Array.iteri
    (fun i tbl ->
      let v = dst.versions.(i) + 1 in
      if dst.durable <> None then log_mutation dst i v (Wal.Swap (dump [ tbl ]));
      dst.versions.(i) <- v)
    fresh;
  dst.cross_realm_cache <- None;
  dst.shards <- fresh;
  maybe_checkpoint dst

(* Model a crash's memory loss: every table, counter and the attached
   durable state vanish; only a previously captured {!disk_image}
   survives, elsewhere. *)
let wipe t =
  let n = Array.length t.shards in
  t.shards <- Array.init n (fun _ -> Table.create ());
  t.lookups <- Array.make n 0;
  t.versions <- Array.make n 0;
  t.cross_realm_cache <- None;
  t.durable <- None;
  t.lazy_provider <- None;
  Hashtbl.reset t.lazy_memo

type recovery = {
  recovered : t;
  applied : int;
  skipped : int;
  discarded_bytes : int;
}

let recover ~checkpoint ~wal =
  let r = Wire.Codec.Reader.of_bytes checkpoint in
  let crc = Wire.Codec.Reader.u32 r in
  let body = Wire.Codec.Reader.raw r (Wire.Codec.Reader.remaining r) in
  if Crypto.Crc32.bytes_digest body <> crc then
    Wire.Codec.fail "kdb: corrupt checkpoint";
  let br = Wire.Codec.Reader.of_bytes body in
  let n = Wire.Codec.Reader.u32 br in
  if n < 1 || n > 65536 then Wire.Codec.fail "kdb: bad checkpoint shard count";
  let t = create ~shards:n () in
  for i = 0 to n - 1 do
    t.versions.(i) <- Int64.to_int (Wire.Codec.Reader.i64 br);
    t.shards.(i) <- table_of_bytes (Wire.Codec.Reader.lbytes br)
  done;
  Wire.Codec.Reader.expect_end br;
  let recs, discarded_bytes = Wal.replay wal in
  let applied = ref 0 and skipped = ref 0 in
  List.iter
    (fun (rc : Wal.record) ->
      if
        rc.w_shard < 0 || rc.w_shard >= n
        || rc.w_version <= t.versions.(rc.w_shard)
      then incr skipped
      else
        match rc.w_op with
        | Wal.Put (name, e) ->
            Table.replace t.shards.(rc.w_shard) name (fnv1a name) e;
            t.versions.(rc.w_shard) <- rc.w_version;
            incr applied
        | Wal.Swap b -> (
            match table_of_bytes b with
            | tbl ->
                t.shards.(rc.w_shard) <- tbl;
                t.versions.(rc.w_shard) <- rc.w_version;
                incr applied
            | exception Wire.Codec.Decode_error _ -> incr skipped))
    recs;
  t.cross_realm_cache <- None;
  { recovered = t; applied = !applied; skipped = !skipped; discarded_bytes }

(* Install a recovery in place (the database object is shared with the
   KDC's routes and with tests, so recovery must not change its identity).
   Unlike {!replace_from} this adopts the recovered version vector as-is
   and logs nothing — it {e is} the log's effect. *)
let restore t (r : recovery) =
  let src = r.recovered in
  if Array.length src.shards <> Array.length t.shards then
    invalid_arg "Kdb.restore: shard count mismatch";
  t.shards <- src.shards;
  t.versions <- src.versions;
  t.lookups <- Array.make (Array.length src.shards) 0;
  t.cross_realm_cache <- None

let size t = Array.fold_left (fun acc tbl -> acc + tbl.Table.count) 0 t.shards
let shard_sizes t = Array.map (fun tbl -> tbl.Table.count) t.shards

let head_lsn t =
  match t.durable with
  | None -> invalid_arg "Kdb.head_lsn: durability not enabled"
  | Some d -> Wal.head_lsn d.d_wal

(* ------------------------------------------------------------------ *)
(* Read replicas.

   A replica is a same-shape database fed from the primary's WAL: the
   primary ships every frame past the replica's applied LSN, and the
   replica materializes each record {e before} advancing its ack point
   (apply-before-ack), so an acked LSN is never ahead of visible state.
   A replica that falls behind the log's retained tail — the primary
   checkpointed and truncated past it — catches up from the checkpoint
   image plus the tail, exactly the recovery path a crashed primary
   takes. *)

type replica = {
  rep_name : string;
  rep_primary : t;
  rep_db : t;  (* same shard count; only subscribed shards materialized *)
  rep_mask : bool array;  (* shard subscription *)
  mutable rep_applied : int;  (* highest WAL LSN acked *)
  mutable rep_live : bool;
  mutable rep_records_applied : int;  (* records materialized, lifetime *)
  mutable rep_catchups : int;  (* checkpoint+tail catch-ups, incl. bootstrap *)
  rep_c_applied : Telemetry.Metrics.counter option;
  rep_g_lag : Telemetry.Metrics.gauge option;
}

let replica_name r = r.rep_name
let replica_db r = r.rep_db
let replica_live r = r.rep_live
let replica_applied_lsn r = r.rep_applied
let replica_records_applied r = r.rep_records_applied
let replica_catchups r = r.rep_catchups

let replica_covers r shard =
  shard >= 0 && shard < Array.length r.rep_mask && r.rep_mask.(shard)

let replica_lag t r =
  match t.durable with
  | None -> 0
  | Some d -> Wal.head_lsn d.d_wal - r.rep_applied

(* Materialize one shipped record on the replica, guarded the same way
   {!recover} guards replayed records: out-of-range shards, already-seen
   versions and undecodable swaps are skipped (but still acked — they are
   ordered before the ack point by construction). *)
let replica_apply_record r (rc : Wal.record) =
  let db = r.rep_db in
  if
    rc.Wal.w_shard < 0
    || rc.Wal.w_shard >= Array.length db.shards
    || (not r.rep_mask.(rc.Wal.w_shard))
    || rc.Wal.w_version <= db.versions.(rc.Wal.w_shard)
  then false
  else
    match rc.Wal.w_op with
    | Wal.Put (name, e) ->
        Table.replace db.shards.(rc.Wal.w_shard) name (fnv1a name) e;
        db.versions.(rc.Wal.w_shard) <- rc.Wal.w_version;
        db.cross_realm_cache <- None;
        true
    | Wal.Swap b -> (
        match table_of_bytes b with
        | tbl ->
            db.shards.(rc.Wal.w_shard) <- tbl;
            db.versions.(rc.Wal.w_shard) <- rc.Wal.w_version;
            db.cross_realm_cache <- None;
            true
        | exception Wire.Codec.Decode_error _ -> false)

(* Apply a shipment in LSN order. The ack ([rep_applied]) advances only
   after each record's effect is visible — a reader routed to this
   replica at lag computed from the ack can never observe state older
   than the ack claims. *)
let replica_apply r shipment =
  let recs, _discarded = Wal.replay_shipment shipment in
  let applied = ref 0 in
  List.iter
    (fun (lsn, rc) ->
      if lsn > r.rep_applied then begin
        if replica_apply_record r rc then begin
          incr applied;
          r.rep_records_applied <- r.rep_records_applied + 1
        end;
        r.rep_applied <- lsn
      end)
    recs;
  (match r.rep_c_applied with
  | Some c when !applied > 0 -> Telemetry.Metrics.add c !applied
  | _ -> ());
  !applied

(* Checkpoint + tail: install the primary's last checkpoint image for
   the subscribed shards, then apply the retained WAL tail. This is both
   the bootstrap path and the catch-up path taken when the primary has
   truncated the log past the replica's ack point. *)
let replica_catch_up r =
  let t = r.rep_primary in
  match t.durable with
  | None -> invalid_arg "Kdb.replica_catch_up: durability not enabled"
  | Some d ->
      let reader = Wire.Codec.Reader.of_bytes d.d_checkpoint in
      let crc = Wire.Codec.Reader.u32 reader in
      let body =
        Wire.Codec.Reader.raw reader (Wire.Codec.Reader.remaining reader)
      in
      if Crypto.Crc32.bytes_digest body <> crc then
        Wire.Codec.fail "kdb: corrupt checkpoint";
      let br = Wire.Codec.Reader.of_bytes body in
      let n = Wire.Codec.Reader.u32 br in
      if n <> Array.length t.shards then
        Wire.Codec.fail "kdb: checkpoint shard count mismatch";
      for i = 0 to n - 1 do
        let v = Int64.to_int (Wire.Codec.Reader.i64 br) in
        let dump = Wire.Codec.Reader.lbytes br in
        if r.rep_mask.(i) then begin
          r.rep_db.shards.(i) <- table_of_bytes dump;
          r.rep_db.versions.(i) <- v
        end
      done;
      Wire.Codec.Reader.expect_end br;
      r.rep_db.cross_realm_cache <- None;
      (* Retained frames are exactly the post-checkpoint suffix, so the
         checkpoint image stands for everything before them. *)
      r.rep_applied <- Wal.first_retained_lsn d.d_wal - 1;
      r.rep_catchups <- r.rep_catchups + 1;
      replica_apply r (Wal.ship_since d.d_wal ~lsn:r.rep_applied)

(* One shipping round: frames past the ack when the log still reaches
   back that far, checkpoint + tail when it does not. Returns the number
   of records materialized and refreshes the lag gauge. *)
let ship_to_replica r =
  let t = r.rep_primary in
  match t.durable with
  | None -> invalid_arg "Kdb.ship_to_replica: durability not enabled"
  | Some d ->
      let n =
        if r.rep_applied + 1 < Wal.first_retained_lsn d.d_wal then
          replica_catch_up r
        else replica_apply r (Wal.ship_since d.d_wal ~lsn:r.rep_applied)
      in
      (match r.rep_g_lag with
      | Some g -> Telemetry.Metrics.set g (float_of_int (replica_lag t r))
      | None -> ());
      n

let attach_replica ?telemetry ?shards t ~name =
  if t.durable = None then
    invalid_arg "Kdb.attach_replica: durability not enabled";
  let n = Array.length t.shards in
  let mask = Array.make n false in
  (match shards with
  | None -> Array.fill mask 0 n true
  | Some l ->
      if l = [] then invalid_arg "Kdb.attach_replica: empty shard list";
      List.iter
        (fun i ->
          if i < 0 || i >= n then
            invalid_arg "Kdb.attach_replica: shard out of range";
          mask.(i) <- true)
        l);
  let metrics = Option.map Telemetry.Collector.metrics telemetry in
  let r =
    { rep_name = name;
      rep_primary = t;
      rep_db = create ~shards:n ();
      rep_mask = mask;
      rep_applied = 0;
      rep_live = true;
      rep_records_applied = 0;
      rep_catchups = 0;
      rep_c_applied =
        Option.map (fun m -> Telemetry.Metrics.counter m "kdb.replica.applied")
          metrics;
      rep_g_lag =
        Option.map
          (fun m -> Telemetry.Metrics.gauge m ("kdb.replica.lag." ^ name))
          metrics }
  in
  ignore (replica_catch_up r : int);
  r

(* A replica crash loses its memory image and its replication cursor;
   only the handle (its identity in the pool) survives. *)
let replica_crash r =
  r.rep_live <- false;
  let n = Array.length r.rep_db.shards in
  r.rep_db.shards <- Array.init n (fun _ -> Table.create ());
  r.rep_db.lookups <- Array.make n 0;
  r.rep_db.versions <- Array.make n 0;
  r.rep_db.cross_realm_cache <- None;
  r.rep_applied <- 0

(* Rejoin through the kprop reconcile machinery: compare per-shard
   versions and digests exactly as anti-entropy does, pull every
   divergent subscribed shard with a versioned install (the primary's
   higher version wins — LWW), then resume tailing from the primary's
   current head. *)
let replica_rejoin r =
  let t = r.rep_primary in
  if t.durable = None then
    invalid_arg "Kdb.replica_rejoin: durability not enabled";
  let pulled = ref 0 in
  Array.iteri
    (fun i covered ->
      if
        covered
        && (t.versions.(i) <> r.rep_db.versions.(i)
           || shard_digest t i <> shard_digest r.rep_db i)
      then begin
        replace_shard_from_bytes ~version:t.versions.(i) r.rep_db i
          (shard_to_bytes t i);
        incr pulled
      end)
    r.rep_mask;
  r.rep_applied <- head_lsn t;
  r.rep_live <- true;
  (match r.rep_g_lag with
  | Some g -> Telemetry.Metrics.set g 0.0
  | None -> ());
  !pulled
