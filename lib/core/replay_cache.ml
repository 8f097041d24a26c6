(* One representation whose footprint follows the live entries: an expiry
   min-heap kept in two parallel arrays (the keys, and their expiries
   unboxed), plus an open-addressed index of the same keys for the replay
   lookup. The heap arrays hold [c] slots, where [c] is 0 or a power of
   two, and the index [2c] once [c] is at least 2: an empty cache
   allocates nothing beyond its record, a cache holding one entry one
   heap slot of each array and no index (its one key is compared
   directly), and a cache that drains to a quarter of its slots halves
   them, down to none when it empties. What every cache of one kind has
   in common (horizon, cap, eviction hook) is one [settings] value they
   point at. Every timestamped session owns a cache, and most hold one
   KRB_PRIV ciphertext or none at all.

   Entries are keyed by the raw authenticator bytes (an earlier version
   keyed on an MD4 hex digest alone, which would conflate two distinct
   authenticators on a digest collision). Expired entries are popped off
   the heap at the front of every operation, so a sustained insert load
   costs O(log n) amortized per operation instead of the O(n) full-table
   sweep a purge-on-every-insert scheme pays. Each live key is in the heap
   exactly once: a live key is never re-inserted (it reports [Replayed]),
   and a key leaves the index when it leaves the heap.

   Among entries with equal expiries, the sift rules decide which one is
   purged or evicted first: a push sifts up past strictly later parents,
   and a pop moves the last leaf to the root and sifts it down past the
   earlier child, the left one on a tie. Recorded runs and snapshots
   depend on that order, and test_priv.ml holds it to the hash table and
   generic heap this representation replaced.

   The paper's flooding vector: an attacker who stuffs the cache with
   distinct authenticators grows it without bound — memory exhaustion as
   denial of service. [cap] bounds the live entry count; at capacity the
   entry closest to expiry is evicted deterministically (it had the
   shortest remaining replay window, so its loss re-opens the smallest
   possible door) and counted, so operators can see a flood squeezing the
   cache rather than discovering it from an OOM kill. *)

type settings = {
  horizon : float;
  cap : int option;
  on_evict : (unit -> unit) option;
}

type t = {
  settings : settings;
  mutable len : int;  (* live entries *)
  mutable keys : string array;  (* heap order; [vacant] past [len] *)
  mutable expiries : Float.Array.t;  (* heap order, parallel to [keys] *)
  mutable index : string array;
      (* the live keys, linear probing; empty while [keys] has one slot *)
  mutable hits : int;     (* authenticators refused as replays *)
  mutable inserts : int;  (* fresh authenticators admitted *)
  mutable evicted : int;  (* live entries pushed out by the cap *)
}

(* An empty slot, told apart from every key by physical equality. *)
let vacant = String.make 1 '\000'

let settings ?cap ?on_evict ~horizon () =
  (match cap with
  | Some c when c <= 0 -> invalid_arg "Replay_cache.create: cap must be positive"
  | _ -> ());
  { horizon; cap; on_evict }

let make settings =
  { settings; len = 0; keys = [||]; expiries = Float.Array.create 0; index = [||];
    hits = 0; inserts = 0; evicted = 0 }

let create ?cap ?on_evict ~horizon () = make (settings ?cap ?on_evict ~horizon ())

(* The state [check_and_insert] leaves when it admits [key] into an empty
   cache ([resize] to one slot, no index), counters aside. *)
let singleton settings key ~expiry =
  { settings; len = 1; keys = [| key |]; expiries = Float.Array.make 1 expiry;
    index = [||]; hits = 0; inserts = 0; evicted = 0 }

type verdict = Fresh | Replayed

(* --- index ---------------------------------------------------------- *)

(* The slot holding a key equal to [key], or the vacant slot ending its
   probe run. The index is never full: it has twice the heap's slots. *)
let rec probe index mask key i =
  let k = Array.unsafe_get index i in
  if k == vacant || String.equal k key then i else probe index mask key ((i + 1) land mask)

let mem t key =
  if t.len = 0 then false
  else if Array.length t.index = 0 then String.equal (Array.unsafe_get t.keys 0) key
  else begin
    let mask = Array.length t.index - 1 in
    let i = probe t.index mask key (Hashtbl.hash key land mask) in
    Array.unsafe_get t.index i != vacant
  end

let add_index index key =
  let mask = Array.length index - 1 in
  Array.unsafe_set index (probe index mask key (Hashtbl.hash key land mask)) key

(* Remove the very string [key] and close the gap behind it (Knuth's
   deletion for linear probing), so no tombstones accumulate. *)
let remove_index index key =
  let mask = Array.length index - 1 in
  let rec find i =
    if Array.unsafe_get index i == key then i else find ((i + 1) land mask)
  in
  let rec shift hole j =
    let k = Array.unsafe_get index j in
    if k == vacant then Array.unsafe_set index hole vacant
    else begin
      let home = Hashtbl.hash k land mask in
      (* [k] may fill the hole unless its home lies cyclically in (hole, j]. *)
      let stays =
        if hole < j then hole < home && home <= j else hole < home || home <= j
      in
      if stays then shift hole ((j + 1) land mask)
      else begin
        Array.unsafe_set index hole k;
        shift j ((j + 1) land mask)
      end
    end
  in
  let hole = find (Hashtbl.hash key land mask) in
  shift hole ((hole + 1) land mask)

(* Re-allocate for [c] heap slots (0 or a power of two) and rebuild the
   index at [2c], or drop it when [c] is at most 1. *)
let resize t c =
  let keys = Array.make c vacant and expiries = Float.Array.create c in
  Array.blit t.keys 0 keys 0 t.len;
  Float.Array.blit t.expiries 0 expiries 0 t.len;
  let index = if c <= 1 then [||] else Array.make (2 * c) vacant in
  if c > 1 then
    for i = 0 to t.len - 1 do add_index index (Array.unsafe_get keys i) done;
  t.keys <- keys;
  t.expiries <- expiries;
  t.index <- index

(* --- heap ----------------------------------------------------------- *)

let expiry t i = Float.Array.unsafe_get t.expiries i

let place t i key exp =
  Array.unsafe_set t.keys i key;
  Float.Array.unsafe_set t.expiries i exp

let move t ~src ~dst = place t dst (Array.unsafe_get t.keys src) (expiry t src)

(* Sift [key] up from the hole at [i]. *)
let rec sift_up t i key exp =
  if i = 0 then place t 0 key exp
  else begin
    let parent = (i - 1) / 2 in
    if Float.compare exp (expiry t parent) < 0 then begin
      move t ~src:parent ~dst:i;
      sift_up t parent key exp
    end
    else place t i key exp
  end

(* Sift [key] down from the hole at [i]. *)
let rec sift_down t i key exp =
  let l = (2 * i) + 1 in
  if l >= t.len then place t i key exp
  else begin
    let r = l + 1 in
    let c = if Float.compare (expiry t l) exp < 0 then l else i in
    let c =
      if r < t.len && Float.compare (expiry t r) (if c = i then exp else expiry t c) < 0
      then r
      else c
    in
    if c = i then place t i key exp
    else begin
      move t ~src:c ~dst:i;
      sift_down t c key exp
    end
  end

let push t key exp =
  let c = Array.length t.keys in
  if t.len = c then resize t (max 1 (2 * c));
  t.len <- t.len + 1;
  sift_up t (t.len - 1) key exp;
  if Array.length t.index > 0 then add_index t.index key

(* Remove the entry closest to expiry. *)
let pop t =
  let top = Array.unsafe_get t.keys 0 in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then sift_down t 0 (Array.unsafe_get t.keys last) (expiry t last);
  Array.unsafe_set t.keys last vacant;
  if Array.length t.index > 0 then remove_index t.index top;
  let c = Array.length t.keys in
  if 4 * last <= c then resize t (if last = 0 then 0 else c / 2)

(* --- operations ----------------------------------------------------- *)

let purge t ~now = while t.len > 0 && expiry t 0 < now do pop t done

(* At capacity: evict the entry closest to expiry. *)
let evict_soonest t =
  pop t;
  t.evicted <- t.evicted + 1;
  Option.iter (fun f -> f ()) t.settings.on_evict

let check_and_insert t ~now blob =
  purge t ~now;
  (* The lookup reads the caller's bytes in place; only an insert keeps
     a copy, so later writes to [blob] cannot reach the cache. *)
  if mem t (Bytes.unsafe_to_string blob) then begin
    t.hits <- t.hits + 1;
    Replayed
  end
  else begin
    (match t.settings.cap with Some c when t.len >= c -> evict_soonest t | _ -> ());
    push t (Bytes.to_string blob) (now +. t.settings.horizon);
    t.inserts <- t.inserts + 1;
    Fresh
  end

let size t = t.len

let sole t = if t.len = 1 then Some (Array.unsafe_get t.keys 0, expiry t 0) else None
let hits t = t.hits
let inserts t = t.inserts
let evicted t = t.evicted

(* Persistence: the paper's replay cache only earns its name if it
   survives a server restart — a cache that evaporates with the process
   re-admits every authenticator still inside the skew window. Entries are
   dumped sorted by key so the snapshot is deterministic; the heap is
   rebuilt by pushing them back in that order on load, and the lifetime
   counters start over (they describe a process, not a disk file). The cap
   travels with the snapshot (0 encodes "uncapped") so a restarted server
   keeps its memory bound. *)
let to_bytes t =
  let w = Wire.Codec.Writer.create () in
  Wire.Codec.Writer.i64 w (Int64.bits_of_float t.settings.horizon);
  Wire.Codec.Writer.u32 w (match t.settings.cap with None -> 0 | Some c -> c);
  let order = Array.init t.len Fun.id in
  Array.sort (fun a b -> String.compare t.keys.(a) t.keys.(b)) order;
  Wire.Codec.Writer.u32 w t.len;
  Array.iter
    (fun i ->
      Wire.Codec.Writer.lstring w t.keys.(i);
      Wire.Codec.Writer.i64 w (Int64.bits_of_float (expiry t i)))
    order;
  Wire.Codec.Writer.contents w

(* [?now] prunes at load: a snapshot taken before a long crash window is
   mostly expired entries by the time the server restarts, and loading
   them would both grow the heap with dead weight and — worse — resurrect
   entries whose authenticators the timestamp check already rejects
   (harmless for correctness, unbounded for memory). Entries at or past
   expiry are simply not admitted. A snapshot {!to_bytes} could not have
   written is refused: keys out of order (a key twice among them) would
   leave an entry the index cannot account for, and more live entries
   than the cap would leave the cache over its bound. *)
let of_bytes ?now ?on_evict b =
  let malformed what =
    raise (Wire.Codec.Decode_error ("replay cache snapshot: " ^ what))
  in
  let r = Wire.Codec.Reader.of_bytes b in
  let horizon = Int64.float_of_bits (Wire.Codec.Reader.i64 r) in
  let cap = match Wire.Codec.Reader.u32 r with 0 -> None | c -> Some c in
  let t = create ?cap ?on_evict ~horizon () in
  let n = Wire.Codec.Reader.u32 r in
  let prev = ref None in
  for _ = 1 to n do
    let k = Wire.Codec.Reader.lstring r in
    let expiry = Int64.float_of_bits (Wire.Codec.Reader.i64 r) in
    (match !prev with
    | Some p when String.compare p k >= 0 -> malformed "keys not in increasing order"
    | _ -> prev := Some k);
    let live = match now with None -> true | Some now -> expiry > now in
    if live then begin
      (match cap with
      | Some c when t.len >= c -> malformed "more live entries than its cap"
      | _ -> ());
      push t k expiry
    end
  done;
  Wire.Codec.Reader.expect_end r;
  t
