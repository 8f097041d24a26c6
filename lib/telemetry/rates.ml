(* The space-saving top-k of rates.mli, with a min-heap on (count, last
   counted) to find the row a newcomer takes: an update costs
   O(log capacity). *)

(* The most distinct sources any committed run with a rule on sends to
   one KDC is 260 (the overload campaign's clients, each reaching both
   KDCs with admission on), so no committed decision loses a row; 1,024
   leaves four times that, and a full table is about 28,000 words. *)
let capacity = 1024

type row = {
  src : int;
  mutable count : int;  (* counted requests, inherited on takeover *)
  mutable counted : int;  (* [tick] at the last count: the tie-break *)
  mutable pos : int;  (* index in [heap] *)
  (* the operator view, on the KDC host's clock *)
  mutable ok : int;
  mutable preauth : int;
  mutable ratelim : int;
  mutable other : int;
  mutable first : float;
  mutable last : float;
  mutable accepted : float list;  (* rate_limit, the KDC host's clock *)
  mutable epoch : int;  (* demotion: arrivals in [epoch] and the one before *)
  mutable cur : int;
  mutable prev : int;
}

type t = {
  rows : (int, row) Hashtbl.t;
  mutable heap : row array;  (* [capacity] slots once a row exists *)
  mutable tick : int;
}

let create () = { rows = Hashtbl.create 16; heap = [||]; tick = 0 }
let size t = Hashtbl.length t.rows
let before a b = a.count < b.count || (a.count = b.count && a.counted < b.counted)

(* Put [r], which left slot [i], where the heap order wants it. *)
let rec place t i r =
  let parent = (i - 1) / 2 and l = (2 * i) + 1 in
  let c = if l + 1 < size t && before t.heap.(l + 1) t.heap.(l) then l + 1 else l in
  let next =
    if i > 0 && before r t.heap.(parent) then parent
    else if c < size t && before t.heap.(c) r then c
    else i
  in
  if next = i then begin
    t.heap.(i) <- r;
    r.pos <- i
  end
  else begin
    t.heap.(i) <- t.heap.(next);
    t.heap.(i).pos <- i;
    place t next r
  end

(* The row of [src] with one more request counted; a newcomer to a full
   table replaces the heap's root. *)
let row t src =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.rows src with
  | Some r ->
      r.count <- r.count + 1;
      r.counted <- t.tick;
      place t r.pos r;
      r
  | None ->
      let n = size t in
      let i, count = if n < capacity then (n, 1) else (0, t.heap.(0).count + 1) in
      let r =
        { src; count; counted = t.tick; pos = i; ok = 0; preauth = 0; ratelim = 0;
          other = 0; first = infinity; last = neg_infinity; accepted = [];
          epoch = min_int; cur = 0; prev = 0 }
      in
      if Array.length t.heap = 0 then t.heap <- Array.make capacity r;
      if n = capacity then Hashtbl.remove t.rows t.heap.(0).src;
      Hashtbl.replace t.rows src r;
      place t i r;
      r

let arrive t src ~now =
  let r = row t src in
  let epoch = int_of_float (now /. 60.0) in
  if epoch <> r.epoch then begin
    r.prev <- (if epoch = r.epoch + 1 then r.cur else 0);
    r.cur <- 0;
    r.epoch <- epoch
  end;
  r.cur <- r.cur + 1;
  r.cur + r.prev

let admit t src ~now ~limit =
  let r = row t src in
  r.accepted <- List.filter (fun ts -> now -. ts < 60.0) r.accepted;
  if List.length r.accepted >= limit then false
  else begin
    r.accepted <- now :: r.accepted;
    true
  end

let forget_windows t =
  Hashtbl.iter
    (fun _ r ->
      r.accepted <- [];
      r.epoch <- min_int;
      r.cur <- 0;
      r.prev <- 0)
    t.rows

let record_as t src ~time ~outcome =
  let r = row t src in
  r.first <- Float.min r.first time;
  r.last <- Float.max r.last time;
  match outcome with
  | "ok" -> r.ok <- r.ok + 1
  | "preauth-reject" -> r.preauth <- r.preauth + 1
  | "rate-limited" -> r.ratelim <- r.ratelim + 1
  | _ -> r.other <- r.other + 1

let reqs r = r.ok + r.preauth + r.ratelim + r.other

(* Requests a minute over the source's own active window; a single
   request reports its count (no window to divide by). *)
let per_min r =
  if reqs r <= 1 || r.last <= r.first then float_of_int (reqs r)
  else float_of_int (reqs r - 1) /. (r.last -. r.first) *. 60.0

(* The 1991-grade heuristics an operator could run from syslog: a mill
   hammers the AS port far faster than a human types passwords, or trips
   preauth or the rate limiter repeatedly. *)
let suspicious r = per_min r > 30.0 || r.preauth > 3 || r.ratelim > 0

(* Replay hits by component: the counters "kdc.<realm>.replay_hits" and
   "ap.<service>.replay_hits", a second server's "#n" folded in. *)
let replay_hits metrics =
  let hits = Hashtbl.create 4 and tail = ".replay_hits" in
  List.iter
    (fun (name, c) ->
      let name = List.hd (String.split_on_char '#' name) in
      if
        (String.starts_with ~prefix:"kdc." name || String.starts_with ~prefix:"ap." name)
        && String.ends_with ~suffix:tail name && Metrics.value c > 0
      then
        let comp = String.sub name 0 (String.length name - String.length tail) in
        let sum = Option.value ~default:0 (Hashtbl.find_opt hits comp) in
        Hashtbl.replace hits comp (sum + Metrics.value c))
    (Metrics.counters metrics);
  List.sort compare (Hashtbl.fold (fun comp n acc -> (comp, n) :: acc) hits [])

let report ~addr tables metrics =
  (* Each source's rows from every KDC, summed into a copy of the first. *)
  let lines = Hashtbl.create 16 in
  let merge r =
    match Hashtbl.find_opt lines (addr r.src) with
    | None -> Hashtbl.replace lines (addr r.src) { r with src = r.src }
    | Some l ->
        l.ok <- l.ok + r.ok;
        l.preauth <- l.preauth + r.preauth;
        l.ratelim <- l.ratelim + r.ratelim;
        l.other <- l.other + r.other;
        l.first <- Float.min l.first r.first;
        l.last <- Float.max l.last r.last
  in
  List.iter (fun t -> Hashtbl.iter (fun _ r -> if reqs r > 0 then merge r) t.rows) tables;
  let b = Buffer.create 512 in
  Buffer.add_string b "operator view — KDC AS_REQ sources:\n";
  if Hashtbl.length lines = 0 then Buffer.add_string b "  (no AS traffic observed)\n"
  else begin
    Printf.bprintf b "  %-18s %6s %6s %8s %8s %8s %10s\n" "source" "reqs" "ok"
      "preauth-" "ratelim" "other-" "req/min";
    Hashtbl.fold (fun src l acc -> (src, l) :: acc) lines []
    |> List.sort (fun (sa, ra) (sb, rb) ->
           match compare (reqs rb) (reqs ra) with 0 -> compare sa sb | c -> c)
    |> List.iter (fun (src, l) ->
           Printf.bprintf b "  %-18s %6d %6d %8d %8d %8d %10.1f%s\n" src (reqs l) l.ok
             l.preauth l.ratelim l.other (per_min l)
             (if suspicious l then "  <-- suspicious" else ""))
  end;
  let hits = replay_hits metrics in
  Printf.bprintf b "replay-cache hits: %d total\n"
    (List.fold_left (fun acc (_, n) -> acc + n) 0 hits);
  List.iter (fun (comp, n) -> Printf.bprintf b "  %-18s %d\n" comp n) hits;
  Buffer.contents b
