(* The event queue is a binary min-heap over [(time, seq)] kept in three
   parallel arrays: unboxed float times, int sequence numbers and the
   closures. A comparison reads one float and, on a tie, one int, with no
   indirection through an event record or a boxed float. Sifting moves a
   hole rather than swapping, so each level costs one write per array.
   [(time, seq)] is a total order, so any heap layout pops the same
   sequence of events. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable len : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable executed : int;
  mutable telemetry : Telemetry.Collector.t list;
}

let nop () = ()

let create () =
  { times = [||]; seqs = [||]; fns = [||]; len = 0; clock = 0.0; next_seq = 0;
    executed = 0; telemetry = [] }

let now t = t.clock
let executed t = t.executed

let attach_telemetry t c =
  if not (List.memq c t.telemetry) then t.telemetry <- c :: t.telemetry

let attached_telemetry t = List.rev t.telemetry

let reserve t n =
  let cap = Array.length t.fns in
  if n > cap then begin
    let ncap = max 16 (max n (2 * cap)) in
    let times = Array.make ncap 0.0 and seqs = Array.make ncap 0 in
    let fns = Array.make ncap nop in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.seqs 0 seqs 0 t.len;
    Array.blit t.fns 0 fns 0 t.len;
    t.times <- times;
    t.seqs <- seqs;
    t.fns <- fns
  end

(* Move the entry at [i] up towards the root until its parent is earlier. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs and fns = t.fns in
  let tm = times.(i) and sq = seqs.(i) and fn = fns.(i) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pt = times.(p) in
    if tm < pt || (tm = pt && sq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      fns.(!i) <- fns.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- tm;
  seqs.(!i) <- sq;
  fns.(!i) <- fn

(* Move the entry at [i] down until both children are later. *)
let sift_down t i =
  let times = t.times and seqs = t.seqs and fns = t.fns and n = t.len in
  let tm = times.(i) and sq = seqs.(i) and fn = fns.(i) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then
          let lt = times.(l) and rt = times.(r) in
          if rt < lt || (rt = lt && seqs.(r) < seqs.(l)) then r else l
        else l
      in
      let ct = times.(c) in
      if ct < tm || (ct = tm && seqs.(c) < sq) then begin
        times.(!i) <- ct;
        seqs.(!i) <- seqs.(c);
        fns.(!i) <- fns.(c);
        i := c
      end
      else moving := false
    end
  done;
  times.(!i) <- tm;
  seqs.(!i) <- sq;
  fns.(!i) <- fn

(* +infinity would be queued and, once reached, leave the clock there;
   -infinity is in the past. *)
let check_time t ~caller at =
  if Float.is_nan at then invalid_arg (caller ^ ": NaN time");
  if at = Float.infinity then invalid_arg (caller ^ ": infinite time");
  if at < t.clock then invalid_arg (caller ^ ": event in the past")

(* Append at the end of the live prefix without restoring heap order. *)
let append t at fn =
  let i = t.len in
  t.times.(i) <- at;
  t.seqs.(i) <- t.next_seq;
  t.fns.(i) <- fn;
  t.next_seq <- t.next_seq + 1;
  t.len <- i + 1

let schedule t ~at fn =
  check_time t ~caller:"Engine.schedule" at;
  reserve t (t.len + 1);
  append t at fn;
  sift_up t (t.len - 1)

let schedule_after t delay fn = schedule t ~at:(t.clock +. delay) fn

(* A guard timer is an ordinary event whose closure only reaches this
   one-field record. Disarming swaps the action for [nop], so whatever
   the action captured is released at once while the event itself keeps
   its place in the queue and fires, counted, as a no-op. *)
type timer = { mutable action : unit -> unit }

let arm t ~at fn =
  let tm = { action = fn } in
  schedule t ~at (fun () ->
      let fn = tm.action in
      tm.action <- nop;
      fn ());
  tm

let arm_after t delay fn = arm t ~at:(t.clock +. delay) fn
let disarm tm = tm.action <- nop

(* One call for a burst of events (the loadgen ramp): sequence numbers are
   assigned in list order, so the batch fires exactly as the same sequence
   of [schedule] calls would. A batch small next to the live queue is
   sifted in one event at a time; a larger one is appended wholesale and
   the whole queue re-heapified bottom-up, O(len + batch) rather than
   O(batch log len). Every time is checked before any is queued. *)
let schedule_batch t evs =
  List.iter (fun (at, _) -> check_time t ~caller:"Engine.schedule_batch" at) evs;
  let start = t.len in
  reserve t (start + List.length evs);
  List.iter (fun (at, fn) -> append t at fn) evs;
  if t.len - start < t.len / 8 then
    for i = start to t.len - 1 do
      sift_up t i
    done
  else
    for i = (t.len - 2) / 2 downto 0 do
      sift_down t i
    done

let step t =
  if t.len = 0 then false
  else begin
    let time = t.times.(0) and fn = t.fns.(0) in
    let last = t.len - 1 in
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.fns.(0) <- t.fns.(last);
    (* Drop the queue's reference so a fired closure can be collected. *)
    t.fns.(last) <- nop;
    t.len <- last;
    if last > 0 then sift_down t 0;
    t.clock <- time;
    t.executed <- t.executed + 1;
    fn ();
    true
  end

(* Once the queue is empty no future event can close a span, so anything
   still open has leaked. Non-strict runs close them as "abandoned" (with
   a Warn trace event — never silently); strict runs raise. *)
let settle_spans ~strict t =
  List.iter
    (fun c ->
      if strict && Telemetry.Collector.open_span_count c > 0 then begin
        let names =
          List.map
            (fun (s : Telemetry.Span.t) -> s.Telemetry.Span.name)
            (Telemetry.Collector.open_spans c)
        in
        (* Leave the trace honest even when raising. *)
        ignore (Telemetry.Collector.abandon_open_spans c ~time:t.clock ());
        failwith
          ("Engine.run: spans left open after the event queue drained: "
          ^ String.concat ", " names)
      end
      else ignore (Telemetry.Collector.abandon_open_spans c ~time:t.clock ()))
    t.telemetry

let run ?(strict_spans = false) t =
  while step t do () done;
  settle_spans ~strict:strict_spans t

let run_until t limit =
  while t.len > 0 && t.times.(0) <= limit do
    ignore (step t)
  done;
  if t.clock < limit then t.clock <- limit;
  (* Events past [limit] may still legitimately close spans, so only a
     fully drained queue settles them. *)
  if t.len = 0 then settle_spans ~strict:false t

let settle t = settle_spans ~strict:false t

let pending t = t.len
