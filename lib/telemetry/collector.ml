(* The collector binds one metrics registry, one trace ring, the
   per-source tables of the KDCs reporting to it, and the span lifecycle
   into a single handle that the simulator and every instrumented
   component share.

   Time: spans and events are stamped by the collector's clock, which the
   simulator points at [Sim.Engine.now] (never the wall clock), so two
   identical runs dump byte-identical telemetry.

   Nesting: a context stack carries the "current" span across synchronous
   calls — [with_context c span f] makes [span] the default parent for
   any span begun inside [f]. The network wraps packet delivery in the
   packet's span context, so a KDC handler's span nests under the packet
   that triggered it, which itself nests under the client exchange that
   sent the packet. *)

type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  mutable rates : Rates.t list;
  mutable clock : unit -> float;
  mutable next_span_id : int;
  lightweight : bool;
  mutable sink : (Trace.event -> unit) option;
  open_table : (int, Span.t) Hashtbl.t;
  span_hists : (string, Metrics.histogram) Hashtbl.t;
  mutable context : Span.t list;
}

let create ?trace_capacity ?(lightweight = false) () =
  { metrics = Metrics.create (); trace = Trace.create ?capacity:trace_capacity ();
    rates = []; clock = (fun () -> 0.0); next_span_id = 1;
    lightweight; sink = None; open_table = Hashtbl.create 16;
    span_hists = Hashtbl.create 16; context = [] }

let metrics t = t.metrics
let trace t = t.trace

let fresh_rates t =
  let r = Rates.create () in
  t.rates <- r :: t.rates;
  r

let rates t = t.rates
let lightweight t = t.lightweight

let set_clock t f = t.clock <- f
let now t = t.clock ()

(* The sink is a live tap on explicit [event] calls (hooks, faults,
   notes — not the per-span machinery). Unlike the trace ring it stays
   fed in lightweight mode, which is what lets a detector watch a
   million-user run whose ring is switched off. *)
let set_sink t f = t.sink <- f
let wants_events t = t.sink <> None || not t.lightweight

let event t ?time ?(severity = Trace.Info) ~component ~kind attrs =
  if t.sink <> None || not t.lightweight then begin
    let time = match time with Some x -> x | None -> now t in
    let e = { Trace.time; severity; component; kind; attrs } in
    (match t.sink with Some f -> f e | None -> ());
    if not t.lightweight then Trace.record t.trace e
  end

(* --- spans --------------------------------------------------------- *)

let current_span t = match t.context with [] -> None | s :: _ -> Some s

let no_attrs () = []

let span_begin t ?time ?parent ?(attrs = no_attrs) ~component name =
  let time = match time with Some x -> x | None -> now t in
  let parent =
    match parent with
    | Some _ as p -> p
    | None -> Option.map (fun (s : Span.t) -> s.Span.id) (current_span t)
  in
  (* Lightweight mode: spans still exist (their duration feeds the
     histograms the load reports are computed from) but their attributes
     are never built, and the open-span table and the per-span trace
     events — the per-packet cost — are skipped. *)
  let attrs = if t.lightweight then [] else attrs () in
  let span =
    { Span.id = t.next_span_id; name; component; parent; start_time = time;
      end_time = None; outcome = "open"; attrs }
  in
  t.next_span_id <- t.next_span_id + 1;
  if not t.lightweight then begin
    Hashtbl.replace t.open_table span.Span.id span;
    Trace.event t.trace ~time ~severity:Trace.Debug ~component ~kind:"span.begin"
      ([ ("span", string_of_int span.Span.id); ("name", name) ]
      @ (match parent with
        | Some p -> [ ("parent", string_of_int p) ]
        | None -> [])
      @ attrs)
  end;
  span

(* One string concatenation + registry probe per distinct span name, not
   per finish: finishing a span is a memo-table hit and an observe. *)
let span_hist t name =
  match Hashtbl.find_opt t.span_hists name with
  | Some h -> h
  | None ->
      let h = Metrics.histogram t.metrics ("span." ^ name ^ ".seconds") in
      Hashtbl.add t.span_hists name h;
      h

let span_finish t ?time ?(outcome = "ok") (span : Span.t) =
  if Span.is_open span then begin
    let time = match time with Some x -> x | None -> now t in
    span.Span.end_time <- Some time;
    span.Span.outcome <- outcome;
    let duration = time -. span.Span.start_time in
    Metrics.observe (span_hist t span.Span.name) duration;
    if not t.lightweight then begin
      Hashtbl.remove t.open_table span.Span.id;
      Trace.event t.trace ~time ~severity:Trace.Debug ~component:span.Span.component
        ~kind:"span.end"
        [ ("span", string_of_int span.Span.id); ("name", span.Span.name);
          ("outcome", outcome);
          ("duration_ms", Printf.sprintf "%.3f" (duration *. 1000.0)) ]
    end
  end

let span_abandon t ?time (span : Span.t) =
  if Span.is_open span then begin
    let time = match time with Some x -> x | None -> now t in
    if not t.lightweight then
      Trace.event t.trace ~time ~severity:Trace.Warn ~component:span.Span.component
        ~kind:"span.abandoned"
        [ ("span", string_of_int span.Span.id); ("name", span.Span.name) ];
    span_finish t ~time ~outcome:"abandoned" span
  end

let with_context t span f =
  t.context <- span :: t.context;
  Fun.protect
    ~finally:(fun () ->
      match t.context with
      | s :: rest when s == span -> t.context <- rest
      | _ -> () (* unbalanced pops are a bug, but don't mask [f]'s result *))
    f

let open_spans t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.open_table []
  |> List.sort (fun (a : Span.t) b -> compare a.Span.id b.Span.id)

let open_span_count t = Hashtbl.length t.open_table

let abandon_open_spans t ?time () =
  let spans = open_spans t in
  List.iter (fun s -> span_abandon t ?time s) spans;
  List.length spans

(* --- dumps --------------------------------------------------------- *)

let trace_jsonl t = Trace.to_jsonl t.trace
let metrics_json t = Metrics.to_json t.metrics
let metrics_text t = Metrics.to_text t.metrics

(* --- the shared default -------------------------------------------- *)

(* Components accept [?telemetry] and fall back to this process-wide
   collector, so existing call sites observe without plumbing. Harnesses
   that need isolation (determinism tests, per-scenario operator views)
   either pass their own collector or call [fresh_default]. *)

let default_collector = ref None

let default () =
  match !default_collector with
  | Some c -> c
  | None ->
      let c = create () in
      default_collector := Some c;
      c

let fresh_default () =
  let c = create () in
  default_collector := Some c;
  c
