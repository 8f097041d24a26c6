(* The metrics registry: named counters, gauges, and fixed-bucket
   histograms. Recording is O(1) (a histogram observe is a bounded linear
   scan over ~a dozen bucket bounds); exporting walks the registry sorted
   by name so output is deterministic. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_bounds : float array;  (* strictly increasing upper bounds; +inf implicit *)
  h_counts : int array;    (* length = Array.length h_bounds + 1 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  next_suffix : (string, int) Hashtbl.t;  (* base -> next fresh_name suffix *)
}

let create () = { tbl = Hashtbl.create 64; next_suffix = Hashtbl.create 8 }

(* Spans are sim-time; the sim's base latency is 5 ms, so the buckets
   bracket one-hop to many-round-trip exchanges. *)
let default_latency_buckets =
  [| 0.001; 0.0025; 0.005; 0.01; 0.02; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0 |]

let kind_of = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let clash name have want =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_of have) want)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some m -> clash name m "counter"
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace t.tbl name (Counter c);
      c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some m -> clash name m "gauge"
  | None ->
      let g = { g_name = name; g_value = 0.0 } in
      Hashtbl.replace t.tbl name (Gauge g);
      g

let histogram ?(buckets = default_latency_buckets) t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some m -> clash name m "histogram"
  | None ->
      Array.iteri
        (fun i b ->
          if i > 0 && buckets.(i - 1) >= b then
            invalid_arg "Metrics.histogram: bounds must be strictly increasing")
        buckets;
      let h =
        { h_name = name; h_bounds = Array.copy buckets;
          h_counts = Array.make (Array.length buckets + 1) 0; h_count = 0;
          h_sum = 0.0; h_min = infinity; h_max = neg_infinity }
      in
      Hashtbl.replace t.tbl name (Histogram h);
      h

(* A fresh name for per-instance metrics: [base] if unused, else [base#2],
   [base#3], … — two KDCs for the same realm keep distinct counters. The
   next suffix per base is remembered so heavy churn (a benchmark creating
   thousands of instances) stays O(1) per call. *)
let fresh_name t base =
  if not (Hashtbl.mem t.tbl base) then base
  else
    let start = match Hashtbl.find_opt t.next_suffix base with Some i -> i | None -> 2 in
    let rec go i =
      let name = Printf.sprintf "%s#%d" base i in
      if Hashtbl.mem t.tbl name then go (i + 1) else (i, name)
    in
    let i, name = go start in
    Hashtbl.replace t.next_suffix base (i + 1);
    name

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let set g v = g.g_value <- v
let gauge_value g = g.g_value

let observe h v =
  let n = Array.length h.h_bounds in
  let rec slot i = if i < n && v > h.h_bounds.(i) then slot (i + 1) else i in
  let i = slot 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let bucket_counts h = Array.copy h.h_counts

(* Interpolated quantile: find the bucket the rank falls in, then assume
   observations spread uniformly across it. The overflow bucket's upper
   edge is the observed maximum (tracked exactly), so p99 stays finite
   even when the tail escapes the fixed bounds. *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let target = q *. float_of_int h.h_count in
    let n = Array.length h.h_bounds in
    let rec go i cum =
      if i > n then h.h_max
      else
        let c = h.h_counts.(i) in
        let cum' = cum +. float_of_int c in
        if c > 0 && cum' >= target then
          let lo = if i = 0 then 0.0 else h.h_bounds.(i - 1) in
          let hi = if i < n then h.h_bounds.(i) else h.h_max in
          let frac = (target -. cum) /. float_of_int c in
          let v = lo +. ((hi -. lo) *. frac) in
          let v = if v < h.h_min then h.h_min else v in
          if v > h.h_max then h.h_max else v
        else go (i + 1) cum'
    in
    go 0 0.0

(* --- export -------------------------------------------------------- *)

let sorted t =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t =
  List.filter_map
    (fun (name, m) -> match m with Counter c -> Some (name, c) | _ -> None)
    (sorted t)

let histograms t =
  List.filter_map
    (fun (name, m) -> match m with Histogram h -> Some (name, h) | _ -> None)
    (sorted t)

let bucket_label bound =
  if Float.is_integer bound then Printf.sprintf "%.0f" bound
  else Printf.sprintf "%g" bound

let hist_to_json h =
  let buckets =
    List.concat
      [ Array.to_list
          (Array.mapi
             (fun i b -> (Printf.sprintf "le_%s" (bucket_label b), Json.Int h.h_counts.(i)))
             h.h_bounds);
        [ ("le_inf", Json.Int h.h_counts.(Array.length h.h_bounds)) ] ]
  in
  Json.Obj
    [ ("type", Json.Str "histogram"); ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("min", if h.h_count = 0 then Json.Null else Json.Float h.h_min);
      ("max", if h.h_count = 0 then Json.Null else Json.Float h.h_max);
      ("p50", if h.h_count = 0 then Json.Null else Json.Float (quantile h 0.5));
      ("p95", if h.h_count = 0 then Json.Null else Json.Float (quantile h 0.95));
      ("p99", if h.h_count = 0 then Json.Null else Json.Float (quantile h 0.99));
      ("buckets", Json.Obj buckets) ]

let to_json t =
  Json.Obj
    (List.map
       (fun (name, m) ->
         ( name,
           match m with
           | Counter c ->
               Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int c.c_value) ]
           | Gauge g ->
               Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Float g.g_value) ]
           | Histogram h -> hist_to_json h ))
       (sorted t))

let to_text t =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Printf.bprintf b "counter   %-48s %d\n" name c.c_value
      | Gauge g -> Printf.bprintf b "gauge     %-48s %g\n" name g.g_value
      | Histogram h ->
          Printf.bprintf b "histogram %-48s count=%d sum=%.6f" name h.h_count h.h_sum;
          if h.h_count > 0 then
            Printf.bprintf b " min=%.6f max=%.6f p50=%.6f p95=%.6f p99=%.6f"
              h.h_min h.h_max (quantile h 0.5) (quantile h 0.95) (quantile h 0.99);
          Buffer.add_char b '\n';
          Array.iteri
            (fun i bound ->
              if h.h_counts.(i) > 0 then
                Printf.bprintf b "          %-48s   le %s: %d\n" "" (bucket_label bound)
                  h.h_counts.(i))
            h.h_bounds;
          let overflow = h.h_counts.(Array.length h.h_bounds) in
          if overflow > 0 then
            Printf.bprintf b "          %-48s   le inf: %d\n" "" overflow)
    (sorted t);
  Buffer.contents b
