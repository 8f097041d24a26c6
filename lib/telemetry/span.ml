(* A span: one timed protocol step, opened and closed at simulation times.
   The record is plain data — lifecycle (ids, nesting context, the open-span
   table, duration histograms) is managed by {!Collector}. *)

type t = {
  id : int;
  name : string;
  component : string;
  parent : int option;
  start_time : float;
  mutable end_time : float option;
  mutable outcome : string;
  attrs : (string * string) list;
}

let is_open s = s.end_time = None

let duration s =
  match s.end_time with None -> None | Some e -> Some (e -. s.start_time)

let pp ppf s =
  Format.fprintf ppf "span#%d %s/%s [%0.4f..%s] %s" s.id s.component s.name
    s.start_time
    (match s.end_time with None -> "open" | Some e -> Printf.sprintf "%0.4f" e)
    (if is_open s then "-" else s.outcome)
