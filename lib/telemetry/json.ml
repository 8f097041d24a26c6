(* A minimal JSON value type with a deterministic printer and a strict
   parser. The sealed environment has no JSON library; the exporters need
   byte-stable output (two identical sim runs must dump identical traces),
   so object fields print in the order given and floats print via a single
   canonical format. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if not (Float.is_finite f) then "null" (* JSON has no spelling for nan/inf *)
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s -> escape_string b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* --- parser ------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c ("expected " ^ word)

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char b '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char b '\\'; go ()
        | Some '/' -> advance c; Buffer.add_char b '/'; go ()
        | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance c; Buffer.add_char b '\r'; go ()
        | Some 't' -> advance c; Buffer.add_char b '\t'; go ()
        | Some 'b' -> advance c; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char b '\012'; go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then fail c "bad \\u escape";
            let hex = String.sub c.src c.pos 4 in
            c.pos <- c.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> fail c "bad \\u escape"
            in
            (* Only the BMP-ASCII escapes the printer emits are decoded. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else fail c "non-ASCII \\u escape unsupported";
            go ()
        | _ -> fail c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    (ch >= '0' && ch <= '9')
    || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  let rec go () =
    match peek c with Some ch when is_num_char ch -> advance c; go () | _ -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail c ("bad number " ^ s))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin advance c; List [] end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; items (v :: acc)
          | Some ']' -> advance c; List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin advance c; Obj [] end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; fields (f :: acc)
          | Some '}' -> advance c; List.rev (f :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing garbage after JSON value"
      else Ok v
  | exception Parse_error e -> Error e

(* --- accessors (for tests and schema checks) ----------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let path p j =
  List.fold_left
    (fun acc seg ->
      match (acc, int_of_string_opt seg) with
      | Some (List l), Some i -> List.nth_opt l i
      | Some v, _ -> member seg v
      | None, _ -> None)
    (Some j) (String.split_on_char '.' p)

let missing j paths = List.filter (fun p -> path p j = None) paths

let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
