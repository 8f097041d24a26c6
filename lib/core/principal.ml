type t = { name : string; instance : string; realm : string }

let default_realm = "ATHENA.MIT.EDU"

(* Primary names must be dot-free (the name/instance separator); instances
   may contain dots — host names and realm names legitimately do. *)
let make name instance realm =
  if name = "" || String.contains name '.' || String.contains name '@' then
    invalid_arg (Printf.sprintf "Principal: bad name %S" name);
  if String.contains instance '@' then
    invalid_arg (Printf.sprintf "Principal: bad instance %S" instance);
  { name; instance; realm }

let user ?(realm = default_realm) name = make name "" realm
let service ?(realm = default_realm) name ~host = make name host realm
let tgs ~realm = make "krbtgt" realm realm
let cross_realm_tgs ~local ~remote = { name = "krbtgt"; instance = remote; realm = local }

let to_string t =
  if t.instance = "" then String.concat "@" [ t.name; t.realm ]
  else String.concat "" [ t.name; "."; t.instance; "@"; t.realm ]

let of_string s =
  match String.index_opt s '@' with
  | None -> invalid_arg "Principal.of_string: missing realm"
  | Some at ->
      let left = String.sub s 0 at in
      let realm = String.sub s (at + 1) (String.length s - at - 1) in
      (match String.index_opt left '.' with
      | None -> make left "" realm
      | Some dot ->
          let name = String.sub left 0 dot in
          let instance = String.sub left (dot + 1) (String.length left - dot - 1) in
          { name; instance; realm })

let equal a b = a.name = b.name && a.instance = b.instance && a.realm = b.realm
let compare = Stdlib.compare
let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_value t =
  Wire.Encoding.List [ Str t.name; Str t.instance; Str t.realm ]

let of_value v =
  let open Wire.Encoding in
  match get_list v with
  | [ n; i; r ] -> { name = get_str n; instance = get_str i; realm = get_str r }
  | _ -> Wire.Codec.fail "principal: wrong arity"
