exception Decode_error of string

let fail msg = raise (Decode_error msg)

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 64
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  (* Big-endian, truncated to the field width like [u8]. *)
  let u16 t v = Buffer.add_uint16_be t (v land 0xffff)
  let u32 t v = Buffer.add_int32_be t (Int32.of_int v)

  let i64 t v = Buffer.add_int64_be t v
  let raw t b = Buffer.add_bytes t b

  let lbytes t b =
    u32 t (Bytes.length b);
    raw t b

  let lstring t s =
    u32 t (String.length s);
    Buffer.add_string t s

  let contents t = Buffer.to_bytes t

  (* A small free list of writers for the per-packet encode path: encoding a
     message allocates only its final [contents] bytes, not a fresh growing
     Buffer each time. Buffers that ballooned on an unusually large message
     are reset so the pool never pins big storage. *)
  let max_pool = 8
  let max_retained = 1 lsl 16
  let pool : Buffer.t list ref = ref []
  let pool_size = ref 0

  let pooled f =
    let b =
      match !pool with
      | b :: rest ->
          pool := rest;
          decr pool_size;
          b
      | [] -> Buffer.create 256
    in
    Fun.protect
      ~finally:(fun () ->
        if !pool_size < max_pool then begin
          if Buffer.length b > max_retained then Buffer.reset b else Buffer.clear b;
          pool := b :: !pool;
          incr pool_size
        end)
      (fun () -> f b)
end

module Reader = struct
  type t = { data : bytes; mutable pos : int; lim : int }

  let of_bytes data = { data; pos = 0; lim = Bytes.length data }

  (* A cursor over a window of [data]: decoding a field of a larger frame
     (a sealed trailer, a nested record) no longer needs the window copied
     out with [Bytes.sub] first. *)
  let of_sub data ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length data then
      invalid_arg "Codec.Reader.of_sub";
    { data; pos; lim = pos + len }

  let need t n = if t.pos + n > t.lim then fail "truncated message"

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = Bytes.get_uint16_be t.data t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (Bytes.get_int32_be t.data t.pos) land 0xffff_ffff in
    t.pos <- t.pos + 4;
    v

  let i64 t =
    need t 8;
    let v = Bytes.get_int64_be t.data t.pos in
    t.pos <- t.pos + 8;
    v

  let raw t n =
    need t n;
    let b = Bytes.sub t.data t.pos n in
    t.pos <- t.pos + n;
    b

  let remaining t = t.lim - t.pos

  let lbytes t =
    let n = u32 t in
    if n > remaining t then fail "length field exceeds input";
    raw t n

  (* Straight to a string: one copy, not bytes-then-to_string. *)
  let lstring t =
    let n = u32 t in
    if n > remaining t then fail "length field exceeds input";
    let s = Bytes.sub_string t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let at_end t = remaining t = 0
  let expect_end t = if not (at_end t) then fail "trailing bytes"
end
