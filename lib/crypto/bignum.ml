(* Little-endian limbs in base 2^26. 26-bit limbs keep every intermediate of
   schoolbook multiplication (limb*limb + carry + acc <= 2^52 + 2^53) well
   inside OCaml's 63-bit native ints. The zero value is the empty array;
   all values are kept normalized (no leading zero limbs). *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs v = if v = 0 then [] else (v land limb_mask) :: limbs (v lsr limb_bits) in
  Array.of_list (limbs v)

let one = of_int 1
let two = of_int 2

let is_zero (a : t) = Array.length a = 0

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else
    let top = a.(n - 1) in
    let rec width v = if v = 0 then 0 else 1 + width (v lsr 1) in
    ((n - 1) * limb_bits) + width top

let to_int_opt (a : t) =
  if num_bits a > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length a - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.(i)
    done;
    Some !v
  end

let compare (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  if na <> nb then Stdlib.compare na nb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (na - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let na = Array.length a and nb = Array.length b in
  let n = max na nb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < na then a.(i) else 0) + (if i < nb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  normalize out

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let borrow = ref 0 in
  for i = 0 to na - 1 do
    let d = a.(i) - (if i < nb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul (a : t) (b : t) : t =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then zero
  else begin
    let out = Array.make (na + nb) 0 in
    for i = 0 to na - 1 do
      let carry = ref 0 in
      for j = 0 to nb - 1 do
        let v = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      let k = ref (i + nb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let shift_left (a : t) bits : t =
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let na = Array.length a in
    let out = Array.make (na + limb_shift + 1) 0 in
    for i = 0 to na - 1 do
      let v = a.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (v land limb_mask);
      out.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize out
  end

let shift_right (a : t) bits : t =
  if bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let na = Array.length a in
    if limb_shift >= na then zero
    else begin
      let n = na - limb_shift in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= na then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

let bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

(* Limb-wise schoolbook division (Knuth TAOCP vol. 2, Algorithm D): O(limbs
   of quotient * limbs of divisor), versus O(bits * limbs) for the binary
   long division it replaced — the difference between a 521-bit modular
   reduction costing ~1000 limb passes and ~20. All intermediates fit the
   63-bit native int: two-limb numerators and limb*limb products stay under
   2^53. *)
let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let nb = Array.length b in
    if nb = 1 then begin
      (* Short division by a single limb. *)
      let d = b.(0) in
      let na = Array.length a in
      let q = Array.make na 0 in
      let r = ref 0 in
      for i = na - 1 downto 0 do
        let cur = (!r lsl limb_bits) lor a.(i) in
        q.(i) <- cur / d;
        r := cur mod d
      done;
      (normalize q, normalize [| !r |])
    end
    else begin
      (* D1: normalize so the divisor's top limb has its high bit set; the
         quotient-digit estimate from the top two limbs is then off by at
         most 2. *)
      let width v =
        let rec go v = if v = 0 then 0 else 1 + go (v lsr 1) in
        go v
      in
      let shift = limb_bits - width b.(nb - 1) in
      let v = if shift = 0 then b else shift_left b shift in
      let na = Array.length a in
      let u = Array.make (na + 2) 0 in
      let a' = shift_left a shift in
      Array.blit a' 0 u 0 (Array.length a');
      let m = na - nb in
      let q = Array.make (m + 1) 0 in
      let vtop = v.(nb - 1) and vsec = v.(nb - 2) in
      for j = m downto 0 do
        (* D3: estimate the quotient digit from the top two limbs, then
           correct it with the third. *)
        let num = (u.(j + nb) lsl limb_bits) lor u.(j + nb - 1) in
        let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
        let adjusting = ref true in
        while !adjusting do
          if
            !qhat >= limb_base
            || !qhat * vsec > (!rhat lsl limb_bits) lor u.(j + nb - 2)
          then begin
            decr qhat;
            rhat := !rhat + vtop;
            if !rhat >= limb_base then adjusting := false
          end
          else adjusting := false
        done;
        (* D4: multiply and subtract. *)
        let carry = ref 0 and borrow = ref 0 in
        for i = 0 to nb - 1 do
          let p = (!qhat * v.(i)) + !carry in
          carry := p lsr limb_bits;
          let d = u.(i + j) - (p land limb_mask) - !borrow in
          if d < 0 then begin
            u.(i + j) <- d + limb_base;
            borrow := 1
          end
          else begin
            u.(i + j) <- d;
            borrow := 0
          end
        done;
        let d = u.(j + nb) - !carry - !borrow in
        u.(j + nb) <- d land limb_mask;
        if d >= 0 then q.(j) <- !qhat
        else begin
          (* D6: the estimate was one too high; add the divisor back. *)
          q.(j) <- !qhat - 1;
          let c = ref 0 in
          for i = 0 to nb - 1 do
            let s = u.(i + j) + v.(i) + !c in
            u.(i + j) <- s land limb_mask;
            c := s lsr limb_bits
          done;
          u.(j + nb) <- (u.(j + nb) + !c) land limb_mask
        end
      done;
      let r = normalize (Array.sub u 0 nb) in
      (normalize q, if shift = 0 then r else shift_right r shift)
    end
  end

let rem a b = snd (divmod a b)

let mod_mul a b ~modulus = rem (mul a b) modulus

(* Sliding-window exponentiation, 4-bit windows: precompute the eight odd
   powers b^1, b^3, ..., b^15 and consume the exponent MSB-first, squaring
   per bit and multiplying once per window — about 1.2 multiplies per
   exponent bit instead of the 1.5 of square-and-multiply. [window_pow]
   runs that schedule over any multiplication: [mul dst x y] stores x*y in
   [dst], which may be [x] or [y]. *)
let window_pow ~one ~mul ~copy b exp =
  let n = num_bits exp in
  let odd_pows = Array.init 8 (fun _ -> copy b) in
  let b2 = copy b in
  mul b2 b b;
  for i = 1 to 7 do
    mul odd_pows.(i) odd_pows.(i - 1) b2
  done;
  let result = copy one in
  let i = ref (n - 1) in
  while !i >= 0 do
    if not (bit exp !i) then begin
      mul result result result;
      decr i
    end
    else begin
      (* Window [l, i]: at most 4 bits, ending on a set bit so the
         window value is odd. *)
      let l = ref (max 0 (!i - 3)) in
      while not (bit exp !l) do incr l done;
      let v = ref 0 in
      for j = !i downto !l do
        v := (!v lsl 1) lor (if bit exp j then 1 else 0)
      done;
      for _ = !l to !i do
        mul result result result
      done;
      mul result result odd_pows.(!v lsr 1);
      i := !l - 1
    end
  done;
  result

(* --- Montgomery multiplication for odd moduli ----------------------------

   With [n] the modulus's limb count and R = 2^(26n), a value x is held as
   xR mod m in a fixed [n]-limb array (not normalized). [mont_mul] computes
   xyR^-1 mod m by interleaving each limb of x's product with one limb's
   worth of reduction: add x_i * y, pick the multiple u of m that clears
   the low limb (u = t_0 * m' mod 2^26, m' = -m^-1 mod 2^26), add u * m and
   drop that limb. No step divides. Each column sums a limb, two limb
   products and a carry, under 2^54. *)
type mont = { m : int array; m' : int; n : int; t : int array }

let mont_of_modulus (m : t) =
  let n = Array.length m in
  (* m0^-1 mod 2^26 by Newton's iteration: each step doubles the number of
     correct low bits, and for odd m0, m0 itself is right to 3 bits. *)
  let m0 = m.(0) in
  let inv = ref m0 in
  for _ = 1 to 4 do
    inv := (!inv * (2 - (m0 * !inv))) land limb_mask
  done;
  { m; m' = (limb_base - !inv) land limb_mask; n; t = Array.make (n + 2) 0 }

(* [t] >= [m] on limbs [0..j], compared from the top. *)
let rec limbs_geq t m j =
  j < 0 || t.(j) > m.(j) || (t.(j) = m.(j) && limbs_geq t m (j - 1))

let mont_mul ctx dst x y =
  let n = ctx.n and m = ctx.m and t = ctx.t in
  Array.fill t 0 (n + 2) 0;
  for i = 0 to n - 1 do
    let xi = Array.unsafe_get x i in
    let s = Array.unsafe_get t 0 + (xi * Array.unsafe_get y 0) in
    let u = ((s land limb_mask) * ctx.m') land limb_mask in
    let carry = ref ((s + (u * Array.unsafe_get m 0)) lsr limb_bits) in
    for j = 1 to n - 1 do
      let s =
        Array.unsafe_get t j + (xi * Array.unsafe_get y j) + (u * Array.unsafe_get m j) + !carry
      in
      Array.unsafe_set t (j - 1) (s land limb_mask);
      carry := s lsr limb_bits
    done;
    let s = Array.unsafe_get t n + !carry in
    Array.unsafe_set t (n - 1) (s land limb_mask);
    Array.unsafe_set t n (s lsr limb_bits)
  done;
  (* t < 2m: one conditional subtraction brings it under m. *)
  if t.(n) > 0 || limbs_geq t m (n - 1) then begin
    let borrow = ref 0 in
    for j = 0 to n - 1 do
      let d = t.(j) - m.(j) - !borrow in
      dst.(j) <- d land limb_mask;
      borrow := if d < 0 then 1 else 0
    done
  end
  else Array.blit t 0 dst 0 n

(* [a] zero-extended to [n] limbs. *)
let widen n (a : t) =
  let w = Array.make n 0 in
  Array.blit a 0 w 0 (Array.length a);
  w

let mont_pow ~base ~exp ~modulus =
  let ctx = mont_of_modulus modulus in
  let n = ctx.n in
  (* Into Montgomery form once each, through [divmod]: xR mod m. *)
  let to_mont a = widen n (rem (shift_left a (limb_bits * n)) modulus) in
  let result =
    window_pow ~one:(to_mont one) ~mul:(mont_mul ctx) ~copy:Array.copy
      (to_mont (rem base modulus)) exp
  in
  (* And out: a Montgomery product with 1 multiplies by R^-1. *)
  mont_mul ctx result result (widen n one);
  normalize result

let mod_pow ~base ~exp ~modulus =
  if equal modulus one then zero
  else if is_zero exp then one
  else if bit modulus 0 then mont_pow ~base ~exp ~modulus
  else
    (* Even moduli (and 0, which raises [Division_by_zero] here) have no
       Montgomery form: reduce each product by division. *)
    window_pow ~one:(ref one) ~copy:(fun (a : t ref) -> ref !a)
      ~mul:(fun dst x y -> dst := mod_mul !x !y ~modulus)
      (ref (rem base modulus)) exp
    |> ( ! )

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let of_hex s =
  let v = ref zero in
  String.iter
    (fun c ->
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | '_' | ' ' -> -1
        | _ -> invalid_arg "Bignum.of_hex"
      in
      if d >= 0 then v := add (shift_left !v 4) (of_int d))
    s;
  !v

let to_hex (a : t) =
  if is_zero a then "0"
  else begin
    let nibbles = (num_bits a + 3) / 4 in
    let buf = Buffer.create nibbles in
    for i = nibbles - 1 downto 0 do
      let limb = (i * 4) / limb_bits and off = (i * 4) mod limb_bits in
      let v =
        (a.(limb) lsr off)
        lor (if off > limb_bits - 4 && limb + 1 < Array.length a then a.(limb + 1) lsl (limb_bits - off) else 0)
      in
      Buffer.add_char buf "0123456789abcdef".[v land 0xf]
    done;
    (* strip leading zero nibble if the bit count wasn't a nibble multiple *)
    let s = Buffer.contents buf in
    let start = ref 0 in
    while !start < String.length s - 1 && s.[!start] = '0' do incr start done;
    String.sub s !start (String.length s - !start)
  end

(* Both conversions walk the value once, least significant end first,
   moving bits between bytes and limbs through one accumulator. *)
let of_bytes_be b =
  let len = Bytes.length b in
  let out = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and acc_bits = ref 0 and limb = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code (Bytes.get b i) lsl !acc_bits);
    acc_bits := !acc_bits + 8;
    if !acc_bits >= limb_bits then begin
      out.(!limb) <- !acc land limb_mask;
      incr limb;
      acc := !acc lsr limb_bits;
      acc_bits := !acc_bits - limb_bits
    end
  done;
  if !acc_bits > 0 then out.(!limb) <- !acc;
  normalize out

let to_bytes_be ?size (a : t) =
  let needed = (num_bits a + 7) / 8 in
  let size = match size with None -> max needed 1 | Some s -> s in
  if needed > size then invalid_arg "Bignum.to_bytes_be: value too large";
  let out = Bytes.make size '\000' in
  let acc = ref 0 and acc_bits = ref 0 and limb = ref 0 in
  for i = size - 1 downto size - needed do
    if !acc_bits < 8 && !limb < Array.length a then begin
      acc := !acc lor (a.(!limb) lsl !acc_bits);
      incr limb;
      acc_bits := !acc_bits + limb_bits
    end;
    Bytes.set out i (Char.unsafe_chr (!acc land 0xff));
    acc := !acc lsr 8;
    acc_bits := !acc_bits - 8
  done;
  out

let random rng ~bits =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let b = Util.Rng.bytes rng nbytes in
    (* Mask excess high bits. *)
    let excess = (nbytes * 8) - bits in
    if excess > 0 then
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xff lsr excess)));
    of_bytes_be b
  end

let rec random_below rng bound =
  if is_zero bound then invalid_arg "Bignum.random_below: zero bound";
  let candidate = random rng ~bits:(num_bits bound) in
  if compare candidate bound < 0 then candidate else random_below rng bound

let is_probable_prime ?(rounds = 20) rng n =
  if compare n two < 0 then false
  else if compare n (of_int 4) < 0 then true (* 2 and 3 *)
  else if not (bit n 0) then false
  else begin
    (* n - 1 = d * 2^s with d odd *)
    let n_minus_1 = sub n one in
    let s = ref 0 in
    let d = ref n_minus_1 in
    while not (bit !d 0) do
      d := shift_right !d 1;
      incr s
    done;
    let witness a =
      let x = ref (mod_pow ~base:a ~exp:!d ~modulus:n) in
      if equal !x one || equal !x n_minus_1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to !s - 1 do
             x := mod_mul !x !x ~modulus:n;
             if equal !x n_minus_1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec trial k =
      if k = 0 then true
      else
        let a = add two (random_below rng (sub n (of_int 3))) in
        if witness a then false else trial (k - 1)
    in
    trial rounds
  end

let pp ppf a = Format.fprintf ppf "0x%s" (to_hex a)
