(* Unit and property tests for the crypto substrate. *)

let hex = Util.Bytesutil.of_hex
let to_hex = Util.Bytesutil.to_hex

let check_hex msg expected actual = Alcotest.(check string) msg expected (to_hex actual)

(* ------------------------------------------------------------------ *)
(* DES known-answer tests                                              *)
(* ------------------------------------------------------------------ *)

let des_classic () =
  (* The walk-through vector from every DES tutorial. *)
  let k = Crypto.Des.schedule (hex "133457799bbcdff1") in
  let ct = Crypto.Des.encrypt_block k (hex "0123456789abcdef") in
  check_hex "classic encrypt" "85e813540f0ab405" ct;
  check_hex "classic decrypt" "0123456789abcdef" (Crypto.Des.decrypt_block k ct)

let des_nbs_variable_plaintext () =
  (* First entries of the NBS variable-plaintext known-answer test. *)
  let k = Crypto.Des.schedule (hex "0101010101010101") in
  check_hex "pt 80.." "95f8a5e5dd31d900"
    (Crypto.Des.encrypt_block k (hex "8000000000000000"));
  check_hex "pt 40.." "dd7f121ca5015619"
    (Crypto.Des.encrypt_block k (hex "4000000000000000"));
  check_hex "pt 20.." "2e8653104f3834ea"
    (Crypto.Des.encrypt_block k (hex "2000000000000000"));
  check_hex "pt 00.." "8ca64de9c1b123a7"
    (Crypto.Des.encrypt_block k (hex "0000000000000000"))

let des_roundtrip_prop =
  QCheck.Test.make ~name:"des roundtrip" ~count:200
    QCheck.(pair (bytes_of_size (QCheck.Gen.return 8)) (bytes_of_size (QCheck.Gen.return 8)))
    (fun (key, block) ->
      let k = Crypto.Des.schedule key in
      Bytes.equal (Crypto.Des.decrypt_block k (Crypto.Des.encrypt_block k block)) block)

let des_parity () =
  let k = Crypto.Des.fix_parity (hex "0000000000000000") in
  check_hex "parity of zero key" "0101010101010101" k;
  Alcotest.(check bool) "weak" true (Crypto.Des.is_weak (hex "0101010101010101"));
  Alcotest.(check bool) "not weak" false (Crypto.Des.is_weak (hex "133457799bbcdff1"))

let des_nbs_variable_key () =
  (* First entries of the NBS variable-key known-answer test: key has one
     non-parity bit set, plaintext all-zero. *)
  let zero = hex "0000000000000000" in
  List.iter
    (fun (k, expect) ->
      check_hex ("key " ^ k) expect
        (Crypto.Des.encrypt_block (Crypto.Des.schedule (hex k)) zero);
      check_hex ("key " ^ k ^ " decrypt") "0000000000000000"
        (Crypto.Des.decrypt_block (Crypto.Des.schedule (hex k)) (hex expect)))
    [ ("8001010101010101", "95a8d72813daa94d");
      ("4001010101010101", "0eec1487dd8c26d5");
      ("2001010101010101", "7ad16ffb79c45926");
      ("1001010101010101", "d3746294ca6a6cf3") ]

let des_nbs_substitution () =
  (* First entries of the NBS substitution-table known-answer test. *)
  List.iter
    (fun (k, p, c) ->
      let sched = Crypto.Des.schedule (hex k) in
      check_hex ("encrypt " ^ p) c (Crypto.Des.encrypt_block sched (hex p));
      check_hex ("decrypt " ^ c) p (Crypto.Des.decrypt_block sched (hex c)))
    [ ("7ca110454a1a6e57", "01a1d6d039776742", "690f5b0d9a26939b");
      ("0131d9619dc1376e", "5cd54ca83def57da", "7a389d10354bd271");
      ("07a1133e4a0b2686", "0248d43806f67172", "868ebb51cab4599a");
      ("3849674c2602319e", "51454b582ddf440a", "7178876e01f19b2a") ]

let des_parity_ignored_prop =
  (* The schedule must ignore parity bits (the low bit of each byte), so a
     key and its parity-fixed form — and the weak-key variants thereof —
     encipher identically. *)
  QCheck.Test.make ~name:"schedule ignores parity bits" ~count:200
    QCheck.(pair (bytes_of_size (QCheck.Gen.return 8)) (bytes_of_size (QCheck.Gen.return 8)))
    (fun (key, block) ->
      let k1 = Crypto.Des.schedule key in
      let k2 = Crypto.Des.schedule (Crypto.Des.fix_parity key) in
      Bytes.equal (Crypto.Des.encrypt_block k1 block) (Crypto.Des.encrypt_block k2 block))

let suite_des =
  [ Alcotest.test_case "classic vector" `Quick des_classic;
    Alcotest.test_case "nbs variable plaintext" `Quick des_nbs_variable_plaintext;
    Alcotest.test_case "nbs variable key" `Quick des_nbs_variable_key;
    Alcotest.test_case "nbs substitution table" `Quick des_nbs_substitution;
    Alcotest.test_case "parity and weak keys" `Quick des_parity;
    QCheck_alcotest.to_alcotest des_parity_ignored_prop;
    QCheck_alcotest.to_alcotest des_roundtrip_prop ]

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let key8 = hex "133457799bbcdff1"
let sched = Crypto.Des.schedule key8

let gen_payload = QCheck.Gen.(map Bytes.of_string (string_size ~gen:printable (int_range 0 200)))

let mode_roundtrip name enc dec =
  QCheck.Test.make ~name ~count:200 (QCheck.make gen_payload) (fun payload ->
      let padded = Crypto.Mode.pad payload in
      let ct = enc padded in
      match Crypto.Mode.unpad (dec ct) with
      | Some back -> Bytes.equal back payload
      | None -> false)

let iv = hex "0f1571c947d9e859"

let cbc_prefix_property =
  (* The property the V5 KRB_PRIV chosen-plaintext attack exploits: with a
     fixed IV, the encryption of a block-aligned prefix is a prefix of the
     encryption. *)
  QCheck.Test.make ~name:"cbc prefix property (the attack's lever)" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (a, b) ->
      let rng = Util.Rng.create 42L in
      let part1 = Util.Rng.bytes rng (8 * a) and part2 = Util.Rng.bytes rng (8 * b) in
      let whole = Bytes.cat part1 part2 in
      let ct_whole = Crypto.Mode.cbc_encrypt sched ~iv whole in
      let ct_prefix = Crypto.Mode.cbc_encrypt sched ~iv part1 in
      Bytes.equal ct_prefix (Bytes.sub ct_whole 0 (Bytes.length part1)))

let pcbc_blockswap () =
  (* PCBC's documented flaw: swapping two interior ciphertext blocks garbles
     only those blocks; later blocks decrypt correctly (the xor of garbles
     cancels). This is why V4 swapped PCBC out in V5. *)
  let rng = Util.Rng.create 7L in
  let pt = Util.Rng.bytes rng 48 in
  let ct = Crypto.Mode.pcbc_encrypt sched ~iv pt in
  let swapped = Bytes.copy ct in
  Bytes.blit ct 8 swapped 16 8;
  Bytes.blit ct 16 swapped 8 8;
  let dec = Crypto.Mode.pcbc_decrypt sched ~iv swapped in
  Alcotest.(check bool) "blocks 1,2 garbled"
    false
    (Bytes.equal (Bytes.sub dec 8 16) (Bytes.sub pt 8 16));
  Alcotest.(check bool) "tail blocks survive the swap"
    true
    (Bytes.equal (Bytes.sub dec 32 16) (Bytes.sub pt 32 16))

let cbc_blockswap_propagates () =
  (* Contrast: in CBC a swap garbles the swapped blocks and their successors
     only locally too, but the *xor-cancellation* of PCBC (tail fully intact
     including block 3) does not hold for CBC block 3. *)
  let rng = Util.Rng.create 8L in
  let pt = Util.Rng.bytes rng 48 in
  let ct = Crypto.Mode.cbc_encrypt sched ~iv pt in
  let swapped = Bytes.copy ct in
  Bytes.blit ct 8 swapped 16 8;
  Bytes.blit ct 16 swapped 8 8;
  let dec = Crypto.Mode.cbc_decrypt sched ~iv swapped in
  Alcotest.(check bool) "block 3 garbled under cbc"
    false
    (Bytes.equal (Bytes.sub dec 24 8) (Bytes.sub pt 24 8))

let pad_unpad_prop =
  QCheck.Test.make ~name:"pad/unpad roundtrip" ~count:500 (QCheck.make gen_payload)
    (fun payload ->
      match Crypto.Mode.unpad (Crypto.Mode.pad payload) with
      | Some b -> Bytes.equal b payload
      | None -> false)

let suite_modes =
  [ QCheck_alcotest.to_alcotest
      (mode_roundtrip "ecb roundtrip" (Crypto.Mode.ecb_encrypt sched) (Crypto.Mode.ecb_decrypt sched));
    QCheck_alcotest.to_alcotest
      (mode_roundtrip "cbc roundtrip" (Crypto.Mode.cbc_encrypt sched ~iv) (Crypto.Mode.cbc_decrypt sched ~iv));
    QCheck_alcotest.to_alcotest
      (mode_roundtrip "pcbc roundtrip" (Crypto.Mode.pcbc_encrypt sched ~iv) (Crypto.Mode.pcbc_decrypt sched ~iv));
    QCheck_alcotest.to_alcotest cbc_prefix_property;
    Alcotest.test_case "pcbc block swap locality" `Quick pcbc_blockswap;
    Alcotest.test_case "cbc block swap propagates" `Quick cbc_blockswap_propagates;
    QCheck_alcotest.to_alcotest pad_unpad_prop ]

(* ------------------------------------------------------------------ *)
(* Equivalence: the table-driven core and the streaming modes must     *)
(* compute exactly what the original permute-per-round code computed.  *)
(* ------------------------------------------------------------------ *)

let block_equiv_prop =
  QCheck.Test.make ~name:"table-driven DES matches reference" ~count:300
    QCheck.(pair (bytes_of_size (Gen.return 8)) (bytes_of_size (Gen.return 8)))
    (fun (key, block) ->
      let k = Crypto.Des.schedule key in
      let ct = Crypto.Des.encrypt_block k block in
      Bytes.equal ct (Crypto.Des.Reference.encrypt_block key block)
      && Bytes.equal block (Crypto.Des.Reference.decrypt_block key ct)
      && Bytes.equal block (Crypto.Des.decrypt_block k ct))

let i64_entry_points () =
  let rng = Util.Rng.create 99L in
  for _ = 1 to 100 do
    let k = Crypto.Des.schedule (Util.Rng.bytes rng 8) in
    let block = Util.Rng.bytes rng 8 in
    let v = Bytes.get_int64_be block 0 in
    let ct = Crypto.Des.encrypt_block k block in
    Alcotest.(check int64) "encrypt_block_i64 agrees with bytes entry point"
      (Bytes.get_int64_be ct 0)
      (Crypto.Des.encrypt_block_i64 k v);
    Alcotest.(check int64) "decrypt_block_i64 inverts" v
      (Crypto.Des.decrypt_block_i64 k (Bytes.get_int64_be ct 0))
  done

(* Reference implementations of the three modes, composed block-by-block
   from [Des.Reference] exactly as the original allocating code did. Each
   takes the raw 8-byte key, which the reference reschedules per block. *)

let xor8 a b =
  let out = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set out i
      (Char.chr (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i)))
  done;
  out

let ref_ecb_encrypt k pt =
  let out = Bytes.create (Bytes.length pt) in
  for i = 0 to (Bytes.length pt / 8) - 1 do
    let c = Crypto.Des.Reference.encrypt_block k (Bytes.sub pt (i * 8) 8) in
    Bytes.blit c 0 out (i * 8) 8
  done;
  out

let ref_cbc_encrypt k ~iv pt =
  let out = Bytes.create (Bytes.length pt) in
  let chain = ref iv in
  for i = 0 to (Bytes.length pt / 8) - 1 do
    let p = Bytes.sub pt (i * 8) 8 in
    let c = Crypto.Des.Reference.encrypt_block k (xor8 p !chain) in
    Bytes.blit c 0 out (i * 8) 8;
    chain := c
  done;
  out

let ref_pcbc_encrypt k ~iv pt =
  let out = Bytes.create (Bytes.length pt) in
  let chain = ref iv in
  for i = 0 to (Bytes.length pt / 8) - 1 do
    let p = Bytes.sub pt (i * 8) 8 in
    let c = Crypto.Des.Reference.encrypt_block k (xor8 p !chain) in
    Bytes.blit c 0 out (i * 8) 8;
    chain := xor8 p c
  done;
  out

let ref_ecb_decrypt k ct =
  let out = Bytes.create (Bytes.length ct) in
  for i = 0 to (Bytes.length ct / 8) - 1 do
    let p = Crypto.Des.Reference.decrypt_block k (Bytes.sub ct (i * 8) 8) in
    Bytes.blit p 0 out (i * 8) 8
  done;
  out

let ref_cbc_decrypt k ~iv ct =
  let out = Bytes.create (Bytes.length ct) in
  let chain = ref iv in
  for i = 0 to (Bytes.length ct / 8) - 1 do
    let c = Bytes.sub ct (i * 8) 8 in
    let p = xor8 (Crypto.Des.Reference.decrypt_block k c) !chain in
    Bytes.blit p 0 out (i * 8) 8;
    chain := c
  done;
  out

let ref_pcbc_decrypt k ~iv ct =
  let out = Bytes.create (Bytes.length ct) in
  let chain = ref iv in
  for i = 0 to (Bytes.length ct / 8) - 1 do
    let c = Bytes.sub ct (i * 8) 8 in
    let p = xor8 (Crypto.Des.Reference.decrypt_block k c) !chain in
    Bytes.blit p 0 out (i * 8) 8;
    chain := xor8 p c
  done;
  out

(* Every [_into] primitive of a raw key and IV, paired with its
   block-by-block reference composition. *)
let modes_with_reference raw ~iv =
  let k = Crypto.Des.schedule raw in
  [ ("ecb encrypt", Crypto.Mode.ecb_encrypt_into k, ref_ecb_encrypt raw);
    ("ecb decrypt", Crypto.Mode.ecb_decrypt_into k, ref_ecb_decrypt raw);
    ("cbc encrypt", Crypto.Mode.cbc_encrypt_into k ~iv, ref_cbc_encrypt raw ~iv);
    ("cbc decrypt", Crypto.Mode.cbc_decrypt_into k ~iv, ref_cbc_decrypt raw ~iv);
    ("pcbc encrypt", Crypto.Mode.pcbc_encrypt_into k ~iv, ref_pcbc_encrypt raw ~iv);
    ("pcbc decrypt", Crypto.Mode.pcbc_decrypt_into k ~iv, ref_pcbc_decrypt raw ~iv) ]

(* Random keys, IVs and 0-7 blocks, out of place and in place (dst == src).
   Decryption runs two blocks at a time, so odd counts also reach the
   single block left over after the pairs. *)
let modes_match_reference_prop =
  QCheck.Test.make ~name:"modes match reference composition, 0-7 blocks" ~count:300
    QCheck.(
      triple (bytes_of_size (Gen.return 8)) (bytes_of_size (Gen.return 8))
        (bytes_of_size Gen.(map (fun n -> 8 * n) (int_range 0 7))))
    (fun (key, iv, input) ->
      List.for_all
        (fun (_, into, reference) ->
          let expect = reference input in
          let out = Bytes.create (Bytes.length input) in
          into ~src:input ~dst:out;
          let buf = Bytes.copy input in
          into ~src:buf ~dst:buf;
          Bytes.equal expect out && Bytes.equal expect buf)
        (modes_with_reference key ~iv))

let blocks_counted_once_each () =
  (* One count per block on the single-block path and the two-block
     decryption path alike. *)
  for n = 0 to 7 do
    let buf = Bytes.make (8 * n) 'b' in
    List.iter
      (fun (name, into, _) ->
        let before = Crypto.Des.blocks_performed () in
        into ~src:buf ~dst:buf;
        Alcotest.(check int)
          (Printf.sprintf "%s, %d blocks" name n)
          n
          (Crypto.Des.blocks_performed () - before))
      (modes_with_reference key8 ~iv)
  done

let weak_and_semi_weak =
  List.map hex
    [ "0101010101010101"; "fefefefefefefefe"; "e0e0e0e0f1f1f1f1";
      "1f1f1f1f0e0e0e0e"; "011f011f010e010e"; "1f011f010e010e01";
      "01e001e001f101f1"; "e001e001f101f101"; "01fe01fe01fe01fe";
      "fe01fe01fe01fe01"; "1fe01fe00ef10ef1"; "e01fe01ff10ef10e";
      "1ffe1ffe0efe0efe"; "fe1ffe1ffe0efe0e"; "e0fee0fef1fef1fe";
      "fee0fee0fef1fef1" ]

let schedule_matches_reference k =
  Crypto.Des.subkeys (Crypto.Des.schedule k) = Crypto.Des.Reference.schedule k

let schedule_equiv_prop =
  QCheck.Test.make ~name:"table schedule matches bit-by-bit schedule" ~count:300
    QCheck.(bytes_of_size (Gen.return 8))
    schedule_matches_reference

let schedule_weak_keys () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (to_hex k ^ " is weak") true (Crypto.Des.is_weak k);
      Alcotest.(check bool) (to_hex k ^ " schedule") true (schedule_matches_reference k))
    weak_and_semi_weak

(* The weak and semi-weak keys' C and D halves are all zeros, all ones or
   alternating, so their packed round words reach both ends of the range:
   every chunk bit clear, and every chunk bit set. Random keys almost never
   do, and the ends are where a wrong offset or shift in the packing
   shows. The case above checks these keys' schedules; here every mode
   over three blocks, out of place and in place, must match the
   reference. *)
let weak_keys_every_mode () =
  let pt = hex "0123456789abcdeffedcba9876543210a5a5a5a55a5a5a5a" in
  List.iter
    (fun raw ->
      List.iter
        (fun (name, into, reference) ->
          let expect = reference pt in
          let out = Bytes.create 24 in
          into ~src:pt ~dst:out;
          let buf = Bytes.copy pt in
          into ~src:buf ~dst:buf;
          Alcotest.(check string) (to_hex raw ^ " " ^ name) (to_hex expect) (to_hex out);
          Alcotest.(check string) (to_hex raw ^ " " ^ name ^ " in place") (to_hex expect)
            (to_hex buf))
        (modes_with_reference raw ~iv))
    weak_and_semi_weak

let check_buf name expect got =
  Alcotest.(check bool) name true (Bytes.equal expect got)

let modes_equiv_all_lengths () =
  (* Every block-aligned length from 8 to 1024: the streaming modes agree
     with the reference composition, decryption inverts, and the in-place
     [_into] form (dst == src) computes the same bytes. *)
  let rng = Util.Rng.create 4242L in
  let raw = Crypto.Des.random_key rng in
  let k = Crypto.Des.schedule raw in
  let iv = Util.Rng.bytes rng 8 in
  let len = ref 8 in
  while !len <= 1024 do
    let pt = Util.Rng.bytes rng !len in
    let tag mode = Printf.sprintf "%s len=%d" mode !len in
    let ct_ecb = Crypto.Mode.ecb_encrypt k pt in
    check_buf (tag "ecb equiv") (ref_ecb_encrypt raw pt) ct_ecb;
    check_buf (tag "ecb roundtrip") pt (Crypto.Mode.ecb_decrypt k ct_ecb);
    let buf = Bytes.copy pt in
    Crypto.Mode.ecb_encrypt_into k ~src:buf ~dst:buf;
    check_buf (tag "ecb in-place encrypt") ct_ecb buf;
    Crypto.Mode.ecb_decrypt_into k ~src:buf ~dst:buf;
    check_buf (tag "ecb in-place decrypt") pt buf;
    let ct_cbc = Crypto.Mode.cbc_encrypt k ~iv pt in
    check_buf (tag "cbc equiv") (ref_cbc_encrypt raw ~iv pt) ct_cbc;
    check_buf (tag "cbc roundtrip") pt (Crypto.Mode.cbc_decrypt k ~iv ct_cbc);
    let buf = Bytes.copy pt in
    Crypto.Mode.cbc_encrypt_into k ~iv ~src:buf ~dst:buf;
    check_buf (tag "cbc in-place encrypt") ct_cbc buf;
    Crypto.Mode.cbc_decrypt_into k ~iv ~src:buf ~dst:buf;
    check_buf (tag "cbc in-place decrypt") pt buf;
    let ct_pcbc = Crypto.Mode.pcbc_encrypt k ~iv pt in
    check_buf (tag "pcbc equiv") (ref_pcbc_encrypt raw ~iv pt) ct_pcbc;
    check_buf (tag "pcbc roundtrip") pt (Crypto.Mode.pcbc_decrypt k ~iv ct_pcbc);
    let buf = Bytes.copy pt in
    Crypto.Mode.pcbc_encrypt_into k ~iv ~src:buf ~dst:buf;
    check_buf (tag "pcbc in-place encrypt") ct_pcbc buf;
    Crypto.Mode.pcbc_decrypt_into k ~iv ~src:buf ~dst:buf;
    check_buf (tag "pcbc in-place decrypt") pt buf;
    len := !len + 8
  done

let into_rejects_bad_lengths () =
  let k = sched in
  let raises f = match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "non-multiple of 8" true
    (raises (fun () ->
         Crypto.Mode.ecb_encrypt_into k ~src:(Bytes.create 12) ~dst:(Bytes.create 12)));
  Alcotest.(check bool) "length mismatch" true
    (raises (fun () ->
         Crypto.Mode.cbc_encrypt_into k ~iv ~src:(Bytes.create 16) ~dst:(Bytes.create 8)))

let suite_equiv =
  [ QCheck_alcotest.to_alcotest block_equiv_prop;
    Alcotest.test_case "i64 entry points" `Quick i64_entry_points;
    Alcotest.test_case "modes equiv + roundtrip, lengths 8..1024" `Quick
      modes_equiv_all_lengths;
    Alcotest.test_case "_into rejects bad lengths" `Quick into_rejects_bad_lengths;
    QCheck_alcotest.to_alcotest modes_match_reference_prop;
    Alcotest.test_case "one block count per block" `Quick blocks_counted_once_each;
    QCheck_alcotest.to_alcotest schedule_equiv_prop;
    Alcotest.test_case "weak and semi-weak key schedules" `Quick schedule_weak_keys;
    Alcotest.test_case "weak and semi-weak keys in every mode" `Quick weak_keys_every_mode ]

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let crc_known () =
  (* Standard check value: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int) "check value" 0xCBF43926
    (Crypto.Crc32.bytes_digest (Bytes.of_string "123456789"));
  Alcotest.(check int) "empty" 0 (Crypto.Crc32.bytes_digest Bytes.empty)

let crc_linearity =
  (* crc(a xor b xor c) = crc(a) xor crc(b) xor crc(c) for equal lengths:
     the linearity the paper's cut-and-paste forging rests on. *)
  QCheck.Test.make ~name:"crc32 linearity" ~count:200 (QCheck.int_range 1 64)
    (fun n ->
      let rng = Util.Rng.create (Int64.of_int n) in
      let a = Util.Rng.bytes rng n and b = Util.Rng.bytes rng n and c = Util.Rng.bytes rng n in
      let ( ^^ ) = Util.Bytesutil.xor in
      Crypto.Crc32.bytes_digest (a ^^ b ^^ c)
      = Crypto.Crc32.bytes_digest a lxor Crypto.Crc32.bytes_digest b
        lxor Crypto.Crc32.bytes_digest c)

let crc_forge_prop =
  QCheck.Test.make ~name:"crc32 forgery hits any target" ~count:300
    QCheck.(pair (make gen_payload) (int_bound 0xFFFFFF))
    (fun (prefix, seed) ->
      let target = (seed * 2654435761) land 0xFFFFFFFF in
      let patch = Crypto.Crc32.forge ~prefix ~target in
      Crypto.Crc32.bytes_digest (Bytes.cat prefix patch) = target)

let suite_crc =
  [ Alcotest.test_case "known vectors" `Quick crc_known;
    QCheck_alcotest.to_alcotest crc_linearity;
    QCheck_alcotest.to_alcotest crc_forge_prop ]

(* ------------------------------------------------------------------ *)
(* MD4                                                                 *)
(* ------------------------------------------------------------------ *)

let md4_rfc () =
  let check s expected =
    Alcotest.(check string) s expected (Crypto.Md4.hex_digest (Bytes.of_string s))
  in
  check "" "31d6cfe0d16ae931b73c59d7e0c089c0";
  check "a" "bde52cb31de33e46245e05fbdbd6fb24";
  check "abc" "a448017aaf21d8525fc10ae87aa6729d";
  check "message digest" "d9130a8164549fe818874806e1c7014b";
  check "abcdefghijklmnopqrstuvwxyz" "d79e1c308aa5bbcdeea8ed63df412da9";
  check "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
    "043f8582f241db351ce627e153e7f0e4";
  check
    "12345678901234567890123456789012345678901234567890123456789012345678901234567890"
    "e33b4ddc9c38f2199c3e7b164fcc0536"

let suite_md4 = [ Alcotest.test_case "rfc 1320 vectors" `Quick md4_rfc ]

(* ------------------------------------------------------------------ *)
(* string_to_key                                                       *)
(* ------------------------------------------------------------------ *)

let s2k_shape () =
  let k = Crypto.Str2key.derive "CHANGEME" in
  Alcotest.(check int) "8 bytes" 8 (Bytes.length k);
  Alcotest.(check bool) "parity fixed" true (Bytes.equal k (Crypto.Des.fix_parity k));
  Alcotest.(check bool) "not weak" false (Crypto.Des.is_weak k);
  Alcotest.(check bool) "deterministic" true
    (Bytes.equal k (Crypto.Str2key.derive "CHANGEME"));
  Alcotest.(check bool) "distinct passwords differ" false
    (Bytes.equal k (Crypto.Str2key.derive "changeme"))

let s2k_never_weak =
  QCheck.Test.make ~name:"derived keys never weak" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 24))
    (fun pw ->
      let k = Crypto.Str2key.derive pw in
      (not (Crypto.Des.is_weak k)) && Bytes.equal k (Crypto.Des.fix_parity k))

let suite_s2k =
  [ Alcotest.test_case "shape" `Quick s2k_shape; QCheck_alcotest.to_alcotest s2k_never_weak ]

(* ------------------------------------------------------------------ *)
(* Checksum dispatch                                                   *)
(* ------------------------------------------------------------------ *)

let checksum_classification () =
  Alcotest.(check bool) "crc32 weak" false (Crypto.Checksum.collision_proof Crc32);
  Alcotest.(check bool) "md4 strong" true (Crypto.Checksum.collision_proof Md4);
  Alcotest.(check bool) "md4-des strong" true (Crypto.Checksum.collision_proof Md4_des)

let checksum_forge () =
  let original = Bytes.of_string "legitimate TGS request body" in
  let tampered = Bytes.of_string "tampered! TGS request body with ENC-TKT-IN-SKEY" in
  (match Crypto.Checksum.forge_to_match Crc32 ~original ~tampered_prefix:tampered with
  | None -> Alcotest.fail "crc32 should be forgeable"
  | Some filler ->
      let forged = Bytes.cat tampered filler in
      Alcotest.(check bool) "forged crc matches" true
        (Util.Bytesutil.equal
           (Crypto.Checksum.compute Crc32 ~key:Bytes.empty original)
           (Crypto.Checksum.compute Crc32 ~key:Bytes.empty forged)));
  Alcotest.(check bool) "md4 not forgeable" true
    (Crypto.Checksum.forge_to_match Md4 ~original ~tampered_prefix:tampered = None)

let suite_checksum =
  [ Alcotest.test_case "classification" `Quick checksum_classification;
    Alcotest.test_case "forgery" `Quick checksum_forge ]

(* ------------------------------------------------------------------ *)
(* Bignum                                                              *)
(* ------------------------------------------------------------------ *)

let bn = Crypto.Bignum.of_int
let gen_small = QCheck.int_bound 1_000_000_000

let bignum_int_oracle =
  QCheck.Test.make ~name:"bignum agrees with int arithmetic" ~count:1000
    QCheck.(pair gen_small gen_small)
    (fun (a, b) ->
      let open Crypto.Bignum in
      let ( = ) = equal in
      add (bn a) (bn b) = bn (a + b)
      && mul (bn a) (bn b) = bn (a * b)
      && (b == 0
          || let q, r = divmod (bn a) (bn b) in
             q = bn (a / b) && r = bn (a mod b))
      && (a < b || sub (bn a) (bn b) = bn (a - b)))

let bignum_ring_axioms =
  QCheck.Test.make ~name:"bignum ring axioms at width" ~count:200
    QCheck.(triple (int_range 1 120) small_nat small_nat)
    (fun (bits, s1, s2) ->
      let rng = Util.Rng.create (Int64.of_int ((s1 * 65537) + s2)) in
      let open Crypto.Bignum in
      let a = random rng ~bits and b = random rng ~bits and c = random rng ~bits in
      equal (add a b) (add b a)
      && equal (mul a b) (mul b a)
      && equal (mul a (add b c)) (add (mul a b) (mul a c))
      && equal (sub (add a b) b) a)

let bignum_divmod_prop =
  QCheck.Test.make ~name:"divmod identity" ~count:200
    QCheck.(triple (int_range 1 200) small_nat small_nat)
    (fun (bits, s1, s2) ->
      let rng = Util.Rng.create (Int64.of_int ((s1 * 31337) + s2 + 1)) in
      let open Crypto.Bignum in
      let a = random rng ~bits in
      let b = add (random rng ~bits:(max 1 (bits / 2))) one in
      let q, r = divmod a b in
      equal a (add (mul q b) r) && compare r b < 0)

let bignum_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:300 (QCheck.int_range 0 300) (fun bits ->
      let rng = Util.Rng.create (Int64.of_int (bits + 99)) in
      let open Crypto.Bignum in
      let a = random rng ~bits:(max 1 bits) in
      equal a (of_hex (to_hex a)) && equal a (of_bytes_be (to_bytes_be a)))

let bignum_modpow () =
  let open Crypto.Bignum in
  (* 2^10 mod 1000 = 24 *)
  Alcotest.(check bool) "2^10 mod 1000" true
    (equal (mod_pow ~base:(bn 2) ~exp:(bn 10) ~modulus:(bn 1000)) (bn 24));
  (* Fermat: 7^(p-1) = 1 mod p for p = 1000003 *)
  Alcotest.(check bool) "fermat" true
    (equal (mod_pow ~base:(bn 7) ~exp:(bn 1_000_002) ~modulus:(bn 1_000_003)) one)

let bignum_primality () =
  let rng = Util.Rng.create 1234L in
  let open Crypto.Bignum in
  List.iter
    (fun p ->
      Alcotest.(check bool) (string_of_int p ^ " prime") true
        (is_probable_prime rng (bn p)))
    [ 2; 3; 5; 65521; 1048573; 16777213; 0xFFFFFC7; 1_000_003 ];
  List.iter
    (fun c ->
      Alcotest.(check bool) (string_of_int c ^ " composite") false
        (is_probable_prime rng (bn c)))
    [ 1; 4; 9; 65519 * 3; 1048573 * 7 ];
  (* Mersenne primes used by the DH groups. *)
  List.iter
    (fun e ->
      let p = sub (shift_left one e) one in
      Alcotest.(check bool) (Printf.sprintf "2^%d-1 prime" e) true
        (is_probable_prime rng p))
    [ 61; 89; 107; 127 ]

let suite_bignum =
  [ QCheck_alcotest.to_alcotest bignum_int_oracle;
    QCheck_alcotest.to_alcotest bignum_ring_axioms;
    QCheck_alcotest.to_alcotest bignum_divmod_prop;
    QCheck_alcotest.to_alcotest bignum_hex_roundtrip;
    Alcotest.test_case "modpow" `Quick bignum_modpow;
    Alcotest.test_case "primality" `Quick bignum_primality ]

(* ------------------------------------------------------------------ *)
(* DH and discrete log                                                 *)
(* ------------------------------------------------------------------ *)

let dh_agreement () =
  let rng = Util.Rng.create 5L in
  List.iter
    (fun grp ->
      let alice = Crypto.Dh.generate rng grp and bob = Crypto.Dh.generate rng grp in
      let s1 = Crypto.Dh.shared_secret grp alice bob.public in
      let s2 = Crypto.Dh.shared_secret grp bob alice.public in
      Alcotest.(check bool) (grp.name ^ " agreement") true (Crypto.Bignum.equal s1 s2);
      let k = Crypto.Dh.secret_to_key grp s1 in
      Alcotest.(check int) (grp.name ^ " key size") 8 (Bytes.length k))
    [ Crypto.Dh.toy_group ~bits:16; Crypto.Dh.toy_group ~bits:24;
      Crypto.Dh.toy_group ~bits:31; Crypto.Dh.mersenne_group ~exponent:61;
      Crypto.Dh.mersenne_group ~exponent:127 ]

let dh_toy_primes_are_prime () =
  let rng = Util.Rng.create 6L in
  List.iter
    (fun bits ->
      let grp = Crypto.Dh.toy_group ~bits in
      Alcotest.(check bool) (grp.name ^ " prime") true
        (Crypto.Bignum.is_probable_prime rng grp.p))
    [ 16; 20; 24; 28; 31; 36; 40 ]

let bsgs_cracks_toy () =
  let rng = Util.Rng.create 77L in
  List.iter
    (fun bits ->
      let grp = Crypto.Dh.toy_group ~bits in
      let kp = Crypto.Dh.generate rng grp in
      match Crypto.Dlog.baby_step_giant_step grp ~target:kp.public with
      | None -> Alcotest.fail (grp.name ^ ": bsgs failed")
      | Some x ->
          Alcotest.(check bool)
            (grp.name ^ " recovered exponent reproduces public value") true
            (Crypto.Bignum.equal
               (Crypto.Bignum.mod_pow ~base:grp.g ~exp:x ~modulus:grp.p)
               kp.public))
    [ 16; 20; 24 ]

let rho_cracks_toy () =
  let rng = Util.Rng.create 99L in
  let grp = Crypto.Dh.toy_group ~bits:24 in
  let kp = Crypto.Dh.generate rng grp in
  let rec attempt n =
    if n = 0 then Alcotest.fail "pollard rho kept failing"
    else
      match Crypto.Dlog.pollard_rho rng grp ~target:kp.public with
      | Some x ->
          Alcotest.(check bool) "rho exponent reproduces public value" true
            (Crypto.Bignum.equal
               (Crypto.Bignum.mod_pow ~base:grp.g ~exp:x ~modulus:grp.p)
               kp.public)
      | None -> attempt (n - 1)
  in
  attempt 5

let kangaroo_cracks_short_exponents () =
  (* A 127-bit modulus is no shelter for a 20-bit secret exponent. *)
  let grp = Crypto.Dh.mersenne_group ~exponent:127 in
  let rng = Util.Rng.create 0x6a6aL in
  let rec attempt n =
    if n = 0 then Alcotest.fail "kangaroo kept missing"
    else begin
      let x = 1 + Util.Rng.int rng ((1 lsl 20) - 1) in
      let target =
        Crypto.Bignum.mod_pow ~base:grp.g ~exp:(Crypto.Bignum.of_int x) ~modulus:grp.p
      in
      match Crypto.Dlog.kangaroo grp ~target ~max_exp:(1 lsl 20) with
      | Some found ->
          Alcotest.(check bool) "exponent recovered" true
            (Crypto.Bignum.equal found (Crypto.Bignum.of_int x))
      | None -> attempt (n - 1)
    end
  in
  attempt 6

let suite_dh =
  [ Alcotest.test_case "agreement" `Quick dh_agreement;
    Alcotest.test_case "kangaroo cracks short exponents" `Slow
      kangaroo_cracks_short_exponents;
    Alcotest.test_case "toy primes are prime" `Quick dh_toy_primes_are_prime;
    Alcotest.test_case "bsgs cracks toy groups" `Quick bsgs_cracks_toy;
    Alcotest.test_case "pollard rho cracks toy group" `Slow rho_cracks_toy ]

(* ------------------------------------------------------------------ *)
(* PRF / key derivation                                                *)
(* ------------------------------------------------------------------ *)

let prf_tests () =
  let rng = Util.Rng.create 11L in
  let multi = Crypto.Des.random_key rng in
  let c = Util.Rng.bytes rng 8 and s = Util.Rng.bytes rng 8 in
  let k1 = Crypto.Prf.negotiate_session_key ~multi ~client_part:c ~server_part:s in
  let k2 = Crypto.Prf.negotiate_session_key ~multi ~client_part:c ~server_part:s in
  Alcotest.(check bool) "deterministic" true (Bytes.equal k1 k2);
  let k3 = Crypto.Prf.negotiate_session_key ~multi ~client_part:s ~server_part:c in
  Alcotest.(check bool) "xor symmetric in parts" true (Bytes.equal k1 k3);
  let t1 = Crypto.Prf.tag_key ~tag:"login" multi and t2 = Crypto.Prf.tag_key ~tag:"tgs" multi in
  Alcotest.(check bool) "tags separate keys" false (Bytes.equal t1 t2);
  Alcotest.(check bool) "tagged differs from base" false (Bytes.equal t1 multi)

let suite_prf = [ Alcotest.test_case "negotiation and tagging" `Quick prf_tests ]

(* ------------------------------------------------------------------ *)
(* Deeper algorithm properties                                         *)
(* ------------------------------------------------------------------ *)

let complement b = Bytes.map (fun c -> Char.chr (lnot (Char.code c) land 0xff)) b

let des_complementation =
  (* The classic DES complementation property: E_~k(~p) = ~E_k(p). A strong
     correctness check — it only holds if the whole Feistel/key-schedule
     pipeline is right. *)
  QCheck.Test.make ~name:"des complementation property" ~count:200
    QCheck.(pair (bytes_of_size (QCheck.Gen.return 8)) (bytes_of_size (QCheck.Gen.return 8)))
    (fun (key, pt) ->
      let c1 = Crypto.Des.encrypt_block (Crypto.Des.schedule key) pt in
      let c2 =
        Crypto.Des.encrypt_block (Crypto.Des.schedule (complement key)) (complement pt)
      in
      Bytes.equal (complement c1) c2)

let des_avalanche =
  (* Flipping one plaintext bit flips a lot of ciphertext bits (on average
     half; we assert a sane lower bound). *)
  QCheck.Test.make ~name:"des avalanche" ~count:100
    QCheck.(pair (bytes_of_size (QCheck.Gen.return 8)) (int_bound 63))
    (fun (pt, bit) ->
      let k = Crypto.Des.schedule (hex "8f3b2ac51d9e6074") in
      let pt' = Bytes.copy pt in
      let byte = bit / 8 and off = bit mod 8 in
      Bytes.set pt' byte (Char.chr (Char.code (Bytes.get pt' byte) lxor (1 lsl off)));
      let c1 = Crypto.Des.encrypt_block k pt and c2 = Crypto.Des.encrypt_block k pt' in
      let diff = ref 0 in
      for i = 0 to 7 do
        let x = Char.code (Bytes.get c1 i) lxor Char.code (Bytes.get c2 i) in
        for j = 0 to 7 do
          if (x lsr j) land 1 = 1 then incr diff
        done
      done;
      !diff >= 10 (* far above chance for a broken implementation *))

let md4_padding_boundaries () =
  (* Lengths around the 55/56/64-byte padding boundaries are the classic
     place paddings go wrong; check self-consistency and distinctness. *)
  let digests =
    List.map
      (fun n -> Crypto.Md4.hex_digest (Bytes.make n 'a'))
      [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 121 ]
  in
  let uniq = List.sort_uniq compare digests in
  Alcotest.(check int) "all distinct" (List.length digests) (List.length uniq);
  (* And a known vector straddling one boundary: 56 a's. *)
  Alcotest.(check string) "56 a's stable"
    (Crypto.Md4.hex_digest (Bytes.make 56 'a'))
    (Crypto.Md4.hex_digest (Bytes.cat (Bytes.make 28 'a') (Bytes.make 28 'a')))

let crc_forge_state_prop =
  (* The register-steering primitive behind the KRB_SAFE substitution:
     advancing from any state over the patch lands exactly on the target
     state. *)
  QCheck.Test.make ~name:"crc32 forge_state" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 40)) (string_of_size (QCheck.Gen.int_range 0 40)))
    (fun (a, b) ->
      let sa = Crypto.Crc32.update Crypto.Crc32.init (Bytes.of_string a) in
      let sb = Crypto.Crc32.update Crypto.Crc32.init (Bytes.of_string b) in
      let patch = Crypto.Crc32.forge_state ~from_state:sa ~to_state:sb in
      Crypto.Crc32.update sa patch = sb)

let bignum_shift_props =
  QCheck.Test.make ~name:"bignum shifts" ~count:300
    QCheck.(pair (int_range 0 120) (int_range 0 90))
    (fun (bits, sh) ->
      let rng = Util.Rng.create (Int64.of_int ((bits * 1000) + sh)) in
      let open Crypto.Bignum in
      let a = random rng ~bits:(max 1 bits) in
      equal (shift_right (shift_left a sh) sh) a
      && equal (shift_left a sh) (mul a (mod_pow ~base:two ~exp:(of_int sh) ~modulus:(shift_left one 400))))

let bignum_gcd_props =
  QCheck.Test.make ~name:"bignum gcd divides both" ~count:200
    QCheck.(pair (int_range 1 100000) (int_range 1 100000))
    (fun (a, b) ->
      let open Crypto.Bignum in
      let g = gcd (of_int a) (of_int b) in
      match to_int_opt g with
      | Some gi -> gi > 0 && a mod gi = 0 && b mod gi = 0
      | None -> false)

let dh_public_in_range =
  QCheck.Test.make ~name:"dh public values lie in (1, p)" ~count:50
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Util.Rng.create (Int64.of_int (seed + 3)) in
      let grp = Crypto.Dh.toy_group ~bits:31 in
      let kp = Crypto.Dh.generate rng grp in
      Crypto.Bignum.compare kp.public grp.p < 0
      && Crypto.Bignum.compare kp.public Crypto.Bignum.one > 0)

let suite_deep =
  [ QCheck_alcotest.to_alcotest des_complementation;
    QCheck_alcotest.to_alcotest des_avalanche;
    Alcotest.test_case "md4 padding boundaries" `Quick md4_padding_boundaries;
    QCheck_alcotest.to_alcotest crc_forge_state_prop;
    QCheck_alcotest.to_alcotest bignum_shift_props;
    QCheck_alcotest.to_alcotest bignum_gcd_props;
    QCheck_alcotest.to_alcotest dh_public_in_range ]

(* ------------------------------------------------------------------ *)
(* Kernels against the definitions they replaced                       *)
(* ------------------------------------------------------------------ *)

(* The bit-loop parity, the list-based weak-key test, the closure-based
   MD4 and the per-byte Bignum conversions, as they stood before the
   kernels replaced them. They share no code with the library's versions,
   so agreement is evidence about the kernels. *)
module Oracle = struct
  let fix_parity k =
    Bytes.map
      (fun ch ->
        let c = Char.code ch in
        let ones = ref 0 in
        for bit = 1 to 7 do
          if (c lsr bit) land 1 = 1 then incr ones
        done;
        Char.chr ((c land 0xFE) lor if !ones mod 2 = 0 then 1 else 0))
      k

  let is_weak k =
    let k = fix_parity k in
    List.exists (fun w -> Bytes.equal w k) weak_and_semi_weak

  let md4_sub b ~pos ~len =
    let mask = 0xFFFFFFFF in
    let ( +% ) a b = (a + b) land mask in
    let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask in
    let f x y z = (x land y) lor (lnot x land z land mask) in
    let g x y z = (x land y) lor (x land z) lor (y land z) in
    let h x y z = x lxor y lxor z in
    let msg =
      let padlen =
        let r = (len + 1) mod 64 in
        if r <= 56 then 56 - r + 1 else 64 - r + 56 + 1
      in
      let out = Bytes.create (len + padlen + 8) in
      Bytes.blit b pos out 0 len;
      Bytes.set out len '\x80';
      Bytes.fill out (len + 1) (padlen - 1) '\000';
      Bytes.set_int64_le out (len + padlen) (Int64.of_int (len * 8));
      out
    in
    let a = ref 0x67452301 and b' = ref 0xefcdab89
    and c = ref 0x98badcfe and d = ref 0x10325476 in
    let x = Array.make 16 0 in
    for blk = 0 to (Bytes.length msg / 64) - 1 do
      for i = 0 to 15 do
        x.(i) <- Int32.to_int (Bytes.get_int32_le msg ((blk * 64) + (i * 4))) land mask
      done;
      let aa = !a and bb = !b' and cc = !c and dd = !d in
      let round1 a b c d k s = rotl (a +% f b c d +% x.(k)) s in
      let round2 a b c d k s = rotl (a +% g b c d +% x.(k) +% 0x5a827999) s in
      let round3 a b c d k s = rotl (a +% h b c d +% x.(k) +% 0x6ed9eba1) s in
      List.iter
        (fun k ->
          a := round1 !a !b' !c !d k 3;
          d := round1 !d !a !b' !c (k + 1) 7;
          c := round1 !c !d !a !b' (k + 2) 11;
          b' := round1 !b' !c !d !a (k + 3) 19)
        [ 0; 4; 8; 12 ];
      List.iter
        (fun k ->
          a := round2 !a !b' !c !d k 3;
          d := round2 !d !a !b' !c (k + 4) 5;
          c := round2 !c !d !a !b' (k + 8) 9;
          b' := round2 !b' !c !d !a (k + 12) 13)
        [ 0; 1; 2; 3 ];
      List.iter
        (fun k ->
          a := round3 !a !b' !c !d k 3;
          d := round3 !d !a !b' !c (k + 8) 9;
          c := round3 !c !d !a !b' (k + 4) 11;
          b' := round3 !b' !c !d !a (k + 12) 15)
        [ 0; 2; 1; 3 ];
      a := !a +% aa;
      b' := !b' +% bb;
      c := !c +% cc;
      d := !d +% dd
    done;
    let out = Bytes.create 16 in
    List.iteri (fun i v -> Bytes.set_int32_le out (i * 4) (Int32.of_int v)) [ !a; !b'; !c; !d ];
    out

  open Crypto.Bignum

  let of_bytes_be b =
    let v = ref zero in
    Bytes.iter (fun c -> v := add (shift_left !v 8) (of_int (Char.code c))) b;
    !v

  let to_bytes_be ?size a =
    let needed = (num_bits a + 7) / 8 in
    let size = match size with None -> max needed 1 | Some s -> s in
    if needed > size then invalid_arg "Bignum.to_bytes_be: value too large";
    let out = Bytes.make size '\000' in
    let v = ref a and i = ref (size - 1) in
    while not (is_zero !v) do
      (match to_int_opt (rem !v (of_int 256)) with
      | Some b -> Bytes.set out !i (Char.chr b)
      | None -> assert false);
      v := shift_right !v 8;
      decr i
    done;
    out

  (* Right-to-left square-and-multiply over [mod_mul]. *)
  let mod_pow ~base ~exp ~modulus =
    if equal modulus one then zero
    else begin
      let r = ref one and b = ref (rem base modulus) in
      for i = 0 to num_bits exp - 1 do
        if bit exp i then r := mod_mul !r !b ~modulus;
        b := mod_mul !b !b ~modulus
      done;
      !r
    end
end

let all_bytes = List.init 256 Fun.id

let parity_matches_bit_loop () =
  List.iter
    (fun c ->
      let k = Bytes.make 8 (Char.chr c) in
      check_hex (Printf.sprintf "fix_parity %02x" c) (to_hex (Oracle.fix_parity k))
        (Crypto.Des.fix_parity k);
      Alcotest.(check bool) (Printf.sprintf "is_weak %02x" c) (Oracle.is_weak k)
        (Crypto.Des.is_weak k);
      (* Byte [c] at each position of a key, for the position-dependent
         shifts of the weak-key word. *)
      for at = 0 to 7 do
        let k = hex "133457799bbcdff1" in
        Bytes.set k at (Char.chr c);
        Alcotest.(check bool) (Printf.sprintf "is_weak %02x at %d" c at) (Oracle.is_weak k)
          (Crypto.Des.is_weak k)
      done)
    all_bytes;
  check_hex "lengths other than 8" "01fe0e" (Crypto.Des.fix_parity (hex "00ff0f"));
  Alcotest.(check bool) "short key is not weak" false (Crypto.Des.is_weak (hex "01010101"))

let weak_keys_any_parity () =
  List.iter
    (fun w ->
      for flips = 0 to 255 do
        let k = Bytes.copy w in
        for i = 0 to 7 do
          if (flips lsr i) land 1 = 1 then
            Bytes.set k i (Char.chr (Char.code (Bytes.get k i) lxor 1))
        done;
        Alcotest.(check bool) (to_hex k ^ " is weak") true (Crypto.Des.is_weak k)
      done;
      for bit = 0 to 63 do
        if bit mod 8 <> 0 then begin
          let k = Bytes.copy w in
          let i = 7 - (bit / 8) in
          Bytes.set k i (Char.chr (Char.code (Bytes.get k i) lxor (1 lsl (bit mod 8))));
          Alcotest.(check bool) (to_hex k ^ " agrees") (Oracle.is_weak k) (Crypto.Des.is_weak k)
        end
      done)
    weak_and_semi_weak

let parity_weak_prop =
  QCheck.Test.make ~name:"parity and weak keys agree with the bit loops" ~count:1000
    QCheck.(bytes_of_size (Gen.int_range 0 17))
    (fun k ->
      Bytes.equal (Crypto.Des.fix_parity k) (Oracle.fix_parity k)
      && Crypto.Des.is_weak k = Oracle.is_weak k)

(* Recorded from the bit-loop implementation; no digest elsewhere sees
   these bytes, because a client and its KDC derive with the same code. *)
let s2k_golden () =
  List.iter
    (fun (pw, expect) -> check_hex (Printf.sprintf "%S" pw) expect (Crypto.Str2key.derive pw))
    [ ("", "b5df97e60d106d9e");
      ("a", "64fb37c4c4dab329");
      ("passwor", "b975bc5d8a8f529e");
      ("password", "61fb686bbf5dabcd");
      ("password1", "9e6bce464aa110ae");
      ("sixteen-char-pwd", "91737976a76852bc");
      ("seventeen-chars!!", "806d29a81907254c");
      ("caf\xc3\xa9\x80\xff", "abdc68c20d92ab54");
      ("CHANGEME", "466bad7aad798357");
      ("correct horse battery staple", "c723a43ecdda5879") ]

let s2k_weak_correction () =
  List.iter2
    (fun w expect ->
      let fixed = Crypto.Str2key.correct_weak w in
      check_hex (to_hex w ^ " corrected") expect fixed;
      Alcotest.(check bool) (to_hex w ^ " no longer weak") false (Crypto.Des.is_weak fixed))
    weak_and_semi_weak
    [ "01010101010101f1"; "fefefefefefefe0e"; "e0e0e0e0f1f1f101"; "1f1f1f1f0e0e0efe";
      "011f011f010e01fe"; "1f011f010e010ef1"; "01e001e001f10101"; "e001e001f101f1f1";
      "01fe01fe01fe010e"; "fe01fe01fe01fef1"; "1fe01fe00ef10e01"; "e01fe01ff10ef1fe";
      "1ffe1ffe0efe0e0e"; "fe1ffe1ffe0efefe"; "e0fee0fef1fef10e"; "fee0fee0fef1fe01" ];
  let k = hex "133457799bbcdff1" in
  Alcotest.(check bool) "non-weak key kept" true (Crypto.Str2key.correct_weak k == k)

let md4_matches_oracle () =
  let rng = Util.Rng.create 0x4D44L in
  let buf = Util.Rng.bytes rng 320 in
  for len = 0 to 300 do
    List.iter
      (fun pos ->
        check_hex
          (Printf.sprintf "len %d at %d" len pos)
          (to_hex (Oracle.md4_sub buf ~pos ~len))
          (Crypto.Md4.digest_sub buf ~pos ~len))
      [ 0; 1; 3; 6; 19 ]
  done;
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "range %d+%d" pos len)
        (Invalid_argument "Md4.digest_sub")
        (fun () -> ignore (Crypto.Md4.digest_sub buf ~pos ~len)))
    [ (-1, 4); (0, -1); (300, 21); (321, 0) ]

let bn_testable = Alcotest.testable Crypto.Bignum.pp Crypto.Bignum.equal

let check_pow name ~base ~exp ~modulus =
  Alcotest.check bn_testable name
    (Oracle.mod_pow ~base ~exp ~modulus)
    (Crypto.Bignum.mod_pow ~base ~exp ~modulus)

let modpow_matches_oracle () =
  let open Crypto.Bignum in
  let rng = Util.Rng.create 0xE13L in
  let groups =
    List.map (fun bits -> (Crypto.Dh.group ~bits).Crypto.Dh.p) [ 16; 24; 31; 40; 61; 127; 521 ]
  in
  let even = [ shift_left one 400; of_int 1000; shift_left one 64; mul two (List.nth groups 5) ] in
  let odd_composite = [ of_int 3; of_int 1_000_001; mul (List.nth groups 4) (List.nth groups 5) ] in
  List.iter
    (fun m ->
      let name = "mod " ^ to_hex m in
      let big = random_below rng m in
      List.iter
        (fun base ->
          List.iter
            (fun exp ->
              check_pow (Printf.sprintf "%s ^%s %s" (to_hex base) (to_hex exp) name) ~base ~exp
                ~modulus:m)
            [ one; two; of_int 15; of_int 65537; sub m one; big ])
        [ zero; one; of_int 7; big; m; add m (of_int 5); add (mul m (of_int 3)) (of_int 7) ];
      Alcotest.check bn_testable (name ^ " ^0") one (mod_pow ~base:big ~exp:zero ~modulus:m))
    (groups @ even @ odd_composite);
  Alcotest.check bn_testable "modulus 1" zero
    (mod_pow ~base:(of_int 5) ~exp:(of_int 3) ~modulus:one);
  Alcotest.check bn_testable "modulus 1, exponent 0" zero
    (mod_pow ~base:(of_int 5) ~exp:zero ~modulus:one);
  Alcotest.check_raises "modulus 0" Division_by_zero (fun () ->
      ignore (mod_pow ~base:(of_int 5) ~exp:one ~modulus:zero))

let modpow_prop =
  QCheck.Test.make ~name:"mod_pow agrees with square-and-multiply" ~count:300
    QCheck.(quad (int_range 1 300) (int_range 0 600) (int_range 0 130) small_nat)
    (fun (mbits, bbits, ebits, seed) ->
      let rng = Util.Rng.create (Int64.of_int ((seed * 7919) + mbits)) in
      let open Crypto.Bignum in
      let modulus = add (random rng ~bits:mbits) one in
      let base = random rng ~bits:bbits and exp = random rng ~bits:ebits in
      equal (mod_pow ~base ~exp ~modulus) (Oracle.mod_pow ~base ~exp ~modulus))

let bytes_conversions_match_oracle =
  QCheck.Test.make ~name:"of_bytes_be and to_bytes_be agree with the per-byte forms" ~count:500
    QCheck.(pair (int_range 0 600) (int_range 0 6))
    (fun (bits, pad) ->
      let rng = Util.Rng.create (Int64.of_int ((bits * 13) + pad)) in
      let open Crypto.Bignum in
      let a = random rng ~bits in
      let raw = Util.Rng.bytes rng ((bits + 7) / 8 + pad) in
      let needed = (num_bits a + 7) / 8 in
      equal (of_bytes_be raw) (Oracle.of_bytes_be raw)
      && Bytes.equal (to_bytes_be a) (Oracle.to_bytes_be a)
      && Bytes.equal
           (to_bytes_be ~size:(needed + pad) a)
           (Oracle.to_bytes_be ~size:(needed + pad) a)
      && (needed = 0
         ||
         match to_bytes_be ~size:(needed - 1) a with
         | _ -> false
         | exception Invalid_argument m -> m = "Bignum.to_bytes_be: value too large"))

let bytes_conversion_edges () =
  let open Crypto.Bignum in
  Alcotest.check bn_testable "empty" zero (of_bytes_be Bytes.empty);
  Alcotest.check bn_testable "leading zeros" (of_int 0x0102) (of_bytes_be (hex "0000000102"));
  check_hex "zero" "00" (to_bytes_be zero);
  check_hex "zero, size 0" "" (to_bytes_be ~size:0 zero);
  check_hex "padded" "0000000102" (to_bytes_be ~size:5 (of_int 0x0102));
  (* A value whose top byte straddles the last limb. *)
  check_hex "26 bits" "03ffffff" (to_bytes_be (of_int 0x3FFFFFF));
  Alcotest.check_raises "too large" (Invalid_argument "Bignum.to_bytes_be: value too large")
    (fun () -> ignore (to_bytes_be ~size:1 (of_int 0x0102)))

let suite_oracles =
  [ Alcotest.test_case "parity and weak keys, all byte values" `Quick parity_matches_bit_loop;
    Alcotest.test_case "weak keys under any parity" `Quick weak_keys_any_parity;
    QCheck_alcotest.to_alcotest parity_weak_prop;
    Alcotest.test_case "string-to-key golden vectors" `Quick s2k_golden;
    Alcotest.test_case "string-to-key weak-key correction" `Quick s2k_weak_correction;
    Alcotest.test_case "md4 every length 0-300" `Quick md4_matches_oracle;
    Alcotest.test_case "mod_pow groups and edges" `Quick modpow_matches_oracle;
    QCheck_alcotest.to_alcotest modpow_prop;
    QCheck_alcotest.to_alcotest bytes_conversions_match_oracle;
    Alcotest.test_case "byte conversion edges" `Quick bytes_conversion_edges ]

let () =
  Alcotest.run "crypto"
    [ ("des", suite_des); ("modes", suite_modes); ("equiv", suite_equiv);
      ("crc32", suite_crc);
      ("md4", suite_md4); ("str2key", suite_s2k); ("checksum", suite_checksum);
      ("bignum", suite_bignum); ("dh", suite_dh); ("prf", suite_prf);
      ("deep", suite_deep); ("oracles", suite_oracles) ]
