type isn_mode = Predictable | Random_isn

type segment = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  seq : int;
  ackno : int;
  body : bytes;
}

let header_overhead = 13 (* flags u8 + seq u32 + ackno u32 + body length u32 *)

let encode_segment s =
  let w = Wire.Codec.Writer.create () in
  let flags =
    (if s.syn then 1 else 0) lor (if s.ack then 2 else 0)
    lor (if s.fin then 4 else 0)
    lor if s.rst then 8 else 0
  in
  Wire.Codec.Writer.u8 w flags;
  Wire.Codec.Writer.u32 w s.seq;
  Wire.Codec.Writer.u32 w s.ackno;
  Wire.Codec.Writer.lbytes w s.body;
  Wire.Codec.Writer.contents w

let decode_segment b =
  match
    let r = Wire.Codec.Reader.of_bytes b in
    let flags = Wire.Codec.Reader.u8 r in
    let seq = Wire.Codec.Reader.u32 r in
    let ackno = Wire.Codec.Reader.u32 r in
    let body = Wire.Codec.Reader.lbytes r in
    Wire.Codec.Reader.expect_end r;
    { syn = flags land 1 <> 0; ack = flags land 2 <> 0; fin = flags land 4 <> 0;
      rst = flags land 8 <> 0; seq; ackno; body }
  with
  | s -> Some s
  | exception Wire.Codec.Decode_error _ -> None

let predict_isn net = function
  | Predictable ->
      (* Old-BSD shape: a coarse, clock-derived counter. Anyone who knows
         the time knows the ISN. *)
      (64 * int_of_float (Net.now net)) land 0x7FFFFFFF
  | Random_isn -> Util.Rng.int (Net.rng net) 0x40000000

(* Sequence arithmetic mod 2^31. [seq_dist a b] is the forward distance
   from [a] to [b]; anything at or beyond half the space reads as
   "behind". *)
let seq_mask = 0x7FFFFFFF
let ( +% ) a b = (a + b) land seq_mask
let seq_dist a b = (b - a) land seq_mask

(* How far ahead of [rcv_nxt] a segment may start and still be buffered
   for reassembly rather than discarded as wild. *)
let recv_window = 1 lsl 16
let max_ooo_segments = 256
let max_frame_len = 1 lsl 20
let base_rto = 0.25
let max_rto = 4.0
let max_retries = 6

type conn = {
  net : Net.t;
  host : Host.t;
  local_addr : Addr.t;
  local_port : int;
  peer_addr : Addr.t;
  peer_port : int;
  rto_rng : Util.Rng.t;
  mutable snd_nxt : int;
  mutable snd_una : int;
  mutable rcv_nxt : int;
  mutable established : bool;
  mutable closed : bool;  (** FIN/RST sent or received: no further sends *)
  mutable detached : bool;  (** no longer reachable from the network *)
  mutable data_cb : bytes -> unit;
  mutable close_cb : reset:bool -> unit;
  mutable sent : int;
  mutable received : int;
  unacked : segment Queue.t;  (** in sequence order, head oldest *)
  mutable ooo : (int, bytes) Hashtbl.t option;
      (** out-of-order bodies keyed by seq, from the first one on *)
  mutable dup_acks : int;
  mutable rto : float;
  mutable retries : int;
  mutable timer : Engine.timer option;  (** the armed retransmission timer *)
  mutable detach : unit -> unit;
  (* framing (on_message): 4-byte big-endian length prefix *)
  fbuf : Buffer.t;
  mutable msg_cb : (bytes -> unit) option;
}

let peer c = (c.peer_addr, c.peer_port)
let local c = (c.local_addr, c.local_port)
let bytes_received c = c.received
let bytes_sent c = c.sent
let established c = c.established
let closed c = c.closed

let bump c name =
  Telemetry.Metrics.incr
    (Telemetry.Metrics.counter (Telemetry.Collector.metrics (Net.telemetry c.net)) name)

let transmit c seg =
  Net.send c.net ~src:c.local_addr ~sport:c.local_port ~dst:c.peer_addr
    ~dport:c.peer_port c.host (encode_segment seg)

let seg_span seg =
  (if seg.syn then 1 else 0) + (if seg.fin then 1 else 0) + Bytes.length seg.body

(* Largest body a single segment can carry to the peer without the
   network truncating it. With no MTU on the path, a whole payload rides
   in one segment — the pre-MTU behaviour. *)
let max_seg_body c =
  match Net.path_mtu c.net ~src:c.local_addr ~dst:c.peer_addr with
  | None -> max_int
  | Some mtu -> max 1 (mtu - header_overhead)

let teardown c ~reset =
  if not c.detached then begin
    c.closed <- true;
    c.detached <- true;
    (* The timer's closure reaches the connection and through it every
       callback; disarming lets a torn-down connection go now rather than
       at the timer's instant. *)
    Option.iter Engine.disarm c.timer;
    c.timer <- None;
    Queue.clear c.unacked;
    c.ooo <- None;
    c.detach ();
    c.close_cb ~reset
  end

let send_rst c =
  bump c "tcpish.resets";
  transmit c
    { syn = false; ack = false; fin = false; rst = true; seq = c.snd_nxt;
      ackno = c.rcv_nxt; body = Bytes.empty }

let abort c =
  if not c.detached then begin
    send_rst c;
    teardown c ~reset:true
  end

let reset c why =
  Net.note c.net (Printf.sprintf "tcpish: reset (%s)" why);
  abort c

let send_ack c =
  transmit c
    { syn = false; ack = true; fin = false; rst = false; seq = c.snd_nxt;
      ackno = c.rcv_nxt; body = Bytes.empty }

(* Go-back-N: resend everything outstanding, with the cumulative ack
   refreshed on ack-bearing segments. *)
let retransmit_all c =
  bump c "tcpish.retransmits";
  Queue.iter
    (fun seg ->
      transmit c (if seg.ack then { seg with ackno = c.rcv_nxt } else seg))
    c.unacked

(* One retransmission timer per connection, armed only while something is
   outstanding. Backoff is exponential with seeded jitter from a per-conn
   stream split off the network RNG, so schedules are reproducible but a
   fleet of senders does not fire in lockstep. *)
let rec arm_timer c =
  if Option.is_none c.timer then begin
    let jitter = 0.1 in
    let wait =
      c.rto *. (1.0 +. (Util.Rng.float c.rto_rng (2.0 *. jitter) -. jitter))
    in
    c.timer <- Some (Engine.arm_after (Net.engine c.net) wait (fun () -> timer_fire c))
  end

(* Teardown disarms the timer, so it only ever fires on a live
   connection. *)
and timer_fire c =
  c.timer <- None;
  if not (Queue.is_empty c.unacked) then
    if c.retries >= max_retries then reset c "retransmit limit exceeded"
    else begin
      c.retries <- c.retries + 1;
      retransmit_all c;
      c.rto <- Float.min max_rto (c.rto *. 2.0);
      arm_timer c
    end

let push_unacked c seg =
  Queue.add seg c.unacked;
  arm_timer c

(* Cumulative-ack processing. A valid ack advances [snd_una] by at most
   the outstanding span; anything further (e.g. the acks a desynchronized
   hijack victim receives for bytes it never sent) is ignored. *)
let handle_ack c ackno =
  let outstanding = seq_dist c.snd_una c.snd_nxt in
  let adv = seq_dist c.snd_una ackno in
  if adv = 0 then begin
    if outstanding > 0 && c.established then begin
      c.dup_acks <- c.dup_acks + 1;
      if c.dup_acks = 2 then begin
        (* Two duplicate acks signal a sequence gap at the receiver: fast
           retransmit rather than waiting out the timer. *)
        c.dup_acks <- 0;
        retransmit_all c
      end
    end
  end
  else if adv <= outstanding then begin
    let old_una = c.snd_una in
    c.snd_una <- ackno;
    c.dup_acks <- 0;
    c.retries <- 0;
    c.rto <- base_rto;
    let rec pop () =
      match Queue.peek_opt c.unacked with
      | Some seg when seq_dist old_una (seg.seq +% seg_span seg) <= adv ->
          ignore (Queue.pop c.unacked);
          pop ()
      | _ -> ()
    in
    pop ();
    if Queue.is_empty c.unacked && c.closed then
      (* Our FIN is acknowledged: the conversation is over. *)
      teardown c ~reset:false
  end

let send c body =
  if c.closed then invalid_arg "Tcpish.send: connection closed";
  let mss = max_seg_body c in
  let len = Bytes.length body in
  let off = ref 0 in
  while !off < len do
    let n = min mss (len - !off) in
    let chunk = if n = len && !off = 0 then body else Bytes.sub body !off n in
    let seg =
      { syn = false; ack = c.established; fin = false; rst = false;
        seq = c.snd_nxt; ackno = c.rcv_nxt; body = chunk }
    in
    push_unacked c seg;
    transmit c seg;
    c.snd_nxt <- c.snd_nxt +% n;
    c.sent <- c.sent + n;
    off := !off + n
  done

let on_data c fn = c.data_cb <- fn
let on_close c fn = c.close_cb <- fn

let close c =
  if not c.closed then begin
    c.closed <- true;
    let seg =
      { syn = false; ack = c.established; fin = true; rst = false;
        seq = c.snd_nxt; ackno = c.rcv_nxt; body = Bytes.empty }
    in
    push_unacked c seg;
    transmit c seg;
    c.snd_nxt <- c.snd_nxt +% 1
  end

(* Deliver the in-order prefix: the segment that just landed, then any
   buffered successors it unblocks. *)
let rec drain_in_order c =
  match c.ooo with
  | None -> ()
  | Some ooo -> (
      match Hashtbl.find_opt ooo c.rcv_nxt with
      | Some body ->
          Hashtbl.remove ooo c.rcv_nxt;
          advance c body
      | None -> ())

and advance c body =
  c.rcv_nxt <- c.rcv_nxt +% Bytes.length body;
  c.received <- c.received + Bytes.length body;
  c.data_cb body;
  drain_in_order c

(* Shared inbound segment handling once established. *)
let handle_established c seg =
  if c.detached then ()
  else if seg.rst then begin
    Net.note c.net "tcpish: connection reset by peer";
    teardown c ~reset:true
  end
  else if seg.syn then
    (* A retransmitted SYN-ACK: our handshake ack was lost. Re-ack. *)
    send_ack c
  else begin
    if seg.ack then handle_ack c seg.ackno;
    if c.detached then ()
    else begin
      let len = Bytes.length seg.body in
      if len > 0 then begin
        let off = seq_dist c.rcv_nxt seg.seq in
        if off = 0 then begin
          advance c seg.body;
          send_ack c
        end
        else if off < recv_window then begin
          (* A gap: buffer for reassembly and duplicate-ack so the sender
             retransmits the missing prefix instead of the bytes vanishing
             without trace. *)
          let ooo =
            match c.ooo with
            | Some ooo -> ooo
            | None ->
                let ooo = Hashtbl.create 8 in
                c.ooo <- Some ooo;
                ooo
          in
          if
            (not (Hashtbl.mem ooo seg.seq))
            && Hashtbl.length ooo < max_ooo_segments
          then begin
            Hashtbl.replace ooo seg.seq seg.body;
            bump c "tcpish.ooo_buffered"
          end;
          send_ack c
        end
        else if seq_dist (seg.seq +% len) c.rcv_nxt <= recv_window then begin
          (* An old duplicate (retransmission of data we already have):
             re-ack so the sender's window advances. *)
          bump c "tcpish.duplicates";
          send_ack c
        end
        else begin
          Net.note c.net "tcpish: out-of-window segment dropped";
          send_ack c
        end
      end;
      if seg.fin && not c.detached then begin
        let fin_seq = seg.seq +% len in
        if seq_dist c.rcv_nxt fin_seq = 0 then begin
          c.rcv_nxt <- c.rcv_nxt +% 1;
          send_ack c;
          teardown c ~reset:false
        end
        else send_ack c (* FIN beyond a gap: ask for the retransmit *)
      end
    end
  end

(* Framing: 4-byte big-endian length prefix, reassembled across however
   many segments the MTU forced. A torn prefix simply waits for more
   bytes; an absurd length resets the connection. *)
let feed_frames c chunk =
  Buffer.add_bytes c.fbuf chunk;
  let continue = ref true in
  while !continue do
    continue := false;
    let blen = Buffer.length c.fbuf in
    if blen >= 4 && not c.detached then begin
      let b = Buffer.to_bytes c.fbuf in
      let mlen =
        (Char.code (Bytes.get b 0) lsl 24)
        lor (Char.code (Bytes.get b 1) lsl 16)
        lor (Char.code (Bytes.get b 2) lsl 8)
        lor Char.code (Bytes.get b 3)
      in
      if mlen > max_frame_len then reset c "oversized frame length"
      else if blen >= 4 + mlen then begin
        let msg = Bytes.sub b 4 mlen in
        Buffer.clear c.fbuf;
        Buffer.add_subbytes c.fbuf b (4 + mlen) (blen - 4 - mlen);
        (match c.msg_cb with Some fn -> fn msg | None -> ());
        continue := true
      end
    end
  done

let on_message c fn =
  c.msg_cb <- Some fn;
  c.data_cb <- feed_frames c

let send_message c msg =
  let len = Bytes.length msg in
  if len > max_frame_len then invalid_arg "Tcpish.send_message: frame too large";
  let framed = Bytes.create (4 + len) in
  Bytes.set framed 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set framed 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set framed 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set framed 3 (Char.chr (len land 0xFF));
  Bytes.blit msg 0 framed 4 len;
  send c framed

let make_conn net host ~local_addr ~local_port ~peer_addr ~peer_port ~isn =
  { net; host; local_addr; local_port; peer_addr; peer_port;
    rto_rng = Util.Rng.split (Net.rng net);
    snd_nxt = isn; snd_una = isn; rcv_nxt = 0; established = false;
    closed = false; detached = false; data_cb = ignore;
    close_cb = (fun ~reset:_ -> ()); sent = 0; received = 0;
    unacked = Queue.create (); ooo = None; dup_acks = 0;
    rto = base_rto; retries = 0; timer = None; detach = ignore;
    fbuf = Buffer.create 64; msg_cb = None }

let listen net host ~port ?(isn = Random_isn) ~on_accept () =
  (* Connection table keyed by the apparent peer. *)
  let conns : (Addr.t * int, conn * bool ref (* handshake done *)) Hashtbl.t =
    Hashtbl.create 8
  in
  Net.listen net host ~port (fun pkt ->
      match decode_segment pkt.Packet.payload with
      | None -> Net.note net "tcpish: malformed segment"
      | Some seg -> (
          let key = (pkt.Packet.src, pkt.Packet.sport) in
          match Hashtbl.find_opt conns key with
          | None ->
              if seg.syn && not seg.ack then begin
                let c =
                  make_conn net host ~local_addr:pkt.Packet.dst
                    ~local_port:port ~peer_addr:pkt.Packet.src
                    ~peer_port:pkt.Packet.sport ~isn:(predict_isn net isn)
                in
                c.rcv_nxt <- (seg.seq + 1) land seq_mask;
                c.detach <- (fun () -> Hashtbl.remove conns key);
                Hashtbl.replace conns key (c, ref false);
                (* SYN+ACK — kept on the retransmission queue until the
                   final handshake ack arrives. *)
                let synack =
                  { syn = true; ack = true; fin = false; rst = false;
                    seq = c.snd_nxt; ackno = c.rcv_nxt; body = Bytes.empty }
                in
                push_unacked c synack;
                transmit c synack;
                c.snd_nxt <- c.snd_nxt +% 1
              end
          | Some (c, done_) ->
              if (not !done_) && seg.syn && not seg.ack then
                (* Duplicate SYN: our SYN-ACK was lost. Resend it now. *)
                retransmit_all c
              else if (not !done_) && seg.ack && not seg.syn then begin
                (* Final ACK of the handshake: the server checks that the
                   client echoes its ISN — the only proof of return-path
                   reachability, and exactly what Morris predicted. *)
                if seg.ackno = c.snd_nxt then begin
                  done_ := true;
                  c.established <- true;
                  handle_ack c seg.ackno;
                  on_accept c;
                  (* the ACK segment may itself carry data *)
                  if Bytes.length seg.body > 0 || seg.fin || seg.rst then
                    handle_established c seg
                end
                else Net.note net "tcpish: bad handshake ack"
              end
              else if !done_ then handle_established c seg))

let connect net host ?src ?(isn = Random_isn) ~dst ~dport ~on_connected () =
  let sport = Net.ephemeral_port net in
  let local_addr = match src with None -> Host.primary_ip host | Some a -> a in
  let c =
    make_conn net host ~local_addr ~local_port:sport ~peer_addr:dst
      ~peer_port:dport ~isn:(predict_isn net isn)
  in
  c.detach <- (fun () -> Net.unlisten net host ~port:sport);
  Net.listen net host ~port:sport (fun pkt ->
      match decode_segment pkt.Packet.payload with
      | None -> ()
      | Some seg ->
          if (not c.established) && seg.rst then teardown c ~reset:true
          else if (not c.established) && seg.syn && seg.ack then begin
            (* snd_nxt already counts the SYN we sent. *)
            if seg.ackno = c.snd_nxt then begin
              c.rcv_nxt <- (seg.seq + 1) land seq_mask;
              c.established <- true;
              handle_ack c seg.ackno;
              send_ack c;
              on_connected c
            end
          end
          else if c.established then handle_established c seg);
  (* SYN — retransmitted until the SYN-ACK acknowledges it. *)
  let syn =
    { syn = true; ack = false; fin = false; rst = false; seq = c.snd_nxt;
      ackno = 0; body = Bytes.empty }
  in
  push_unacked c syn;
  transmit c syn;
  c.snd_nxt <- c.snd_nxt +% 1;
  c
