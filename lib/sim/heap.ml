type 'a t = { mutable data : 'a array; mutable len : int; cmp : 'a -> 'a -> int }

let create ~cmp = { data = [||]; len = 0; cmp }

let grow t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.len && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek t = if t.len = 0 then None else Some t.data.(0)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      sift_down t 0
    end;
    Some top
  end

let size t = t.len
let is_empty t = t.len = 0
