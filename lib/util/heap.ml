(* Array-backed binary min-heap. Each node stores (priority, seq, value);
   seq is a monotonically increasing stamp that makes equal-priority pops
   FIFO and therefore deterministic. *)

type 'a node = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a node array;
  mutable size : int;
  mutable stamp : int;
}

let create () = { data = [||]; size = 0; stamp = 0 }

let length t = t.size

let is_empty t = t.size = 0

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow t node =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap node in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ~priority value =
  let node = { prio = priority; seq = t.stamp; value } in
  t.stamp <- t.stamp + 1;
  grow t node;
  t.data.(t.size) <- node;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop_min t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top.value
  end

let peek_min t = if t.size = 0 then None else Some t.data.(0).value

let clear t =
  t.size <- 0;
  t.stamp <- 0
