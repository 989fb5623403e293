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

(* FIFO bucket queue. Slots are handed out in push order and never
   reused before [clear]; each priority's bucket is a singly linked list
   of slots, appended at [tail] and popped at [head], so it is FIFO.
   [cur] is at or below the smallest non-empty priority: a push below it
   lowers it, and a pop only steps it over empty buckets. Taking the
   smallest non-empty bucket's head is therefore the polymorphic heap's
   (priority, push order) minimum. While [size > 0] some bucket at or
   above [cur] is non-empty, which bounds the scan. A bucket is empty when
   its generation stamp is stale (set before the last [clear]) or its
   list is drained ([head < 0]). *)
module Int_pq = struct
  type t = {
    head : int array; (* per priority: first slot, -1 once drained *)
    tail : int array; (* per priority: last slot *)
    bucket_gen : int array; (* per priority: generation of head/tail *)
    next : int array; (* per slot: next slot in its bucket, -1 at the end *)
    vals : int array; (* per slot *)
    mutable gen : int;
    mutable used : int; (* slots handed out since the last clear *)
    mutable size : int;
    mutable cur : int;
  }

  let create ~max_priority ~capacity =
    let buckets = max_priority + 1 in
    {
      head = Array.make buckets (-1);
      tail = Array.make buckets (-1);
      bucket_gen = Array.make buckets 0;
      next = Array.make capacity (-1);
      vals = Array.make capacity 0;
      gen = 0;
      used = 0;
      size = 0;
      cur = buckets;
    }

  let length t = t.size
  let is_empty t = t.size = 0

  (* Array bounds checks reject an out-of-range priority (first read) and
     an exhausted slot pool (first write) before any state changes. *)
  let push t ~priority v =
    let empty = t.bucket_gen.(priority) <> t.gen || t.head.(priority) < 0 in
    let s = t.used in
    t.vals.(s) <- v;
    t.next.(s) <- -1;
    if empty then begin
      t.bucket_gen.(priority) <- t.gen;
      t.head.(priority) <- s
    end
    else t.next.(t.tail.(priority)) <- s;
    t.tail.(priority) <- s;
    t.used <- s + 1;
    t.size <- t.size + 1;
    if priority < t.cur then t.cur <- priority

  let pop_min t =
    if t.size = 0 then -1
    else begin
      let p = ref t.cur in
      while t.bucket_gen.(!p) <> t.gen || t.head.(!p) < 0 do
        incr p
      done;
      let p = !p in
      t.cur <- p;
      let s = t.head.(p) in
      t.head.(p) <- t.next.(s);
      t.size <- t.size - 1;
      t.vals.(s)
    end

  let clear t =
    t.gen <- t.gen + 1;
    t.used <- 0;
    t.size <- 0;
    t.cur <- Array.length t.head
end
