module Bbox = Qec_lattice.Bbox
module Placement = Qec_lattice.Placement

type group = { members : Task.t list; bbox : Bbox.t }

(* The partition kernel works in scratch int arrays. Box i is
   (bx0.(i), by0.(i))-(bx1.(i), by1.(i)). The live groups sit in slots
   0 .. groups - 1; slot g holds a joint box, a size and a member chain
   that starts at first.(g), follows next.(i) until -1 and ends at
   last.(g). [slot] labels tasks with slots where a caller needs it. One
   scratch per domain, grown on demand, so a count allocates nothing. *)
type scratch = {
  bx0 : int array;
  by0 : int array;
  bx1 : int array;
  by1 : int array;
  gx0 : int array;
  gy0 : int array;
  gx1 : int array;
  gy1 : int array;
  first : int array;
  last : int array;
  size : int array;
  next : int array;
  slot : int array;
  mutable groups : int;
}

let make cap =
  let a () = Array.make cap 0 in
  {
    bx0 = a ();
    by0 = a ();
    bx1 = a ();
    by1 = a ();
    gx0 = a ();
    gy0 = a ();
    gx1 = a ();
    gy1 = a ();
    first = a ();
    last = a ();
    size = a ();
    next = a ();
    slot = a ();
    groups = 0;
  }

let scratch_key = Domain.DLS.new_key (fun () -> make 64)

let scratch n =
  let s = Domain.DLS.get scratch_key in
  if n <= Array.length s.bx0 then s
  else begin
    let s = make (max n (2 * Array.length s.bx0)) in
    Domain.DLS.set scratch_key s;
    s
  end

(* Insert boxes 0 .. n - 1 one at a time into a set of pairwise disjoint
   groups. A box absorbs every group its growing joint box meets,
   rescanning from the first slot whenever the box grows, until it meets
   none; then it takes the next free slot. Every merge is forced: two
   groups whose boxes meet lie in one group of any partition with
   pairwise disjoint joint boxes. When the last box is in, the groups are
   pairwise disjoint and every merge was forced, so they are the finest
   such partition, whatever the insertion order. *)
let partition s n =
  s.groups <- 0;
  for i = 0 to n - 1 do
    let x0 = ref s.bx0.(i) and y0 = ref s.by0.(i) in
    let x1 = ref s.bx1.(i) and y1 = ref s.by1.(i) in
    let last = ref i and size = ref 1 in
    s.next.(i) <- -1;
    let g = ref 0 in
    while !g < s.groups do
      let h = !g in
      if
        s.gx0.(h) <= !x1
        && !x0 <= s.gx1.(h)
        && s.gy0.(h) <= !y1
        && !y0 <= s.gy1.(h)
      then begin
        let grew = ref false in
        if s.gx0.(h) < !x0 then (x0 := s.gx0.(h); grew := true);
        if s.gy0.(h) < !y0 then (y0 := s.gy0.(h); grew := true);
        if s.gx1.(h) > !x1 then (x1 := s.gx1.(h); grew := true);
        if s.gy1.(h) > !y1 then (y1 := s.gy1.(h); grew := true);
        s.next.(!last) <- s.first.(h);
        last := s.last.(h);
        size := !size + s.size.(h);
        (* The last live group moves into slot h, which is scanned next. *)
        let l = s.groups - 1 in
        s.gx0.(h) <- s.gx0.(l);
        s.gy0.(h) <- s.gy0.(l);
        s.gx1.(h) <- s.gx1.(l);
        s.gy1.(h) <- s.gy1.(l);
        s.first.(h) <- s.first.(l);
        s.last.(h) <- s.last.(l);
        s.size.(h) <- s.size.(l);
        s.groups <- l;
        (* A grown box may meet a group it has already passed. *)
        if !grew then g := 0
      end
      else incr g
    done;
    let h = s.groups in
    s.gx0.(h) <- !x0;
    s.gy0.(h) <- !y0;
    s.gx1.(h) <- !x1;
    s.gy1.(h) <- !y1;
    s.first.(h) <- i;
    s.last.(h) <- !last;
    s.size.(h) <- !size;
    s.groups <- h + 1
  done

(* Box i of a task, from the placement's cached coordinates. *)
let load_task s xs ys i (t : Task.t) =
  let xa = xs.(t.q1) and xb = xs.(t.q2) in
  let ya = ys.(t.q1) and yb = ys.(t.q2) in
  if xa < xb then (s.bx0.(i) <- xa; s.bx1.(i) <- xb)
  else (s.bx0.(i) <- xb; s.bx1.(i) <- xa);
  if ya < yb then (s.by0.(i) <- ya; s.by1.(i) <- yb)
  else (s.by0.(i) <- yb; s.by1.(i) <- ya)

let partition_tasks placement (tasks : Task.t array) =
  let n = Array.length tasks in
  let s = scratch n in
  let xs = Placement.xs placement and ys = Placement.ys placement in
  for i = 0 to n - 1 do
    load_task s xs ys i tasks.(i)
  done;
  partition s n;
  s

let oversize s =
  let c = ref 0 in
  for g = 0 to s.groups - 1 do
    if s.size.(g) > 3 then incr c
  done;
  !c

let count_oversize_array placement tasks =
  oversize (partition_tasks placement tasks)

let count_oversize placement tasks =
  count_oversize_array placement (Array.of_list tasks)

(* Slot g's member indices, in chain order. *)
let members s g =
  let rec walk i acc = if i < 0 then acc else walk s.next.(i) (i :: acc) in
  walk s.first.(g) []

let joint_box s g : Bbox.t =
  { x0 = s.gx0.(g); y0 = s.gy0.(g); x1 = s.gx1.(g); y1 = s.gy1.(g) }

let decompose placement tasks =
  let arr = Array.of_list tasks in
  let s = partition_tasks placement arr in
  let by_id (a : Task.t) (b : Task.t) = compare a.id b.id in
  List.init s.groups (fun g ->
      let members = List.map (fun i -> arr.(i)) (members s g) in
      { members = List.sort by_id members; bbox = joint_box s g })
  |> List.sort (fun g h -> by_id (List.hd g.members) (List.hd h.members))

(* Label every member of an oversize group with its slot, every other
   task with -1; then, scanning the tasks in order, the first member of
   each group met emits the whole group in array order. *)
let iter_oversize_members placement tasks f =
  let s = partition_tasks placement tasks in
  let n = Array.length tasks in
  for g = 0 to s.groups - 1 do
    let label = if s.size.(g) > 3 then g else -1 in
    let i = ref s.first.(g) in
    while !i >= 0 do
      s.slot.(!i) <- label;
      i := s.next.(!i)
    done
  done;
  for i = 0 to n - 1 do
    let g = s.slot.(i) in
    if g >= 0 then
      for j = i to n - 1 do
        if s.slot.(j) = g then begin
          s.slot.(j) <- -1;
          f tasks.(j)
        end
      done
  done

let size g = List.length g.members

(* Strict nesting admits no two boxes of equal area, so the order of
   equal-area boxes after the sort cannot change the verdict. *)
let nested_chain boxes =
  let rec chain = function
    | a :: (b :: _ as rest) ->
      Bbox.strictly_nests ~outer:a ~inner:b && chain rest
    | [ _ ] | [] -> true
  in
  chain (List.sort (fun a b -> compare (Bbox.area b) (Bbox.area a)) boxes)

let is_strictly_nested placement g =
  nested_chain (List.map (fun t -> Task.bbox placement t) g.members)

let is_guaranteed placement g = size g <= 3 || is_strictly_nested placement g

let confinement boxes =
  let n = Array.length boxes in
  let s = scratch n in
  Array.iteri
    (fun i (b : Bbox.t) ->
      s.bx0.(i) <- b.x0;
      s.by0.(i) <- b.y0;
      s.bx1.(i) <- b.x1;
      s.by1.(i) <- b.y1)
    boxes;
  partition s n;
  let out = Array.make n None in
  for g = 0 to s.groups - 1 do
    let ms = members s g in
    if s.size.(g) <= 3 || nested_chain (List.map (fun i -> boxes.(i)) ms)
    then begin
      let box = Some (joint_box s g) in
      List.iter (fun i -> out.(i) <- box) ms
    end
  done;
  out
