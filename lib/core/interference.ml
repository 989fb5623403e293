(* The interference graph is rebuilt for every routing round, so its build
   and peel loops sit squarely on the compiler's hot path at paper-size
   circuits. The packed representation below keeps the adjacency matrix as
   flat bit words (one row of [words_per_row] ints per node) with a
   maintained degree array; [Legacy] preserves the original
   hashtable-of-Int_set implementation as the differential-testing oracle
   (see test_interference.ml) until it can be deleted. *)

module Legacy = struct
  module Int_set = Set.Make (Int)

  type node = { task : Task.t; mutable adj : Int_set.t }

  type t = {
    table : (int, node) Hashtbl.t; (* task id -> node *)
    original : int;
  }

  let build placement tasks =
    let table = Hashtbl.create (List.length tasks * 2) in
    List.iter
      (fun (task : Task.t) ->
        Hashtbl.replace table task.id { task; adj = Int_set.empty })
      tasks;
    let arr = Array.of_list tasks in
    let boxes = Array.map (fun t -> Task.bbox placement t) arr in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Qec_lattice.Bbox.intersects boxes.(i) boxes.(j) then begin
          let ni = Hashtbl.find table arr.(i).Task.id
          and nj = Hashtbl.find table arr.(j).Task.id in
          ni.adj <- Int_set.add arr.(j).Task.id ni.adj;
          nj.adj <- Int_set.add arr.(i).Task.id nj.adj
        end
      done
    done;
    { table; original = n }

  let original_count t = t.original
  let node_count t = Hashtbl.length t.table

  let nodes t =
    Hashtbl.fold (fun _ n acc -> n.task :: acc) t.table []
    |> List.sort (fun (a : Task.t) b -> compare a.id b.id)

  let find t id =
    match Hashtbl.find_opt t.table id with
    | Some n -> n
    | None -> raise Not_found

  let degree t id = Int_set.cardinal (find t id).adj

  let max_degree t =
    Hashtbl.fold (fun _ n acc -> max acc (Int_set.cardinal n.adj)) t.table 0

  let max_degree_nodes t =
    let d = max_degree t in
    Hashtbl.fold
      (fun _ n acc -> if Int_set.cardinal n.adj = d then n.task :: acc else acc)
      t.table []
    |> List.sort (fun (a : Task.t) b -> compare a.id b.id)

  let neighbors t id =
    Int_set.elements (find t id).adj |> List.map (fun i -> (find t i).task)

  let remove t id =
    let n = find t id in
    Int_set.iter
      (fun other -> (find t other).adj <- Int_set.remove id (find t other).adj)
      n.adj;
    Hashtbl.remove t.table id

  let mem t id = Hashtbl.mem t.table id
end

type t = {
  tasks : Task.t array; (* dense index -> task, in build order *)
  idx_of : (int, int) Hashtbl.t Lazy.t;
      (* task id -> dense index; built on the first lookup by id, so the
         stack finder's index-only peel never builds it *)
  adj : int array; (* n rows x words_per_row adjacency bit words *)
  deg : int array; (* maintained under removal *)
  present : bool array;
  wpr : int; (* words per row *)
  mutable live : int;
  original : int;
}

let bits_per_word = 63

let of_boxes arr boxes =
  let n = Array.length arr in
  if Array.length boxes <> n then
    invalid_arg "Interference.of_boxes: length mismatch";
  let wpr = max 1 ((n + bits_per_word - 1) / bits_per_word) in
  let idx_of =
    lazy
      (let tbl = Hashtbl.create (max 16 (2 * n)) in
       Array.iteri (fun i (t : Task.t) -> Hashtbl.replace tbl t.id i) arr;
       tbl)
  in
  let adj = Array.make (n * wpr) 0 in
  let deg = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Qec_lattice.Bbox.intersects boxes.(i) boxes.(j) then begin
        let wi = (i * wpr) + (j / bits_per_word)
        and wj = (j * wpr) + (i / bits_per_word) in
        adj.(wi) <- adj.(wi) lor (1 lsl (j mod bits_per_word));
        adj.(wj) <- adj.(wj) lor (1 lsl (i mod bits_per_word));
        deg.(i) <- deg.(i) + 1;
        deg.(j) <- deg.(j) + 1
      end
    done
  done;
  {
    tasks = arr;
    idx_of;
    adj;
    deg;
    present = Array.make n true;
    wpr;
    live = n;
    original = n;
  }

let build placement tasks =
  let arr = Array.of_list tasks in
  of_boxes arr (Array.map (fun t -> Task.bbox placement t) arr)

let original_count t = t.original
let node_count t = t.live

let find_idx t id =
  match Hashtbl.find_opt (Lazy.force t.idx_of) id with
  | Some i when t.present.(i) -> i
  | Some _ | None -> raise Not_found

let mem t id =
  match Hashtbl.find_opt (Lazy.force t.idx_of) id with
  | Some i -> t.present.(i)
  | None -> false

let degree t id = t.deg.(find_idx t id)
let present_at t i = t.present.(i)
let degree_at t i = t.deg.(i)

(* Dense build order is the caller's task-list order, not necessarily
   ascending by id, so anything returning task lists sorts explicitly to
   stay byte-compatible with [Legacy]. *)
let by_id (a : Task.t) (b : Task.t) = compare a.id b.id

let nodes t =
  let acc = ref [] in
  for i = Array.length t.tasks - 1 downto 0 do
    if t.present.(i) then acc := t.tasks.(i) :: !acc
  done;
  List.sort by_id !acc

let max_degree t =
  let best = ref 0 in
  for i = 0 to Array.length t.tasks - 1 do
    if t.present.(i) && t.deg.(i) > !best then best := t.deg.(i)
  done;
  !best

let max_degree_index t areas =
  let best = ref (-1) and best_deg = ref (-1) in
  for i = 0 to Array.length t.tasks - 1 do
    if t.present.(i) then begin
      let d = t.deg.(i) and b = !best in
      if
        d > !best_deg
        || d = !best_deg
           && (areas.(i) > areas.(b)
              || areas.(i) = areas.(b) && t.tasks.(i).Task.id < t.tasks.(b).Task.id)
      then begin
        best := i;
        best_deg := d
      end
    end
  done;
  !best

let max_degree_nodes t =
  if t.live = 0 then []
  else begin
    let d = max_degree t in
    let acc = ref [] in
    for i = Array.length t.tasks - 1 downto 0 do
      if t.present.(i) && t.deg.(i) = d then acc := t.tasks.(i) :: !acc
    done;
    List.sort by_id !acc
  end

let iter_adjacent t i f =
  let row = i * t.wpr in
  for w = 0 to t.wpr - 1 do
    let word = ref t.adj.(row + w) in
    while !word <> 0 do
      let b = !word land - !word in
      (* lowest set bit *)
      let j = (w * bits_per_word) + Qec_util.Bitset.ntz b in
      f j;
      word := !word land lnot b
    done
  done

let neighbors t id =
  let i = find_idx t id in
  let acc = ref [] in
  iter_adjacent t i (fun j -> acc := t.tasks.(j) :: !acc);
  List.sort by_id !acc

let remove_at t i =
  if not t.present.(i) then invalid_arg "Interference.remove_at: absent";
  let ibit = 1 lsl (i mod bits_per_word) and iw = i / bits_per_word in
  iter_adjacent t i (fun j ->
      let wj = (j * t.wpr) + iw in
      t.adj.(wj) <- t.adj.(wj) land lnot ibit;
      t.deg.(j) <- t.deg.(j) - 1);
  Array.fill t.adj (i * t.wpr) t.wpr 0;
  t.deg.(i) <- 0;
  t.present.(i) <- false;
  t.live <- t.live - 1

let remove t id = remove_at t (find_idx t id)
