(* One byte per vertex, '\000' free and '\001' claimed, plus the number
   of claimed vertices. The router reads [claimed] directly, so its inner
   loop tests a byte with [Bytes.get] instead of calling [is_free]. *)
type t = {
  grid : Grid.t;
  claimed : Bytes.t;
  mutable count : int;
  mutable epoch : int;
}

(* One counter for every occupancy in the process, so an epoch names one
   occupancy's state between two releases and never repeats. *)
let epochs = Atomic.make 0
let next_epoch () = Atomic.fetch_and_add epochs 1 + 1

let create grid =
  {
    grid;
    claimed = Bytes.make (Grid.num_vertices grid) '\000';
    count = 0;
    epoch = next_epoch ();
  }

let grid t = t.grid

let epoch t = t.epoch

let claimed_map t = t.claimed

let is_free t v = Bytes.get t.claimed v = '\000'

let reserve_path t p =
  List.iter
    (fun v ->
      if not (is_free t v) then
        invalid_arg (Printf.sprintf "Occupancy.reserve_path: v%d taken" v))
    (Path.vertices p);
  List.iter (fun v -> Bytes.set t.claimed v '\001') (Path.vertices p);
  t.count <- t.count + Path.length p

let release_path t p =
  List.iter
    (fun v ->
      if is_free t v then
        invalid_arg (Printf.sprintf "Occupancy.release_path: v%d free" v))
    (Path.vertices p);
  List.iter (fun v -> Bytes.set t.claimed v '\000') (Path.vertices p);
  t.count <- t.count - Path.length p;
  t.epoch <- next_epoch ()

let clear t =
  Bytes.fill t.claimed 0 (Bytes.length t.claimed) '\000';
  t.count <- 0;
  t.epoch <- next_epoch ()

let occupied_count t = t.count

let utilization t =
  float_of_int t.count /. float_of_int (Bytes.length t.claimed)

let snapshot t =
  let n = Bytes.length t.claimed in
  let bits = Qec_util.Bitset.create n in
  for v = 0 to n - 1 do
    if Bytes.get t.claimed v <> '\000' then Qec_util.Bitset.add bits v
  done;
  bits
