type t = { grid : Grid.t; bits : Qec_util.Bitset.t; mutable epoch : int }

(* One counter for every occupancy in the process, so an epoch names one
   occupancy's state between two releases and never repeats. *)
let epochs = Atomic.make 0
let next_epoch () = Atomic.fetch_and_add epochs 1 + 1

let create grid =
  {
    grid;
    bits = Qec_util.Bitset.create (Grid.num_vertices grid);
    epoch = next_epoch ();
  }

let grid t = t.grid

let epoch t = t.epoch

let is_free t v = not (Qec_util.Bitset.mem t.bits v)

let reserve_path t p =
  List.iter
    (fun v ->
      if Qec_util.Bitset.mem t.bits v then
        invalid_arg (Printf.sprintf "Occupancy.reserve_path: v%d taken" v))
    (Path.vertices p);
  List.iter (fun v -> Qec_util.Bitset.add t.bits v) (Path.vertices p)

let release_path t p =
  List.iter
    (fun v ->
      if not (Qec_util.Bitset.mem t.bits v) then
        invalid_arg (Printf.sprintf "Occupancy.release_path: v%d free" v))
    (Path.vertices p);
  List.iter (fun v -> Qec_util.Bitset.remove t.bits v) (Path.vertices p);
  t.epoch <- next_epoch ()

let clear t =
  Qec_util.Bitset.clear t.bits;
  t.epoch <- next_epoch ()

let occupied_count t = Qec_util.Bitset.cardinal t.bits

let utilization t =
  float_of_int (occupied_count t) /. float_of_int (Grid.num_vertices t.grid)

let snapshot t = Qec_util.Bitset.copy t.bits
