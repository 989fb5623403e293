let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0. then invalid_arg "Stats.geomean: non-positive value";
          acc +. log x)
        0. xs
    in
    exp (log_sum /. float_of_int (List.length xs))

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.) xs) in
    sqrt var

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty"
  | x :: rest ->
    List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) rest

let nearest_rank p sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

let percentile p xs =
  let sorted = Array.of_list xs in
  Array.stable_sort Float.compare sorted;
  nearest_rank p sorted

let histogram ~buckets xs =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets <= 0";
  if xs = [] then invalid_arg "Stats.histogram: empty";
  let lo, hi = min_max xs in
  (* Degenerate range: every sample equal. Equal-width bucketing would
     divide by a zero range; collapse to one exact bucket instead. *)
  if lo = hi then [| (lo, hi, List.length xs) |]
  else begin
    let width = (hi -. lo) /. float_of_int buckets in
    let counts = Array.make buckets 0 in
    List.iter
      (fun x ->
        let b = int_of_float ((x -. lo) /. width) in
        let b = max 0 (min (buckets - 1) b) in
        counts.(b) <- counts.(b) + 1)
      xs;
    Array.mapi
      (fun i c ->
        let blo = lo +. (float_of_int i *. width) in
        (blo, blo +. width, c))
      counts
  end
