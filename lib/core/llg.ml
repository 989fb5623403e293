module Bbox = Qec_lattice.Bbox

type group = { members : Task.t list; bbox : Bbox.t }

(* Flat fixpoint. Group g (named by its lowest task index) keeps its
   joint box in four int arrays and its task indices in [indices.(g)],
   which is empty once g has been merged into a lower group. Sweep all
   live pairs, merging any whose joint boxes intersect, until a sweep
   merges nothing. Every merge is forced — two groups whose boxes meet
   lie in one group of any partition with pairwise disjoint joint boxes —
   so the result is the finest such partition, whatever the merge order. *)
type partition = {
  indices : int list array;
  x0 : int array;
  y0 : int array;
  x1 : int array;
  y1 : int array;
}

let partition (boxes : Bbox.t array) =
  let p =
    {
      indices = Array.mapi (fun i _ -> [ i ]) boxes;
      x0 = Array.map (fun (b : Bbox.t) -> b.x0) boxes;
      y0 = Array.map (fun (b : Bbox.t) -> b.y0) boxes;
      x1 = Array.map (fun (b : Bbox.t) -> b.x1) boxes;
      y1 = Array.map (fun (b : Bbox.t) -> b.y1) boxes;
    }
  in
  let n = Array.length boxes in
  let changed = ref true in
  while !changed do
    changed := false;
    for g = 0 to n - 1 do
      if p.indices.(g) <> [] then
        for h = g + 1 to n - 1 do
          if
            p.indices.(h) <> []
            && p.x0.(g) <= p.x1.(h)
            && p.x0.(h) <= p.x1.(g)
            && p.y0.(g) <= p.y1.(h)
            && p.y0.(h) <= p.y1.(g)
          then begin
            p.indices.(g) <- List.rev_append p.indices.(h) p.indices.(g);
            p.indices.(h) <- [];
            p.x0.(g) <- min p.x0.(g) p.x0.(h);
            p.y0.(g) <- min p.y0.(g) p.y0.(h);
            p.x1.(g) <- max p.x1.(g) p.x1.(h);
            p.y1.(g) <- max p.y1.(g) p.y1.(h);
            changed := true
          end
        done
    done
  done;
  p

let boxes_of placement arr = Array.map (fun t -> Task.bbox placement t) arr

let joint_box p g =
  Bbox.make ~x0:p.x0.(g) ~y0:p.y0.(g) ~x1:p.x1.(g) ~y1:p.y1.(g)

let decompose placement tasks =
  let arr = Array.of_list tasks in
  let p = partition (boxes_of placement arr) in
  let groups = ref [] in
  for g = Array.length arr - 1 downto 0 do
    if p.indices.(g) <> [] then begin
      let members =
        List.map (fun i -> arr.(i)) p.indices.(g)
        |> List.sort (fun (a : Task.t) b -> compare a.id b.id)
      in
      groups := { members; bbox = joint_box p g } :: !groups
    end
  done;
  List.sort
    (fun g1 g2 ->
      compare (List.hd g1.members).Task.id (List.hd g2.members).Task.id)
    !groups

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
  let p = partition boxes in
  let out = Array.make (Array.length boxes) None in
  Array.iteri
    (fun g members ->
      if
        members <> []
        && (List.compare_length_with members 3 <= 0
           || nested_chain (List.map (fun i -> boxes.(i)) members))
      then begin
        let box = Some (joint_box p g) in
        List.iter (fun i -> out.(i) <- box) members
      end)
    p.indices;
  out

let count_oversize placement tasks =
  let p = partition (boxes_of placement (Array.of_list tasks)) in
  Array.fold_left
    (fun acc ms -> if List.compare_length_with ms 3 > 0 then acc + 1 else acc)
    0 p.indices
