type t = { words : int array; cap : int }

let words_for n = (n + 62) / 63

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make (words_for n) 0; cap = n }

let capacity t = t.cap

let copy t = { words = Array.copy t.words; cap = t.cap }

let check t i =
  if i < 0 || i >= t.cap then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / 63) land (1 lsl (i mod 63)) <> 0

let add t i =
  check t i;
  t.words.(i / 63) <- t.words.(i / 63) lor (1 lsl (i mod 63))

let remove t i =
  check t i;
  t.words.(i / 63) <- t.words.(i / 63) land lnot (1 lsl (i mod 63))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* Number of trailing zero bits of a nonzero word: the bit index of its
   lowest set bit. Branchy binary reduction — no hardware ctz in the
   stdlib, and this is hot enough in packed-adjacency iteration to matter
   more than elegance. *)
let ntz x =
  if x = 0 then invalid_arg "Bitset.ntz: zero word";
  let n = ref 0 in
  let x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    x := !x lsr 32
  end;
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

(* Only the words covering [lo .. hi] are read; the bits of the two end
   words that fall outside the range are masked off. *)
let iter_range f t ~lo ~hi =
  let lo = max lo 0 and hi = min hi (t.cap - 1) in
  if lo <= hi then begin
    let wlo = lo / 63 and whi = hi / 63 in
    for wi = wlo to whi do
      let w = ref t.words.(wi) in
      if wi = wlo then w := !w land (-1 lsl (lo mod 63));
      if wi = whi then w := !w land (-1 lsr (62 - (hi mod 63)));
      while !w <> 0 do
        let b = !w land - !w in
        f ((wi * 63) + ntz b);
        w := !w land lnot b
      done
    done
  end

let iter f t = iter_range f t ~lo:0 ~hi:(t.cap - 1)

let union_into ~dst src =
  if dst.cap <> src.cap then invalid_arg "Bitset.union_into: capacity mismatch";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let inter_cardinal a b =
  if a.cap <> b.cap then invalid_arg "Bitset.inter_cardinal: capacity mismatch";
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc
