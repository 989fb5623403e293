module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Grid = Qec_lattice.Grid
module Placement = Qec_lattice.Placement

(* Bump on any change to Initial_layout's algorithm, defaults, or this
   key's encoding: old disk entries must never replay as stale hits.
   v2: disk entries carry an md5 trailer so corruption is a miss.
   v3: the key hashes the request circuit, not its lowering, and drops
   the lattice side; entries drop their qubit count (the cells' length). *)
let format_version = "autobraid-placement-cache v3"

type entry = { side : int; cells : int array }

type t = {
  dir : string option;
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  disk_lock : Mutex.t;
      (* serializes this process's disk writes so at most one domain at a
         time holds the cross-process lockf lock — POSIX drops a process's
         fcntl locks when ANY fd on the file closes, so two domains
         locking/unlocking concurrently would silently release each
         other's locks *)
  memory_hits : int Atomic.t;
  disk_hits : int Atomic.t;
  misses : int Atomic.t;
}

type counters = { memory_hits : int; disk_hits : int; misses : int }
type verdict = Memory_hit | Disk_hit | Miss

let create ?dir () =
  let unusable =
    match Option.iter (fun d -> Unix.mkdir d 0o755) dir with
    | () -> None
    | exception Unix.Unix_error (Unix.EEXIST, _, d) ->
      if Sys.file_exists d && Sys.is_directory d then None
      else Some (d, "not a directory")
    | exception Unix.Unix_error (e, _, d) -> Some (d, Unix.error_message e)
  in
  match unusable with
  | Some (d, why) ->
    Error (Printf.sprintf "cannot use cache directory %s: %s" d why)
  | None ->
    Ok
      {
        dir;
        table = Hashtbl.create 64;
        lock = Mutex.create ();
        disk_lock = Mutex.create ();
        memory_hits = Atomic.make 0;
        disk_hits = Atomic.make 0;
        misses = Atomic.make 0;
      }

let counters (t : t) : counters =
  {
    memory_hits = Atomic.get t.memory_hits;
    disk_hits = Atomic.get t.disk_hits;
    misses = Atomic.get t.misses;
  }

let key ~circuit ~method_ ~seed =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf format_version;
  Buffer.add_char buf '\n';
  Printf.bprintf buf "method=%s seed=%d qubits=%d\n"
    (Spec.initial_to_string method_)
    seed (Circuit.num_qubits circuit);
  (* The gate stream without angles: placement (partitioning, snake
     embedding, LLG-census annealing) sees interaction structure and
     layering only. Lowering rewrites a gate from its name and operands
     alone, so this stream determines the lowered one. *)
  Circuit.iter
    (fun _ g ->
      Buffer.add_string buf (Gate.name g);
      List.iter (fun q -> Printf.bprintf buf " %d" q) (Gate.qubits g);
      Buffer.add_char buf '\n')
    circuit;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---------------- disk format ---------------- *)

let path_of t key =
  Option.map (fun d -> Filename.concat d (key ^ ".placement")) t.dir

(* The payload lines are digested together so any corruption of a persisted
   entry — a flipped bit inside a still-parseable digit included — fails the
   trailer check and counts as a miss instead of replaying a wrong
   placement. *)
let entry_payload (e : entry) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "side %d\ncells" e.side;
  Array.iter (fun c -> Printf.bprintf buf " %d" c) e.cells;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let entry_digest e = Digest.to_hex (Digest.string (entry_payload e))

(* Cross-process advisory write lock on <dir>/.lock. Two daemons or
   batches sharing one --cache-dir serialize entry writes here, so their
   tmp files and renames never interleave on the same key. Reads stay
   lock-free by design: the per-entry tmp+rename protocol means a reader
   only ever opens a fully renamed file, and the md5 trailer demotes any
   torn or interleaved bytes that slip through (crash mid-write, NFS) to
   a miss instead of a wrong placement. The lock is best-effort — if the
   lock file cannot be created or locked, writes fall back to bare
   tmp+rename, which is already atomic per entry on POSIX. *)
let with_file_lock dir f =
  let lock_path = Filename.concat dir ".lock" in
  match Unix.openfile lock_path [ Unix.O_CREAT; Unix.O_WRONLY ] 0o644 with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
    let locked =
      match Unix.lockf fd Unix.F_LOCK 0 with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    Fun.protect
      ~finally:(fun () ->
        (if locked then
           try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      f

let write_disk t key (e : entry) =
  match path_of t key with
  | None -> ()
  | Some path -> (
    try
      (* disk_lock first: only one domain of this process may hold the
         lockf lock at a time (see the field's comment), then the
         cross-process lock, then the atomic tmp+rename publish. *)
      Mutex.protect t.disk_lock @@ fun () ->
      with_file_lock (Option.get t.dir) @@ fun () ->
      let tmp, oc =
        Filename.open_temp_file ~temp_dir:(Option.get t.dir) ("." ^ key) ".tmp"
      in
      Printf.fprintf oc "%s\n%smd5 %s\n" format_version (entry_payload e)
        (entry_digest e);
      close_out oc;
      Sys.rename tmp path
    with Sys_error _ | Unix.Unix_error _ ->
      (* A cache write failure must never fail the compilation. *)
      ())

(* A trailing newline lost alone still verifies: the digest is intact. *)
let read_disk t key =
  let parse text =
    match String.split_on_char '\n' text with
    | ([ version; side; cells; digest ] | [ version; side; cells; digest; "" ])
      when String.equal version format_version -> (
      match
        ( String.split_on_char ' ' side,
          String.split_on_char ' ' cells,
          String.split_on_char ' ' digest )
      with
      | [ "side"; side ], "cells" :: cells, [ "md5"; digest ] -> (
        match
          {
            side = int_of_string side;
            cells = Array.of_list (List.map int_of_string cells);
          }
        with
        | e when String.equal (entry_digest e) digest -> Some e
        | _ | (exception Failure _) -> None)
      | _ -> None)
    | _ -> None
  in
  Option.bind (path_of t key) (fun path ->
      match In_channel.with_open_bin path In_channel.input_all with
      | text -> parse text
      | exception Sys_error _ -> None)

(* ---------------- lookup ---------------- *)

let placement_of_entry (e : entry) =
  Placement.create (Grid.create e.side)
    ~num_qubits:(Array.length e.cells)
    ~cells:e.cells

let remember t key e =
  (* Last writer wins: the value is deterministic, so racing workers
     insert identical entries. *)
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.table key e)

let find (t : t) key ~num_qubits =
  let miss () =
    Atomic.incr t.misses;
    (Miss, None)
  in
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table key) with
  | Some e ->
    Atomic.incr t.memory_hits;
    (Memory_hit, Some (placement_of_entry e))
  | None -> (
    match read_disk t key with
    | Some e
      when Array.length e.cells = num_qubits
           && e.side = Qec_surface.Resources.lattice_side ~num_logical:num_qubits
      -> (
      (* [placement_of_entry] re-validates the cells (range,
         distinctness); an entry that defeats the digest but not
         Placement's invariants is still a miss, never a crash. *)
      match placement_of_entry e with
      | p ->
        Atomic.incr t.disk_hits;
        remember t key e;
        (Disk_hit, Some p)
      | exception Invalid_argument _ -> miss ())
    | Some _ | None -> miss ())

let store t key ~side ~cells =
  let e = { side; cells = Array.copy cells } in
  remember t key e;
  write_disk t key e
