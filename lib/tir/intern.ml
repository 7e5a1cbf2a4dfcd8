open Types

type t = {
  names : string array;
  sizes : int array;
  declared : bool array;
  ids : (string, int) Hashtbl.t;
}

let of_program (p : program) =
  let ids = Hashtbl.create 64 in
  let rev = ref [] and n = ref 0 in
  let add name size declared =
    match Hashtbl.find_opt ids name with
    | Some _ -> ()
    | None ->
        Hashtbl.replace ids name !n;
        rev := (name, size, declared) :: !rev;
        incr n
  in
  List.iter (fun gl -> add gl.gname gl.size true) p.globals;
  (* The machine emits a [__thread_done] write for every thread exit even
     when the program never declared the global (it only stores to it when
     declared); interning it unconditionally keeps every machine-produced
     event id-resolvable. *)
  add thread_done_global max_threads false;
  let entries = Array.of_list (List.rev !rev) in
  let names = Array.map (fun (nm, _, _) -> nm) entries in
  let sizes = Array.map (fun (_, s, _) -> max 0 s) entries in
  let declared = Array.map (fun (_, _, d) -> d) entries in
  (* __thread_done cells index up to [max_threads - 1] regardless of the
     declared size, so its interned extent covers both. *)
  (* Duplicate declarations: the machine's last declaration wins for the
     row, so take the max extent as a safe sizing bound for shadow rows. *)
  List.iter
    (fun gl ->
      match Hashtbl.find_opt ids gl.gname with
      | Some i -> sizes.(i) <- max sizes.(i) (max 0 gl.size)
      | None -> ())
    p.globals;
  (match Hashtbl.find_opt ids thread_done_global with
  | Some id -> sizes.(id) <- max sizes.(id) max_threads
  | None -> ());
  { names; sizes; declared; ids }

let id t name = match Hashtbl.find_opt t.ids name with Some i -> i | None -> -1
let name t i = t.names.(i)
let size t i = t.sizes.(i)
let declared t i = t.declared.(i)
let n_bases t = Array.length t.names
