open Types

type t = {
  names : Names.t; (* base name -> id, in first-declared order *)
  sizes : int array;
  declared : bool array;
}

let of_program (p : program) =
  let names = Names.create 64 in
  let intern s = Names.intern names s 0 (String.length s) in
  List.iter (fun gl -> ignore (intern gl.gname)) p.globals;
  let n_declared = Names.count names in
  (* The machine emits a [__thread_done] write for every thread exit even
     when the program never declared the global (it only stores to it when
     declared); interning it unconditionally keeps every machine-produced
     event id-resolvable. *)
  let td = intern thread_done_global in
  (* Duplicate declarations: the machine's last declaration wins for the
     row, so take the max extent as a safe sizing bound for shadow rows.
     __thread_done cells index up to [max_threads - 1] regardless of the
     declared size, so its interned extent covers both. *)
  let sizes = Array.make (Names.count names) 0 in
  List.iter
    (fun gl ->
      let i = intern gl.gname in
      sizes.(i) <- max sizes.(i) (max 0 gl.size))
    p.globals;
  sizes.(td) <- max sizes.(td) max_threads;
  {
    names;
    sizes;
    declared = Array.init (Names.count names) (fun i -> i < n_declared);
  }

let id t name = Names.find t.names name 0 (String.length name)
let name t i = Names.name t.names i
let size t i = t.sizes.(i)
let declared t i = t.declared.(i)
let n_bases t = Names.count t.names
