(* An object's identity — (kind, base, idx) plus the generation for
   barriers — as a mutable record, so a lookup fills one probe in place
   instead of allocating a tuple key per event.  Only the probe is ever
   mutated; the table holds copies. *)
module Key = struct
  type t = {
    mutable kind : int;
    mutable base : string;
    mutable idx : int;
    mutable gen : int;
  }

  let equal a b =
    a.kind = b.kind && a.idx = b.idx && a.gen = b.gen
    && String.equal a.base b.base

  let hash (k : t) = Hashtbl.hash k
end

module Tbl = Hashtbl.Make (Key)

let kind_lock = 0
let kind_cv = 1
let kind_sem = 2
let kind_barrier = 3

type t = {
  ids : int Tbl.t;
  probe : Key.t;
  mutable n_locks : int;
  mutable n_objects : int;
}

let create () =
  {
    ids = Tbl.create 16;
    probe = { Key.kind = 0; base = ""; idx = 0; gen = 0 };
    n_locks = 0;
    n_objects = 0;
  }

let clear t =
  Tbl.clear t.ids;
  t.n_locks <- 0;
  t.n_objects <- 0

let probe t ~kind ~base ~idx ~gen =
  let k = t.probe in
  k.Key.kind <- kind;
  k.base <- base;
  k.idx <- idx;
  k.gen <- gen;
  k

let intern t ~kind ~base ~idx ~gen =
  let k = probe t ~kind ~base ~idx ~gen in
  match Tbl.find t.ids k with
  | id -> id
  | exception Not_found ->
      let id =
        if kind = kind_lock then begin
          let id = t.n_locks in
          t.n_locks <- id + 1;
          id
        end
        else begin
          let id = t.n_objects in
          t.n_objects <- id + 1;
          id
        end
      in
      Tbl.add t.ids { k with Key.kind } id;
      id

let lock t ~base ~idx = intern t ~kind:kind_lock ~base ~idx ~gen:0

let of_event t ev =
  match (ev : Event.t) with
  | Lock_acq { base; idx; _ } | Lock_rel { base; idx; _ } -> lock t ~base ~idx
  | Cv_signal { base; idx; _ }
  | Cv_wait_begin { base; idx; _ }
  | Cv_wait_return { base; idx; _ } ->
      intern t ~kind:kind_cv ~base ~idx ~gen:0
  | Sem_post_ev { base; idx; _ } | Sem_acquire { base; idx; _ } ->
      intern t ~kind:kind_sem ~base ~idx ~gen:0
  | Barrier_arrive { base; idx; generation; _ }
  | Barrier_pass { base; idx; generation; _ } ->
      intern t ~kind:kind_barrier ~base ~idx ~gen:generation
  | Read _ | Write _ | Spawn_ev _ | Join_return _ | Thread_start _
  | Thread_exit _ | Spin_enter _ | Spin_exit _ ->
      -1

let find_barrier t ~base ~idx ~generation =
  match Tbl.find t.ids (probe t ~kind:kind_barrier ~base ~idx ~gen:generation) with
  | id -> id
  | exception Not_found -> -1

let footprint t = (Tbl.stats t.ids).Hashtbl.num_buckets

let n_locks t = t.n_locks
let n_objects t = t.n_objects
