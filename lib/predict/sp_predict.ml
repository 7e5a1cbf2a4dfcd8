open Arde_tir.Types
module Event = Arde_runtime.Event
module Vc = Arde_vclock.Vector_clock

type config = {
  suppress : string -> bool;
  max_pairs_per_context : int;
  max_contexts : int;
  closure_budget : int;
}

let default_config =
  {
    suppress = (fun _ -> false);
    max_pairs_per_context = 4;
    max_contexts = 4096;
    closure_budget = 200_000;
  }

type race = {
  p_base : string;
  p_idx : int;
  p_first_tid : int;
  p_first_loc : loc;
  p_first_write : bool;
  p_second_tid : int;
  p_second_loc : loc;
  p_second_write : bool;
}

type stats = {
  s_events : int;
  s_candidates : int;
  s_contexts : int;
  s_predicted : int;
  s_closure_runs : int;
  s_closure_steps : int;
  s_budget_hits : int;
  s_dropped_contexts : int;
}

(* ------------------------------------------------------------------ *)
(* Candidate bookkeeping                                              *)

(* The last plain access per (cell, thread, kind) — one mutable slot
   each, so the steady state allocates nothing.  Only the nearest
   predecessor is kept: for a racy context the nearest pair is also the
   one with the smallest downset, hence the cheapest closure. *)
type slot = { mutable s_ev : int; mutable s_clk : int; mutable s_loc : loc }

(* The scan's state of one cell, hung on the indexer's cell. *)
type scan = {
  sup : bool;  (* [config.suppress] of the cell's base, resolved once *)
  mutable writer_vc : Vc.t;  (* the last write's release clock *)
  mutable pw : (int * slot) list;  (* per-tid last plain write *)
  mutable pr : (int * slot) list;  (* per-tid last plain read *)
}

type cand = {
  c_e1 : int;
  c_t1 : int;
  c_l1 : loc;
  c_w1 : bool;
  c_e2 : int;
  c_t2 : int;
  c_l2 : loc;
  c_w2 : bool;
  c_idx : int;
}

type ctx_entry = {
  x_base : string;
  x_lo : loc;
  x_hi : loc;
  mutable x_cands : cand list;  (* reversed; oldest last *)
  mutable x_n : int;
}

let context_key l1 l2 = if compare_loc l1 l2 <= 0 then (l1, l2) else (l2, l1)

type t = {
  config : config;
  ix : scan Sp_trace.indexer;
  vcs : Vc.m array;
  snaps : Vc.t array;
  snap_ok : bool array;
  exit_vcs : Vc.t array;
  cv_vc : (string * int, Vc.t) Hashtbl.t;
  sem_vc : (string * int, Vc.t) Hashtbl.t;
  barrier_vc : (string * int * int, Vc.t) Hashtbl.t;
  (* contexts in first-seen order *)
  ctx_tbl : (string * loc * loc, ctx_entry) Hashtbl.t;
  mutable ctx_order : ctx_entry list;
  mutable n_cands : int;
  mutable dropped : int;
  mutable failed : exn option;
}

let create ?(config = default_config) () =
  let nthreads = max_threads in
  {
    config;
    ix =
      Sp_trace.indexer (fun base ->
          {
            sup = config.suppress base;
            writer_vc = Vc.bottom;
            pw = [];
            pr = [];
          });
    vcs = Array.init nthreads (fun t -> Vc.make_mut ~owner:t nthreads);
    snaps = Array.make nthreads Vc.bottom;
    snap_ok = Array.make nthreads true;
    exit_vcs = Array.make nthreads Vc.bottom;
    cv_vc = Hashtbl.create 8;
    sem_vc = Hashtbl.create 8;
    barrier_vc = Hashtbl.create 8;
    ctx_tbl = Hashtbl.create 32;
    ctx_order = [];
    n_cands = 0;
    dropped = 0;
    failed = None;
  }

(* ------------------------------------------------------------------ *)
(* The weak happens-before scan                                       *)

let tick p t =
  Vc.mtick p.vcs.(t) t;
  p.snap_ok.(t) <- false

let started p t = if Vc.mget p.vcs.(t) t = 0 then tick p t
let join p t c = if Vc.mjoin_changed p.vcs.(t) c then p.snap_ok.(t) <- false

let snap p t =
  if p.snap_ok.(t) then p.snaps.(t)
  else begin
    let s = Vc.snapshot p.vcs.(t) in
    p.snaps.(t) <- s;
    p.snap_ok.(t) <- true;
    s
  end

let table_get tbl key =
  Option.value ~default:Vc.bottom (Hashtbl.find_opt tbl key)

let table_join p tbl key t =
  Hashtbl.replace tbl key (Vc.join (table_get tbl key) (snap p t));
  tick p t

let candidate p ~base ~idx ~e1 ~t1 ~l1 ~w1 ~e2 ~t2 ~l2 ~w2 =
  let cand =
    { c_e1 = e1; c_t1 = t1; c_l1 = l1; c_w1 = w1; c_e2 = e2; c_t2 = t2;
      c_l2 = l2; c_w2 = w2; c_idx = idx }
  in
  let lo, hi = context_key l1 l2 in
  let key = (base, lo, hi) in
  match Hashtbl.find_opt p.ctx_tbl key with
  | Some e ->
      if e.x_n < p.config.max_pairs_per_context then begin
        e.x_cands <- cand :: e.x_cands;
        e.x_n <- e.x_n + 1;
        p.n_cands <- p.n_cands + 1
      end
  | None ->
      if Hashtbl.length p.ctx_tbl >= p.config.max_contexts then
        p.dropped <- p.dropped + 1
      else begin
        let e =
          { x_base = base; x_lo = lo; x_hi = hi; x_cands = [ cand ]; x_n = 1 }
        in
        Hashtbl.replace p.ctx_tbl key e;
        p.ctx_order <- e :: p.ctx_order;
        p.n_cands <- p.n_cands + 1
      end

(* Every slot of [slots] by another thread that the current access
   (event [i] of [tid]) is unordered with becomes a candidate: [slot] is
   ordered before it under the weak order iff [tid]'s clock has absorbed
   the slot's local time. *)
let rec scan_slots p (c : scan Sp_trace.cell) ~idx ~w1 ~i ~tid ~loc ~w2 =
  function
  | [] -> ()
  | (t1, (s : slot)) :: rest ->
      if t1 <> tid && Vc.mget p.vcs.(tid) t1 < s.s_clk then
        candidate p ~base:c.Sp_trace.base ~idx ~e1:s.s_ev ~t1 ~l1:s.s_loc ~w1
          ~e2:i ~t2:tid ~l2:loc ~w2;
      scan_slots p c ~idx ~w1 ~i ~tid ~loc ~w2 rest

let update slots tid ev loc clk =
  match List.assq_opt tid slots with
  | Some s ->
      s.s_ev <- ev;
      s.s_clk <- clk;
      s.s_loc <- loc;
      slots
  | None -> (tid, { s_ev = ev; s_clk = clk; s_loc = loc }) :: slots

let step p ev =
  match ev with
  | Event.Read { tid; base; base_id; idx; loc; kind; _ } ->
      started p tid;
      let c = Sp_trace.cell p.ix ~base_id ~base ~idx in
      let sc = c.Sp_trace.data in
      (* The candidate scan runs BEFORE this read's own observation
         edge is absorbed: a candidate pair is tested for ordering by
         its prefixes alone — the closure likewise never consults the
         candidate events' own requirements (they are co-enabled, not
         executed).  Joining first would wrongly prune every
         write→read race in which the read observed the racing
         write. *)
      if kind = Event.Plain && not sc.sup then begin
        let i = Sp_trace.length p.ix in
        scan_slots p c ~idx ~w1:true ~i ~tid ~loc ~w2:false sc.pw;
        sc.pr <- update sc.pr tid i loc (Vc.mget p.vcs.(tid) tid)
      end;
      (* observation: the read's thread absorbs its writer's clock —
         the edge inferred ad-hoc sync (spin loops, lowered locks)
         rides on, so it applies to atomics too *)
      if c.Sp_trace.last_write >= 0 then join p tid sc.writer_vc;
      Sp_trace.read p.ix ~tid c
  | Event.Write { tid; base; base_id; idx; loc; kind; _ } ->
      started p tid;
      let c = Sp_trace.cell p.ix ~base_id ~base ~idx in
      let sc = c.Sp_trace.data in
      if kind = Event.Plain && not sc.sup then begin
        let i = Sp_trace.length p.ix in
        scan_slots p c ~idx ~w1:true ~i ~tid ~loc ~w2:true sc.pw;
        scan_slots p c ~idx ~w1:false ~i ~tid ~loc ~w2:true sc.pr;
        sc.pw <- update sc.pw tid i loc (Vc.mget p.vcs.(tid) tid)
      end;
      (* every write is an observation source, whatever its kind *)
      sc.writer_vc <- snap p tid;
      tick p tid;
      Sp_trace.write p.ix ~tid c
  | _ -> (
      (match ev with
      | Event.Thread_start { tid } -> started p tid
      | Event.Spawn_ev { parent; child; _ } ->
          started p parent;
          Vc.mjoin_m p.vcs.(child) p.vcs.(parent);
          p.snap_ok.(child) <- false;
          tick p child;
          tick p parent
      | Event.Thread_exit { tid } ->
          started p tid;
          p.exit_vcs.(tid) <- snap p tid
      | Event.Join_return { tid; target; _ } ->
          started p tid;
          join p tid p.exit_vcs.(target)
      | Event.Cv_signal { tid; base; idx; _ } ->
          started p tid;
          table_join p p.cv_vc (base, idx) tid
      | Event.Cv_wait_return { tid; base; idx; _ } ->
          started p tid;
          join p tid (table_get p.cv_vc (base, idx))
      | Event.Barrier_arrive { tid; base; idx; generation; _ } ->
          started p tid;
          table_join p p.barrier_vc (base, idx, generation) tid
      | Event.Barrier_pass { tid; base; idx; generation; _ } ->
          started p tid;
          join p tid (table_get p.barrier_vc (base, idx, generation))
      | Event.Sem_post_ev { tid; base; idx; _ } ->
          started p tid;
          table_join p p.sem_vc (base, idx) tid
      | Event.Sem_acquire { tid; base; idx; _ } ->
          started p tid;
          join p tid (table_get p.sem_vc (base, idx))
      (* native lock order is deliberately absent from the weak order —
         reorderings may permute critical sections; the closure's lock
         rule enforces mutual exclusion instead *)
      | Event.Lock_acq { tid; _ } | Event.Lock_rel { tid; _ } -> started p tid
      | Event.Read _ | Event.Write _ | Event.Cv_wait_begin _
      | Event.Spin_enter _ | Event.Spin_exit _ ->
          ());
      Sp_trace.push p.ix ev)

(* Fail open: the predictor sits in front of the seed's engine, so an
   exception here must not reach the machine.  The first one poisons
   the predictor and [finish] re-raises it. *)
let observe p ev =
  match p.failed with
  | Some _ -> ()
  | None -> ( try step p ev with e -> p.failed <- Some e)

(* ------------------------------------------------------------------ *)
(* The closure pass: contexts in discovery order, nearest pairs first *)

let finish p =
  Option.iter raise p.failed;
  let n = Sp_trace.length p.ix in
  let w = Sp_trace.ideal (Sp_trace.finish p.ix) in
  let runs = ref 0 and steps = ref 0 and budget_hits = ref 0 in
  let races =
    List.filter_map
      (fun e ->
        let rec try_cands = function
          | [] -> None
          | c :: rest -> (
              incr runs;
              let verdict, used =
                Sp_trace.closure w ~e1:c.c_e1 ~e2:c.c_e2
                  ~budget:p.config.closure_budget
              in
              steps := !steps + used;
              match verdict with
              | Sp_trace.Concurrent ->
                  Some
                    {
                      p_base = e.x_base;
                      p_idx = c.c_idx;
                      p_first_tid = c.c_t1;
                      p_first_loc = c.c_l1;
                      p_first_write = c.c_w1;
                      p_second_tid = c.c_t2;
                      p_second_loc = c.c_l2;
                      p_second_write = c.c_w2;
                    }
              | Sp_trace.Ordered -> try_cands rest
              | Sp_trace.Budget_exceeded ->
                  incr budget_hits;
                  try_cands rest)
        in
        try_cands (List.rev e.x_cands))
      (List.rev p.ctx_order)
  in
  ( races,
    {
      s_events = n;
      s_candidates = p.n_cands;
      s_contexts = List.length p.ctx_order;
      s_predicted = List.length races;
      s_closure_runs = !runs;
      s_closure_steps = !steps;
      s_budget_hits = !budget_hits;
      s_dropped_contexts = p.dropped;
    } )

let predict ?config events =
  let p = create ?config () in
  Array.iter (observe p) events;
  finish p
