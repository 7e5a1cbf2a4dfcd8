open Arde_tir.Types
module Event = Arde_runtime.Event
module Vc = Arde_vclock.Vector_clock
module Tc = Arde_vclock.Thread_clocks
module Kept = Arde_util.Kept

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
   each, on an intrusive per-cell list, allocated at the thread's first
   such access and updated in place after.  Only the nearest
   predecessor is kept: for a racy context the nearest pair is also the
   one with the smallest downset, hence the cheapest closure. *)
type slot = {
  mutable s_tid : int;  (* -1 ends a list *)
  mutable s_ev : int;
  mutable s_clk : int;
  mutable s_loc : loc;
  mutable s_next : slot;
}

let rec no_slot =
  {
    s_tid = -1;
    s_ev = 0;
    s_clk = 0;
    s_loc = { lfunc = ""; lblk = ""; lidx = 0 };
    s_next = no_slot;
  }

(* The scan's state of one cell, hung on the indexer's cell.  The last
   write's release clock is kept as the writer's clock as of its last
   join plus its own component at the write: that is the whole clock,
   since only ticks move a thread's own component, and a write then
   shares its thread's snapshot instead of taking one. *)
type scan = {
  mutable sup : bool;  (* [config.suppress] of the cell's base, resolved once *)
  mutable w_base : Vc.t;
  mutable w_tid : int;
  mutable w_clk : int;
  mutable pw : slot;  (* per-tid last plain write *)
  mutable pr : slot;  (* per-tid last plain read *)
}

let renew_scan sup sc =
  sc.sup <- sup;
  sc.w_base <- Vc.bottom;
  sc.w_tid <- 0;
  sc.w_clk <- 0;
  sc.pw <- no_slot;
  sc.pr <- no_slot

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

(* ------------------------------------------------------------------ *)
(* The per-domain workspace                                           *)

(* Everything a predictor grows with its stream, kept between seeds in
   the domain's {!Kept} slot: taken by [create], reset and handed back
   by [finish].  A predictor that is poisoned or dropped unfinished
   keeps its workspace, which then goes with it, and the next [create]
   on the domain builds a fresh one. *)
type workspace = {
  suppress : (string -> bool) ref;  (* the current config's *)
  ix : scan Sp_trace.indexer;
  tc : Tc.t;  (* the per-thread clocks *)
  vcs : Vc.m array;  (* [tc]'s mutable clocks, for the hot scans *)
  mutable sync_vcs : Vc.t array;  (* per CV, semaphore or barrier-generation id *)
  mutable n_sync_vcs : int;  (* ids below it may be set *)
}

let new_workspace () =
  let suppress = ref (fun _ -> false) in
  let tc = Tc.create max_threads in
  let fresh base =
    { sup = !suppress base; w_base = Vc.bottom; w_tid = 0; w_clk = 0;
      pw = no_slot; pr = no_slot }
  in
  {
    suppress;
    ix =
      Sp_trace.indexer
        ~renew:(fun base sc -> renew_scan (!suppress base) sc)
        fresh;
    tc;
    vcs = Tc.clocks tc;
    sync_vcs = Array.make 8 Vc.bottom;
    n_sync_vcs = 0;
  }

(* Back to the state [new_workspace] gives, keeping every allocation;
   the config's predicate goes too, so a kept workspace holds nothing
   of the program it last served but cells awaiting renewal. *)
let reset ws =
  ws.suppress := (fun _ -> false);
  Sp_trace.reset ws.ix;
  Tc.clear ws.tc;
  Array.fill ws.sync_vcs 0 ws.n_sync_vcs Vc.bottom;
  ws.n_sync_vcs <- 0

let kept = Kept.slot ~footprint:(fun ws -> Sp_trace.footprint ws.ix) ~reset
let retained () = Kept.retained kept

(* ------------------------------------------------------------------ *)
(* The predictor                                                      *)

type t = {
  config : config;
  ws : workspace;
  (* contexts in first-seen order *)
  ctx_tbl : (string * loc * loc, ctx_entry) Hashtbl.t;
  mutable ctx_order : ctx_entry list;
  mutable n_cands : int;
  mutable dropped : int;
  mutable failed : exn option;
}

let create ?(config = default_config) () =
  let ws = Kept.take kept new_workspace in
  ws.suppress := config.suppress;
  {
    config;
    ws;
    ctx_tbl = Hashtbl.create 32;
    ctx_order = [];
    n_cands = 0;
    dropped = 0;
    failed = None;
  }

(* ------------------------------------------------------------------ *)
(* The weak happens-before scan                                       *)

let started ws t = if Vc.mget ws.vcs.(t) t = 0 then Tc.tick ws.tc t

let sync_vc ws id =
  if id < Array.length ws.sync_vcs then ws.sync_vcs.(id) else Vc.bottom

let sync_release p ev t =
  let ws = p.ws in
  let id = Sp_trace.sync_id ws.ix ev in
  if id >= Array.length ws.sync_vcs then
    ws.sync_vcs <- Kept.grow_to ws.sync_vcs (id + 1) Vc.bottom;
  if id >= ws.n_sync_vcs then ws.n_sync_vcs <- id + 1;
  ws.sync_vcs.(id) <- Vc.join ws.sync_vcs.(id) (Tc.snapshot ws.tc t);
  Tc.tick ws.tc t

let sync_acquire p ev t =
  Tc.acquire p.ws.tc t (sync_vc p.ws (Sp_trace.sync_id p.ws.ix ev))

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

(* Every slot of the list at [s] by another thread that the current
   access (event [i] of [tid]) is unordered with becomes a candidate:
   a slot is ordered before it under the weak order iff [tid]'s clock
   has absorbed the slot's local time. *)
let rec scan_slots p (c : scan Sp_trace.cell) ~idx ~w1 ~i ~tid ~loc ~w2 s =
  if s.s_tid >= 0 then begin
    if s.s_tid <> tid && Vc.mget p.ws.vcs.(tid) s.s_tid < s.s_clk then
      candidate p ~base:c.Sp_trace.base ~idx ~e1:s.s_ev ~t1:s.s_tid
        ~l1:s.s_loc ~w1 ~e2:i ~t2:tid ~l2:loc ~w2;
    scan_slots p c ~idx ~w1 ~i ~tid ~loc ~w2 s.s_next
  end

let rec find_slot s tid =
  if s.s_tid < 0 || s.s_tid = tid then s else find_slot s.s_next tid

(* [tid]'s slot of the list at [head] now holds this access; returns
   the list's head, a new slot prepended on the thread's first
   access. *)
let update head tid ev loc clk =
  let s = find_slot head tid in
  if s.s_tid >= 0 then begin
    s.s_ev <- ev;
    s.s_clk <- clk;
    s.s_loc <- loc;
    head
  end
  else { s_tid = tid; s_ev = ev; s_clk = clk; s_loc = loc; s_next = head }

let step p ev =
  let ws = p.ws in
  match ev with
  | Event.Read { tid; base; base_id; idx; loc; kind; _ } ->
      started ws tid;
      let c = Sp_trace.cell ws.ix ~base_id ~base ~idx in
      let sc = c.Sp_trace.data in
      (* The candidate scan runs BEFORE this read's own observation
         edge is absorbed: a candidate pair is tested for ordering by
         its prefixes alone — the closure likewise never consults the
         candidate events' own requirements (they are co-enabled, not
         executed).  Joining first would wrongly prune every
         write→read race in which the read observed the racing
         write. *)
      if kind = Event.Plain && not sc.sup then begin
        let i = Sp_trace.length ws.ix in
        scan_slots p c ~idx ~w1:true ~i ~tid ~loc ~w2:false sc.pw;
        sc.pr <- update sc.pr tid i loc (Vc.mget ws.vcs.(tid) tid)
      end;
      (* observation: the read's thread absorbs its writer's clock —
         the edge inferred ad-hoc sync (spin loops, lowered locks)
         rides on, so it applies to atomics too *)
      if c.Sp_trace.last_write >= 0 then
        Tc.acquire_raised ws.tc tid sc.w_base sc.w_tid sc.w_clk;
      Sp_trace.read ws.ix ~tid c
  | Event.Write { tid; base; base_id; idx; loc; kind; _ } ->
      started ws tid;
      let c = Sp_trace.cell ws.ix ~base_id ~base ~idx in
      let sc = c.Sp_trace.data in
      if kind = Event.Plain && not sc.sup then begin
        let i = Sp_trace.length ws.ix in
        scan_slots p c ~idx ~w1:true ~i ~tid ~loc ~w2:true sc.pw;
        scan_slots p c ~idx ~w1:false ~i ~tid ~loc ~w2:true sc.pr;
        sc.pw <- update sc.pw tid i loc (Vc.mget ws.vcs.(tid) tid)
      end;
      (* every write is an observation source, whatever its kind *)
      sc.w_base <- Tc.joined ws.tc tid;
      sc.w_tid <- tid;
      sc.w_clk <- Vc.mget ws.vcs.(tid) tid;
      Tc.tick ws.tc tid;
      Sp_trace.write ws.ix ~tid c
  | _ -> (
      (match ev with
      | Event.Thread_start { tid } -> started ws tid
      | Event.Spawn_ev { parent; child; _ } ->
          started ws parent;
          Tc.spawn ws.tc ~parent ~child
      | Event.Thread_exit { tid } ->
          started ws tid;
          Tc.exit ws.tc tid
      | Event.Join_return { tid; target; _ } ->
          started ws tid;
          Tc.join_exit ws.tc tid ~target
      | Event.Cv_signal { tid; _ }
      | Event.Barrier_arrive { tid; _ }
      | Event.Sem_post_ev { tid; _ } ->
          started ws tid;
          sync_release p ev tid
      | Event.Cv_wait_return { tid; _ }
      | Event.Barrier_pass { tid; _ }
      | Event.Sem_acquire { tid; _ } ->
          started ws tid;
          sync_acquire p ev tid
      (* native lock order is deliberately absent from the weak order —
         reorderings may permute critical sections; the closure's lock
         rule enforces mutual exclusion instead *)
      | Event.Lock_acq { tid; _ } | Event.Lock_rel { tid; _ } -> started ws tid
      | Event.Read _ | Event.Write _ | Event.Cv_wait_begin _
      | Event.Spin_enter _ | Event.Spin_exit _ ->
          ());
      Sp_trace.push ws.ix ev)

(* Fail open: the predictor sits in front of the seed's engine, so an
   exception here must not reach the machine.  The first one poisons
   the predictor and [finish] re-raises it. *)
let observe p ev =
  match p.failed with
  | Some _ -> ()
  | None -> ( try step p ev with e -> p.failed <- Some e)

(* ------------------------------------------------------------------ *)
(* The closure pass: contexts in discovery order, nearest pairs first *)

let finished = Invalid_argument "Sp_predict.finish: the predictor has finished"

(* The workspace goes back to the domain only once the result is built:
   an exception from the closures drops it with the predictor. *)
let finish p =
  Option.iter raise p.failed;
  p.failed <- Some finished;
  let n = Sp_trace.length p.ws.ix in
  let w = Sp_trace.ideal (Sp_trace.finish p.ws.ix) in
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
  let stats =
    {
      s_events = n;
      s_candidates = p.n_cands;
      s_contexts = List.length p.ctx_order;
      s_predicted = List.length races;
      s_closure_runs = !runs;
      s_closure_steps = !steps;
      s_budget_hits = !budget_hits;
      s_dropped_contexts = p.dropped;
    }
  in
  Kept.give_back kept p.ws;
  (races, stats)

let predict ?config events =
  let p = create ?config () in
  Array.iter (observe p) events;
  finish p
