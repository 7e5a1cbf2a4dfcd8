open Arde_tir.Types
module Event = Arde_runtime.Event

type diagnostic =
  | Lost_signal of {
      cv : string * int;
      signal_loc : loc;
      wait_loc : loc;
      wait_tid : int;
    }
  | Unsafe_wait of { wait_loc : loc }

type cv_state = {
  mutable void_signal : loc option; (* latest signal that found no waiter *)
  mutable pending : (int * loc) list; (* waits begun and not yet returned *)
}

type t = { cvs : (string * int, cv_state) Hashtbl.t }

let create () = { cvs = Hashtbl.create 8 }

let state t key =
  match Hashtbl.find_opt t.cvs key with
  | Some s -> s
  | None ->
      let s = { void_signal = None; pending = [] } in
      Hashtbl.replace t.cvs key s;
      s

let observer t (ev : Event.t) =
  match ev with
  | Event.Cv_signal { base; idx; loc; had_waiter; _ } ->
      let s = state t (base, idx) in
      if not had_waiter then s.void_signal <- Some loc
  | Event.Cv_wait_begin { tid; base; idx; loc } ->
      let s = state t (base, idx) in
      s.pending <- (tid, loc) :: s.pending
  | Event.Cv_wait_return { tid; base; idx; _ } ->
      let s = state t (base, idx) in
      s.pending <- List.filter (fun (w, _) -> w <> tid) s.pending
  | _ -> ()

let finalize t =
  Hashtbl.fold
    (fun key s acc ->
      match s.void_signal with
      | Some signal_loc ->
          List.fold_left
            (fun acc (wait_tid, wait_loc) ->
              Lost_signal { cv = key; signal_loc; wait_loc; wait_tid } :: acc)
            acc s.pending
      | None -> acc)
    t.cvs []

(* Static: a cond_wait outside every natural loop of its function cannot
   re-check the predicate after waking.  Only a function holding a
   cond_wait can yield a diagnostic, so only those pay for the CFG,
   dominators and loops. *)
let has_cond_wait f =
  List.exists
    (fun b -> List.exists (function Cond_wait _ -> true | _ -> false) b.ins)
    f.blocks

let static_check (p : program) =
  List.concat_map
    (fun f ->
      if not (has_cond_wait f) then []
      else
        let gr = Arde_cfg.Graph.of_func f in
        let dom = Arde_cfg.Dominators.compute gr in
        let loops = Arde_cfg.Loops.find gr dom in
        let in_any_loop bi =
          List.exists (fun l -> Arde_cfg.Loops.mem l bi) loops
        in
        List.concat
          (List.mapi
             (fun bi b ->
               List.concat
                 (List.mapi
                    (fun ii ins ->
                      match ins with
                      | Cond_wait _ when not (in_any_loop bi) ->
                          [
                            Unsafe_wait
                              {
                                wait_loc =
                                  { lfunc = f.fname; lblk = b.lbl; lidx = ii };
                              };
                          ]
                      | _ -> [])
                    b.ins))
             f.blocks))
    p.funcs

let pp_diagnostic ppf = function
  | Lost_signal { cv = base, idx; signal_loc; wait_loc; wait_tid } ->
      Format.fprintf ppf
        "lost signal on %s[%d]: signal at %a found no waiter; T%d still \
         blocked in wait at %a"
        base idx Arde_tir.Pretty.loc signal_loc wait_tid Arde_tir.Pretty.loc
        wait_loc
  | Unsafe_wait { wait_loc } ->
      Format.fprintf ppf
        "wait at %a has no predicate re-check loop (spurious-wakeup hazard)"
        Arde_tir.Pretty.loc wait_loc
