open Arde_tir.Types
module SS = Set.Make (String)

type callee_summary = {
  cs_blocks : int;
  cs_loads : loc list;
  cs_bases : string list;
  cs_stores : string list;
  cs_opaque : bool;
}

type ctx = {
  lookup : string -> func option;
  memo : (string, callee_summary) Hashtbl.t;
  mutable in_progress : SS.t;
}

let make_ctx (p : program) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace tbl f.fname f) p.funcs;
  {
    lookup = (fun name -> Hashtbl.find_opt tbl name);
    memo = Hashtbl.create 16;
    in_progress = SS.empty;
  }

let operand_regs = function Imm _ -> SS.empty | Reg x -> SS.singleton x
let union_ops ops = List.fold_left (fun acc o -> SS.union acc (operand_regs o)) SS.empty ops

(* Registers an instruction defines / the registers it consumes when its
   definition is condition-relevant. *)
let defs = function
  | Mov (d, _) | Binop (d, _, _, _) | Cmp (d, _, _, _) | Load (d, _)
  | Cas (d, _, _, _) | Rmw (d, _, _, _) | Spawn (d, _, _) ->
      Some d
  | Call (Some d, _, _) | Call_indirect (Some d, _, _) -> Some d
  | Call (None, _, _) | Call_indirect (None, _, _) | Store _ | Join _ | Lock _
  | Unlock _ | Cond_wait _ | Cond_signal _ | Cond_broadcast _ | Barrier_init _
  | Barrier_wait _ | Sem_init _ | Sem_post _ | Sem_wait _ | Fence | Yield
  | Check _ | Nop ->
      None

let uses = function
  | Mov (_, o) -> operand_regs o
  | Binop (_, _, a, b) | Cmp (_, _, a, b) -> SS.union (operand_regs a) (operand_regs b)
  | Load (_, a) -> operand_regs a.index
  | Cas (_, a, e, n) -> union_ops [ a.index; e; n ]
  | Rmw (_, _, a, v) -> union_ops [ a.index; v ]
  | Call (_, _, args) -> union_ops args
  | Call_indirect (_, t, args) -> union_ops (t :: args)
  | Spawn (_, _, args) -> union_ops args
  | Store (a, v) -> union_ops [ a.index; v ]
  | Join t -> operand_regs t
  | Check (v, _) -> operand_regs v
  | Lock _ | Unlock _ | Cond_wait _ | Cond_signal _ | Cond_broadcast _
  | Barrier_init _ | Barrier_wait _ | Sem_init _ | Sem_post _ | Sem_wait _
  | Fence | Yield | Nop ->
      SS.empty

let stored_base = function
  | Store (a, _) | Cas (_, a, _, _) | Rmw (_, _, a, _) -> Some a.base
  | _ -> None

(* Generic slice fixpoint over a set of located instructions.  [seeds] are
   the initially relevant registers.  Returns the relevant-register set and
   the in-slice instructions. *)
let fixpoint instrs seeds =
  let relevant = ref seeds in
  let in_slice = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (l, i) ->
        if not (Hashtbl.mem in_slice l) then
          match defs i with
          | Some d when SS.mem d !relevant ->
              Hashtbl.replace in_slice l i;
              let u = uses i in
              if not (SS.subset u !relevant) then begin
                relevant := SS.union !relevant u;
                changed := true
              end;
              (* A new in-slice instruction can unlock others even when it
                 adds no new registers. *)
              changed := true
          | _ -> ())
      instrs
  done;
  Hashtbl.fold (fun l i acc -> (l, i) :: acc) in_slice []

let located_instrs fname (blocks : block list) =
  List.concat_map
    (fun b ->
      List.mapi (fun idx i -> ({ lfunc = fname; lblk = b.lbl; lidx = idx }, i)) b.ins)
    blocks

(* All bases stored by [f] and, transitively, by its direct callees. *)
let rec all_stores ctx visited fname =
  if SS.mem fname visited then SS.empty
  else
    match ctx.lookup fname with
    | None -> SS.empty
    | Some f ->
        let visited = SS.add fname visited in
        List.fold_left
          (fun acc b ->
            List.fold_left
              (fun acc i ->
                let acc =
                  match stored_base i with Some s -> SS.add s acc | None -> acc
                in
                match i with
                | Call (_, callee, _) | Spawn (_, callee, _) ->
                    SS.union acc (all_stores ctx visited callee)
                | _ -> acc)
              acc b.ins)
          SS.empty f.blocks

let rec summary ctx fname =
  match Hashtbl.find_opt ctx.memo fname with
  | Some s -> s
  | None ->
      if SS.mem fname ctx.in_progress then
        (* Recursive condition evaluation: opaque, like the paper's
           unanalyzable cases. *)
        { cs_blocks = 0; cs_loads = []; cs_bases = []; cs_stores = []; cs_opaque = true }
      else begin
        ctx.in_progress <- SS.add fname ctx.in_progress;
        let s = compute_summary ctx fname in
        ctx.in_progress <- SS.remove fname ctx.in_progress;
        Hashtbl.replace ctx.memo fname s;
        s
      end

and compute_summary ctx fname =
  match ctx.lookup fname with
  | None ->
      { cs_blocks = 0; cs_loads = []; cs_bases = []; cs_stores = []; cs_opaque = true }
  | Some f ->
      let instrs = located_instrs fname f.blocks in
      (* The returned value depends on returned registers (data) and on
         every branch that selects which return executes (control) — a
         condition helper typically computes `if load .. then ret 1 else
         ret 0`, where the dependence is purely control. *)
      let seeds =
        List.fold_left
          (fun acc b ->
            match b.term with
            | Ret (Some o) -> SS.union acc (operand_regs o)
            | Br (o, _, _) -> SS.union acc (operand_regs o)
            | Ret None | Goto _ | Exit -> acc)
          SS.empty f.blocks
      in
      let in_slice = fixpoint instrs seeds in
      let init =
        {
          cs_blocks = List.length f.blocks;
          cs_loads = [];
          cs_bases = [];
          cs_stores = SS.elements (all_stores ctx SS.empty fname);
          cs_opaque = false;
        }
      in
      List.fold_left
        (fun acc (l, i) ->
          match i with
          | Load (_, a) ->
              { acc with cs_loads = l :: acc.cs_loads; cs_bases = a.base :: acc.cs_bases }
          | Cas (_, a, _, _) | Rmw (_, _, a, _) ->
              (* Atomic in the return slice: also a memory read. *)
              { acc with cs_loads = l :: acc.cs_loads; cs_bases = a.base :: acc.cs_bases }
          | Call (Some _, callee, _) ->
              let s = summary ctx callee in
              {
                acc with
                cs_blocks = acc.cs_blocks + s.cs_blocks;
                cs_loads = s.cs_loads @ acc.cs_loads;
                cs_bases = s.cs_bases @ acc.cs_bases;
                cs_opaque = acc.cs_opaque || s.cs_opaque;
              }
          | Call_indirect (Some _, _, _) -> { acc with cs_opaque = true }
          | _ -> acc)
        init in_slice

type cond_slice = {
  loads : loc list;
  bases : string list;
  callee_blocks : int;
  callees : string list;
  opaque : bool;
  store_bases : string list;
}

let of_loop ctx (g : Graph.t) (loop : Loops.loop) =
  let fname = g.func.fname in
  let body_blocks = List.map (fun i -> g.blocks.(i)) loop.body in
  let instrs = located_instrs fname body_blocks in
  let seeds =
    List.fold_left
      (fun acc bi ->
        let b = g.blocks.(bi) in
        let is_exit = List.exists (fun s -> not (Loops.mem loop s)) g.succs.(bi) in
        match b.term with
        | Br (o, _, _) when is_exit -> SS.union acc (operand_regs o)
        | Br _ | Goto _ | Ret _ | Exit -> acc)
      SS.empty loop.body
  in
  let in_slice = fixpoint instrs seeds in
  let stores_in_body =
    List.fold_left
      (fun acc (_, i) ->
        let acc = match stored_base i with Some s -> SS.add s acc | None -> acc in
        match i with
        | Call (_, callee, _) ->
            SS.union acc (SS.of_list (summary ctx callee).cs_stores)
        | _ -> acc)
      SS.empty instrs
  in
  let init =
    {
      loads = [];
      bases = [];
      callee_blocks = 0;
      callees = [];
      opaque = false;
      store_bases = SS.elements stores_in_body;
    }
  in
  let s =
    List.fold_left
      (fun acc (l, i) ->
        match i with
        | Load (_, a) ->
            { acc with loads = l :: acc.loads; bases = a.base :: acc.bases }
        | Cas (_, a, _, _) | Rmw (_, _, a, _) ->
            { acc with loads = l :: acc.loads; bases = a.base :: acc.bases }
        | Call (Some _, callee, _) ->
            let cs = summary ctx callee in
            {
              acc with
              loads = cs.cs_loads @ acc.loads;
              bases = cs.cs_bases @ acc.bases;
              callee_blocks = acc.callee_blocks + cs.cs_blocks;
              callees = callee :: acc.callees;
              opaque = acc.opaque || cs.cs_opaque;
            }
        | Call_indirect (Some _, _, _) -> { acc with opaque = true }
        | _ -> acc)
      init in_slice
  in
  { s with bases = SS.elements (SS.of_list s.bases) }
