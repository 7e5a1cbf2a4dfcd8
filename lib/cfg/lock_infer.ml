open Arde_tir.Types
module SS = Set.Make (String)

type t = { locks : SS.t }

let scan_instr (acquires, releases) = function
  | Cas (_, a, Imm 0, Imm 1) -> (SS.add a.base acquires, releases)
  | Store (a, Imm 0) -> (acquires, SS.add a.base releases)
  | Rmw (_, Rmw_exchange, a, Imm 0) -> (acquires, SS.add a.base releases)
  | _ -> (acquires, releases)

let analyze (p : program) =
  let acquires, releases =
    List.fold_left
      (fun acc f ->
        List.fold_left
          (fun acc b -> List.fold_left scan_instr acc b.ins)
          acc f.blocks)
      (SS.empty, SS.empty) p.funcs
  in
  { locks = SS.inter acquires releases }

let inferred_locks t = SS.elements t.locks
