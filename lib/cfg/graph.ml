open Arde_tir.Types

type t = {
  func : func;
  blocks : block array;
  succs : int list array;
  preds : int list array;
}

let targets = function
  | Goto l -> [ l ]
  | Br (_, a, b) -> if a = b then [ a ] else [ a; b ]
  | Ret _ | Exit -> []

let of_func (f : func) =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let tbl = Hashtbl.create n in
  Array.iteri (fun i b -> Hashtbl.replace tbl b.lbl i) blocks;
  let index l =
    match Hashtbl.find_opt tbl l with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf "Cfg.Graph: unknown label %S in %s" l f.fname)
  in
  let succs = Array.map (fun b -> List.map index (targets b.term)) blocks in
  let preds = Array.make n [] in
  Array.iteri
    (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    succs;
  { func = f; blocks; succs; preds }

let label_of t i = t.blocks.(i).lbl
let n_blocks t = Array.length t.blocks

let reachable t =
  let n = Array.length t.blocks in
  let seen = Array.make n false in
  let rec dfs i =
    if not seen.(i) then (
      seen.(i) <- true;
      List.iter dfs t.succs.(i))
  in
  if n > 0 then dfs 0;
  seen
