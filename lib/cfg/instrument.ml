open Arde_tir.Types

type spin = { s_id : int; s_cand : Spin.candidate }

type t = {
  k : int;
  spins : spin list;
  rejected : (Spin.candidate * Spin.rejection) list;
  headers : (string * label, int) Hashtbl.t;
  members : (string * label, int list) Hashtbl.t;
  marked : (string * label * int, int list) Hashtbl.t;
  sync_bases : (string, unit) Hashtbl.t;
  by_id : (int, spin) Hashtbl.t;
}

let analyze ?(count_callees = true) ~k prog =
  let ctx = Slice.make_ctx prog in
  let spins = ref [] and rejected = ref [] in
  let next_id = ref 0 in
  List.iter
    (fun f ->
      let g = Graph.of_func f in
      let dom = Dominators.compute g in
      List.iter
        (fun loop ->
          match Spin.classify ~count_callees ~k ctx g loop with
          | Spin.Accepted cand ->
              let id = !next_id in
              incr next_id;
              spins := { s_id = id; s_cand = cand } :: !spins
          | Spin.Rejected (cand, why) -> rejected := (cand, why) :: !rejected)
        (Loops.find g dom))
    prog.funcs;
  let spins = List.rev !spins and rejected = List.rev !rejected in
  let headers = Hashtbl.create 16 in
  let members = Hashtbl.create 64 in
  let marked = Hashtbl.create 64 in
  let sync_bases = Hashtbl.create 16 in
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let c = s.s_cand in
      Hashtbl.replace by_id s.s_id s;
      Hashtbl.replace headers (c.Spin.c_func, c.Spin.c_header) s.s_id;
      List.iter
        (fun lbl ->
          let key = (c.Spin.c_func, lbl) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt members key) in
          Hashtbl.replace members key (s.s_id :: prev))
        c.Spin.c_body;
      List.iter
        (fun (l : loc) ->
          let key = (l.lfunc, l.lblk, l.lidx) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt marked key) in
          Hashtbl.replace marked key (s.s_id :: prev))
        c.Spin.c_loads;
      List.iter (fun b -> Hashtbl.replace sync_bases b ()) c.Spin.c_bases)
    spins;
  { k; spins; rejected; headers; members; marked; sync_bases; by_id }

let spins t = t.spins
let header_at t ~fname ~lbl = Hashtbl.find_opt t.headers (fname, lbl)

let in_loop t ~fname ~lbl id =
  match Hashtbl.find_opt t.members (fname, lbl) with
  | Some ids -> List.mem id ids
  | None -> false

let loops_containing t ~fname ~lbl =
  match Hashtbl.find_opt t.members (fname, lbl) with
  | Some ids -> List.sort_uniq Int.compare ids
  | None -> []

let marked_loops_at t (l : loc) =
  Option.value ~default:[] (Hashtbl.find_opt t.marked (l.lfunc, l.lblk, l.lidx))

let is_sync_base t b = Hashtbl.mem t.sync_bases b

let find_spin t id = Hashtbl.find t.by_id id

let pp_candidate ppf (c : Spin.candidate) =
  Format.fprintf ppf "%s:%s window=%d bases=[%s] loads=%d" c.Spin.c_func
    c.Spin.c_header c.Spin.c_window
    (String.concat ", " c.Spin.c_bases)
    (List.length c.Spin.c_loads)

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>spin window k = %d@," t.k;
  Format.fprintf ppf "accepted spinning read loops: %d@," (List.length t.spins);
  List.iter
    (fun s -> Format.fprintf ppf "  #%d %a@," s.s_id pp_candidate s.s_cand)
    t.spins;
  Format.fprintf ppf "rejected loop candidates: %d@," (List.length t.rejected);
  List.iter
    (fun (c, why) ->
      Format.fprintf ppf "  %a -- %s@," pp_candidate c
        (Spin.rejection_to_string why))
    t.rejected;
  Format.fprintf ppf "@]"
