open Arde_tir.Types

type race = {
  r_base : string;
  r_idx : int;
  r_first_tid : int;
  r_first_loc : loc;
  r_first_write : bool;
  r_second_tid : int;
  r_second_loc : loc;
  r_second_write : bool;
  r_predicted : bool;
}

(* A context — base plus the ordered loc pair — as a mutable record, so
   asking whether one was seen fills a probe in place instead of
   building a race and a tuple key.  Only the probe is ever mutated;
   the table holds copies. *)
module Ctx = struct
  type t = { mutable base : string; mutable lo : loc; mutable hi : loc }

  let equal a b =
    String.equal a.base b.base && compare_loc a.lo b.lo = 0
    && compare_loc a.hi b.hi = 0

  let hash (k : t) = Hashtbl.hash k
end

module Ctx_tbl = Hashtbl.Make (Ctx)

type t = {
  cap : int;
  seen : unit Ctx_tbl.t;
  probe : Ctx.t;
  mutable rev_races : race list;
  mutable n : int;
  mutable hit_cap : bool;
}

let no_loc = { lfunc = ""; lblk = ""; lidx = 0 }

let create ?(cap = 1000) () =
  {
    cap;
    seen = Ctx_tbl.create 32;
    probe = { Ctx.base = ""; lo = no_loc; hi = no_loc };
    rev_races = [];
    n = 0;
    hit_cap = false;
  }

let probe t base a b =
  let k = t.probe in
  k.Ctx.base <- base;
  if compare_loc a b <= 0 then begin
    k.lo <- a;
    k.hi <- b
  end
  else begin
    k.lo <- b;
    k.hi <- a
  end;
  k

let seen t ~base a b = Ctx_tbl.mem t.seen (probe t base a b)

let add t r =
  let k = probe t r.r_base r.r_first_loc r.r_second_loc in
  if not (Ctx_tbl.mem t.seen k) then begin
    if t.n >= t.cap then t.hit_cap <- true
    else begin
      Ctx_tbl.replace t.seen { k with Ctx.base = k.Ctx.base } ();
      t.rev_races <- r :: t.rev_races;
      t.n <- t.n + 1
    end
  end

let races t = List.rev t.rev_races
let n_contexts t = t.n
let capped t = t.hit_cap

let racy_bases t =
  List.sort_uniq String.compare (List.map (fun r -> r.r_base) (races t))

let merge_into dst src = List.iter (add dst) (races src)

let kind w = if w then "write" else "read"

let pp_race ppf r =
  Format.fprintf ppf "race on %s[%d]: T%d %s at %a vs T%d %s at %a%s" r.r_base
    r.r_idx r.r_first_tid (kind r.r_first_write) Arde_tir.Pretty.loc
    r.r_first_loc r.r_second_tid (kind r.r_second_write) Arde_tir.Pretty.loc
    r.r_second_loc
    (if r.r_predicted then " (predicted)" else "")

let pp ppf t =
  Format.fprintf ppf "@[<v>%d racy context(s)%s@," t.n
    (if t.hit_cap then " (capped)" else "");
  List.iter (fun r -> Format.fprintf ppf "  %a@," pp_race r) (races t);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Stable serialized form                                             *)

module J = Arde_util.Json

let loc_to_json (l : loc) =
  J.Obj [ ("func", J.String l.lfunc); ("blk", J.String l.lblk); ("idx", J.Int l.lidx) ]

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let loc_of_json j =
  let* lfunc = field "func" J.to_str j in
  let* lblk = field "blk" J.to_str j in
  let* lidx = field "idx" J.to_int j in
  Ok { lfunc; lblk; lidx }

let access_to_json tid l write =
  J.Obj [ ("tid", J.Int tid); ("loc", loc_to_json l); ("write", J.Bool write) ]

let access_of_json j =
  let* tid = field "tid" J.to_int j in
  let* l =
    match J.member "loc" j with
    | Some lj -> loc_of_json lj
    | None -> Error "missing field \"loc\""
  in
  let* write = field "write" J.to_bool j in
  Ok (tid, l, write)

let race_to_json r =
  J.Obj
    ([
       ("base", J.String r.r_base);
       ("idx", J.Int r.r_idx);
       ("first", access_to_json r.r_first_tid r.r_first_loc r.r_first_write);
       ("second", access_to_json r.r_second_tid r.r_second_loc r.r_second_write);
     ]
    (* only when set: observed races keep their pre-prediction shape *)
    @ if r.r_predicted then [ ("predicted", J.Bool true) ] else [])

let race_of_json j =
  let* r_base = field "base" J.to_str j in
  let* r_idx = field "idx" J.to_int j in
  let side name =
    match J.member name j with
    | Some sj -> access_of_json sj
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let* r_first_tid, r_first_loc, r_first_write = side "first" in
  let* r_second_tid, r_second_loc, r_second_write = side "second" in
  let r_predicted =
    match Option.bind (J.member "predicted" j) J.to_bool with
    | Some b -> b
    | None -> false
  in
  Ok
    {
      r_base;
      r_idx;
      r_first_tid;
      r_first_loc;
      r_first_write;
      r_second_tid;
      r_second_loc;
      r_second_write;
      r_predicted;
    }

let to_json t =
  J.Obj
    [
      ("cap", J.Int t.cap);
      ("capped", J.Bool t.hit_cap);
      ("races", J.List (List.map race_to_json (races t)));
    ]

let of_json j =
  let* cap = field "cap" J.to_int j in
  let* capped = field "capped" J.to_bool j in
  let* race_js = field "races" J.to_list j in
  let* races =
    List.fold_left
      (fun acc rj ->
        let* acc = acc in
        let* r = race_of_json rj in
        Ok (r :: acc))
      (Ok []) race_js
  in
  let t = create ~cap () in
  List.iter (add t) (List.rev races);
  t.hit_cap <- capped;
  Ok t
