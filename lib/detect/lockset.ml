type key = string * int

module S = Set.Make (struct
  type t = key

  let compare (a : key) (b : key) = compare a b
end)

type t = Top | Set of S.t

let top = Top
let of_list l = Set (S.of_list l)

let inter a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Set x, Set y -> Set (S.inter x y)

let is_empty = function Top -> false | Set s -> S.is_empty s
let mem k = function Top -> true | Set s -> S.mem k s
let to_list = function Top -> None | Set s -> Some (S.elements s)

module Held = struct
  type h = (int, S.t) Hashtbl.t

  let create () : h = Hashtbl.create 8

  let acquire h tid k =
    let cur = Option.value ~default:S.empty (Hashtbl.find_opt h tid) in
    Hashtbl.replace h tid (S.add k cur)

  let release h tid k =
    let cur = Option.value ~default:S.empty (Hashtbl.find_opt h tid) in
    Hashtbl.replace h tid (S.remove k cur)

  let current h tid =
    Set (Option.value ~default:S.empty (Hashtbl.find_opt h tid))
end
