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

module Dense = struct
  type t = int array

  let top : t = [| -1 |]
  let empty : t = [||]
  let is_empty (s : t) = Array.length s = 0

  let rec mem_upto (a : int array) n id i =
    i < n && (a.(i) = id || mem_upto a n id (i + 1))

  let rec index_upto (a : int array) n id i =
    if i >= n then -1 else if a.(i) = id then i else index_upto a n id (i + 1)

  (* [s] narrowed to [h]: [s] itself, not a copy, when [h] holds all of
     it — the steady state of a consistently locked cell. *)
  let inter (s : t) (h : t) =
    if s == top then h
    else begin
      let nh = Array.length h in
      let kept = ref 0 in
      for i = 0 to Array.length s - 1 do
        if mem_upto h nh s.(i) 0 then incr kept
      done;
      if !kept = Array.length s then s
      else begin
        let r = Array.make !kept 0 in
        let j = ref 0 in
        for i = 0 to Array.length s - 1 do
          if mem_upto h nh s.(i) 0 then begin
            r.(!j) <- s.(i);
            incr j
          end
        done;
        r
      end
    end

  type held = {
    ids : int array array;  (* per thread: held lock ids, first [n] live *)
    n : int array;
    snap : t array;  (* per thread: the held set as a lockset... *)
    ok : bool array;  (* ...valid until the thread's set changes *)
  }

  let held threads =
    {
      ids = Array.init threads (fun _ -> Array.make 4 0);
      n = Array.make threads 0;
      snap = Array.make threads empty;
      ok = Array.make threads true;
    }

  let clear h =
    Array.fill h.n 0 (Array.length h.n) 0;
    Array.fill h.snap 0 (Array.length h.snap) empty;
    Array.fill h.ok 0 (Array.length h.ok) true

  let footprint h = Array.fold_left (fun acc a -> acc + Array.length a) 0 h.ids

  let acquire h tid id =
    let n = h.n.(tid) in
    if not (mem_upto h.ids.(tid) n id 0) then begin
      if n = Array.length h.ids.(tid) then begin
        let a = Array.make (2 * n) 0 in
        Array.blit h.ids.(tid) 0 a 0 n;
        h.ids.(tid) <- a
      end;
      h.ids.(tid).(n) <- id;
      h.n.(tid) <- n + 1;
      h.ok.(tid) <- false
    end

  let release h tid id =
    let a = h.ids.(tid) and n = h.n.(tid) in
    let i = index_upto a n id 0 in
    if i >= 0 then begin
      Array.blit a (i + 1) a i (n - i - 1);
      h.n.(tid) <- n - 1;
      h.ok.(tid) <- false
    end

  let current h tid =
    if h.ok.(tid) then h.snap.(tid)
    else begin
      let s = Array.sub h.ids.(tid) 0 h.n.(tid) in
      h.snap.(tid) <- s;
      h.ok.(tid) <- true;
      s
    end
end
