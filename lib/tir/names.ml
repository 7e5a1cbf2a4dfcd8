type t = {
  mutable slots : int array; (* id + 1, or 0 for an empty slot *)
  mutable names : string array; (* id -> name *)
  mutable hashes : int array; (* id -> hash *)
  mutable count : int;
}

let create n =
  let rec pow2 k = if k >= 2 * n then k else pow2 (2 * k) in
  let size = pow2 16 in
  {
    slots = Array.make size 0;
    names = Array.make (size / 2) "";
    hashes = Array.make (size / 2) 0;
    count = 0;
  }

let hash s lo hi =
  let h = ref 0 in
  for i = lo to hi - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h land max_int

let rec equal_from s lo name k len =
  k = len
  || String.unsafe_get s (lo + k) = String.unsafe_get name k
     && equal_from s lo name (k + 1) len

let equal s lo hi name =
  let len = String.length name in
  hi - lo = len && (s == name || equal_from s lo name 0 len)

(* the slot holding the name, or the empty slot where it would go *)
let rec probe t s lo hi h i =
  let v = Array.unsafe_get t.slots i in
  if v = 0 then i
  else
    let id = v - 1 in
    if Array.unsafe_get t.hashes id = h && equal s lo hi (Array.unsafe_get t.names id)
    then i
    else probe t s lo hi h ((i + 1) land (Array.length t.slots - 1))

let grow t =
  let size = 2 * Array.length t.slots in
  let slots = Array.make size 0 in
  for id = 0 to t.count - 1 do
    let rec free i = if slots.(i) = 0 then i else free ((i + 1) land (size - 1)) in
    slots.(free (t.hashes.(id) land (size - 1))) <- id + 1
  done;
  t.slots <- slots;
  let extend a fill =
    let b = Array.make (size / 2) fill in
    Array.blit a 0 b 0 t.count;
    b
  in
  t.names <- extend t.names "";
  t.hashes <- extend t.hashes 0

let find t s lo hi =
  let h = hash s lo hi in
  Array.unsafe_get t.slots (probe t s lo hi h (h land (Array.length t.slots - 1))) - 1

let intern_hashed t h s lo hi =
  let i = probe t s lo hi h (h land (Array.length t.slots - 1)) in
  let v = Array.unsafe_get t.slots i in
  if v > 0 then v - 1
  else begin
    let id = t.count in
    t.slots.(i) <- id + 1;
    t.names.(id) <- (if lo = 0 && hi = String.length s then s else String.sub s lo (hi - lo));
    t.hashes.(id) <- h;
    t.count <- id + 1;
    (* at most half full *)
    if 2 * t.count >= Array.length t.slots then grow t;
    id
  end

let intern t s lo hi = intern_hashed t (hash s lo hi) s lo hi

let name t id = t.names.(id)
let count t = t.count
