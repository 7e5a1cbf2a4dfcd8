(* Two representations, one lattice.  Immutable clocks are trimmed
   integer arrays as before, but each carries a provenance epoch: the
   thread whose mutable clock it was snapshotted from and that clock's
   version counter at snapshot time.  Mutable clocks count every state
   change in [ver] and remember, per owning thread, the highest snapshot
   version they have fully absorbed ([seen]).  A join of a snapshot the
   reader has already absorbed — the dominant shape under ad-hoc
   synchronization, where a spin loop re-reads the same release snapshot
   thousands of times — is then a single array read instead of a walk
   over every component.

   Soundness of the skip rests on monotonicity, not on component
   values: a thread's mutable clock only ever grows (ticks and max
   joins), and [ver] bumps on every change, so snapshots of one thread
   are totally ordered by version and [ver] uniquely identifies a
   snapshot's contents.  Component values would not suffice — the
   engine stores snapshots without ticking on some paths, so two
   distinct snapshots of a thread can share the thread's own component
   while differing elsewhere. *)

type t = { v : int array; owner : int; over : int }
(* [v]: no trailing zero components (so [bottom.v] is [||] and equality
   of clocks is equality of [v]).  [owner]: the thread whose mutable
   clock this snapshot was taken from, or -1 for derived clocks (joins,
   [inc]/[set]/[of_list] results).  [over]: the owner's [ver] at
   snapshot time; meaningless when [owner < 0]. *)

let bottom = { v = [||]; owner = -1; over = 0 }
let derived v = if Array.length v = 0 then bottom else { v; owner = -1; over = 0 }

let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let vget (v : int array) t = if t < Array.length v then v.(t) else 0
let get c t = vget c.v t

let set c t value =
  let n = max (Array.length c.v) (t + 1) in
  let a = Array.make n 0 in
  Array.blit c.v 0 a 0 (Array.length c.v);
  a.(t) <- value;
  derived (trim a)

let inc c t = set c t (get c t + 1)
let is_bottom c = Array.length c.v = 0

let join a b =
  (* Preserving the non-bottom side (not just its contents) keeps the
     provenance epoch alive through the accumulator tables' common case
     of a single releaser, so waiters still get the O(1) skip. *)
  if is_bottom a then b
  else if is_bottom b then a
  else
    derived
      (if Array.length a.v < Array.length b.v then
         Array.mapi (fun i bv -> max bv (vget a.v i)) b.v
       else Array.mapi (fun i av -> max av (vget b.v i)) a.v)

let leq a b =
  (* Snapshots of one thread are totally ordered by version. *)
  (a.owner >= 0 && a.owner = b.owner && a.over <= b.over)
  ||
  let av = a.v and bv = b.v in
  let rec go i = i >= Array.length av || (av.(i) <= vget bv i && go (i + 1)) in
  go 0

let of_list l = derived (trim (Array.of_list l))
let to_list c = Array.to_list c.v
let equal a b = a.v = b.v

let pp ppf c =
  Format.fprintf ppf "<%s>"
    (String.concat "," (List.map string_of_int (Array.to_list c.v)))

let size_words c = 5 + Array.length c.v
(* record header + three fields + array header + components *)

(* ------------------------------------------------------------------ *)
(* Mutable clocks: the per-thread hot-path representation.             *)

type m = {
  a : int array;
      (* fixed capacity, mutated in place; components at or above
         capacity are fixed at 0 *)
  mutable n : int;
      (* live prefix: [a.(i) = 0] for [i >= n], so snapshots and
         bottom tests scan O(live threads), not O(capacity) *)
  mowner : int;  (* the thread this clock belongs to, or -1 *)
  mutable ver : int;  (* bumped on every state change *)
  seen : int array;
      (* [seen.(u)]: highest [over] of an owner-[u] snapshot fully
         absorbed into this clock, or -1.  Never ahead of the truth:
         an entry is written only after a complete walk of the
         snapshot (or for our own past snapshots, which monotonicity
         covers for free). *)
}

let make_mut ?(owner = -1) capacity =
  {
    a = Array.make capacity 0;
    n = 0;
    mowner = owner;
    ver = 0;
    seen = Array.make capacity (-1);
  }

let mget (m : m) t = if t < Array.length m.a then m.a.(t) else 0

let mtick (m : m) t =
  m.a.(t) <- m.a.(t) + 1;
  if t >= m.n then m.n <- t + 1;
  m.ver <- m.ver + 1

(* The O(1) fast path: a snapshot of our own clock is always dominated
   (our clock only grows), and a snapshot we have already absorbed at
   this or a later version cannot add anything either. *)
let absorbed (m : m) (c : t) =
  c.owner >= 0
  && (c.owner = m.mowner
     || (c.owner < Array.length m.seen && m.seen.(c.owner) >= c.over))

let record_absorbed (m : m) (c : t) =
  if c.owner >= 0 && c.owner < Array.length m.seen
     && m.seen.(c.owner) < c.over
  then m.seen.(c.owner) <- c.over

let mjoin_changed (m : m) (c : t) =
  if absorbed m c then false
  else begin
    let lc = Array.length c.v in
    let k = min lc (Array.length m.a) in
    let changed = ref false in
    for i = 0 to k - 1 do
      if c.v.(i) > m.a.(i) then begin
        m.a.(i) <- c.v.(i);
        if i >= m.n then m.n <- i + 1;
        changed := true
      end
    done;
    (* Only a complete walk absorbs the snapshot. *)
    if k = lc then record_absorbed m c;
    if !changed then m.ver <- m.ver + 1;
    !changed
  end

let mjoin (m : m) (c : t) = ignore (mjoin_changed m c)

let mjoin_m (dst : m) (src : m) =
  let k = min src.n (Array.length dst.a) in
  let changed = ref false in
  for i = 0 to k - 1 do
    if src.a.(i) > dst.a.(i) then begin
      dst.a.(i) <- src.a.(i);
      if i >= dst.n then dst.n <- i + 1;
      changed := true
    end
  done;
  if k = src.n then begin
    (* dst now dominates src's current state, hence every snapshot src
       has absorbed — and every snapshot src itself has produced. *)
    let lim = min (Array.length src.seen) (Array.length dst.seen) in
    for u = 0 to lim - 1 do
      if src.seen.(u) > dst.seen.(u) then dst.seen.(u) <- src.seen.(u)
    done;
    if src.mowner >= 0 && src.mowner < Array.length dst.seen
       && dst.seen.(src.mowner) < src.ver
    then dst.seen.(src.mowner) <- src.ver
  end;
  if !changed then dst.ver <- dst.ver + 1

let m_is_bottom (m : m) = m.n = 0
(* Components only grow, so [a.(n-1) > 0] whenever [n > 0]. *)

let snapshot (m : m) =
  let n = ref m.n in
  while !n > 0 && m.a.(!n - 1) = 0 do
    decr n
  done;
  { v = Array.sub m.a 0 !n; owner = m.mowner; over = m.ver }

let msize_words (m : m) = 6 + 2 * (1 + Array.length m.a)
(* record header + five fields, plus the component and seen arrays *)
