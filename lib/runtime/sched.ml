type policy = Round_robin of int | Uniform | Chunked of int

type t = {
  policy : policy;
  rng : Arde_util.Prng.t;
  mutable current : int;
  mutable slot : int;
      (* where [current] was last seen in the runnable buffer: a hint,
         always checked against the buffer before it is trusted *)
  mutable burst : int; (* remaining instructions before a forced re-pick *)
}

let create policy ~seed =
  { policy; rng = Arde_util.Prng.create seed; current = -1; slot = 0; burst = 0 }

let force_switch t = t.burst <- 0

let fresh_burst t mean = 1 + Arde_util.Prng.int t.rng (2 * mean)

(* The machine keeps one [runnable] buffer and passes it here with its
   live length; nothing below allocates, and the PRNG draw sequence is
   identical to the historical list-based implementation (single-candidate
   steps never draw; [Uniform] draws once per step; [Chunked] draws a pick
   and a burst length only when the burst expires or the current thread
   blocked). *)

(* Both scans recurse at top level rather than through an inner
   [let rec]: an inner recursive closure is heap-allocated per call on the
   non-flambda compiler.  Typed [int array] so [=] and [>] compile to
   machine compares, not [caml_equal] calls. *)
let rec index_of (buf : int array) n x i =
  if i >= n then -1
  else if Array.unsafe_get buf i = x then i
  else index_of buf n x (i + 1)

(* Index of the first element greater than [cur], else 0 — [runnable] is
   ascending. *)
let rec index_after (buf : int array) n cur i =
  if i >= n then 0
  else if Array.unsafe_get buf i > cur then i
  else index_after buf n cur (i + 1)

(* Is [current] among the first [n] entries?  O(1) while the buffer still
   holds it at [slot] — every step until the machine rebuilds the buffer
   — else one scan that re-learns the slot. *)
let current_runnable t (buf : int array) n =
  if t.slot < n && Array.unsafe_get buf t.slot = t.current then true
  else begin
    let i = index_of buf n t.current 0 in
    if i >= 0 then t.slot <- i;
    i >= 0
  end

let choose t (buf : int array) i =
  t.slot <- i;
  t.current <- Array.unsafe_get buf i;
  t.current

let pick t ~(runnable : int array) ~n =
  if n <= 0 then invalid_arg "Sched.pick: no runnable thread"
  else if n > Array.length runnable then
    invalid_arg "Sched.pick: n exceeds the buffer"
  else if n = 1 then choose t runnable 0
  else
    match t.policy with
    | Round_robin quantum ->
        if t.burst > 0 && current_runnable t runnable n then begin
          t.burst <- t.burst - 1;
          t.current
        end
        else begin
          t.burst <- quantum - 1;
          choose t runnable (index_after runnable n t.current 0)
        end
    | Uniform -> choose t runnable (Arde_util.Prng.int t.rng n)
    | Chunked mean ->
        if t.burst > 0 && current_runnable t runnable n then begin
          t.burst <- t.burst - 1;
          t.current
        end
        else begin
          let cur = choose t runnable (Arde_util.Prng.int t.rng n) in
          t.burst <- fresh_burst t mean;
          cur
        end

let policy_name = function
  | Round_robin q -> Printf.sprintf "rr:%d" q
  | Uniform -> "uniform"
  | Chunked n -> Printf.sprintf "chunked:%d" n

let parse_policy s =
  let int_suffix prefix =
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      int_of_string_opt (String.sub s plen (String.length s - plen))
    else None
  in
  match s with
  | "uniform" -> Ok Uniform
  | _ -> (
      match (int_suffix "rr:", int_suffix "chunked:") with
      | Some q, _ when q > 0 -> Ok (Round_robin q)
      | _, Some n when n > 0 -> Ok (Chunked n)
      | _ ->
          Error
            (Printf.sprintf "unknown policy %S (use rr:N, uniform or chunked:N)"
               s))
