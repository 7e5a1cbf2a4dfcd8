(* The SplitMix64 state lives unboxed in an 8-byte buffer: a
   [mutable state : int64] field would box a fresh int64 on every draw,
   and the scheduler draws on most multi-thread steps. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

(* SplitMix64 step: one addition then a 64-bit finalizer (Stafford mix13).
   Inlined into the draws below so the int64 never leaves a register. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (mantissa /. 9007199254740992.0)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let split t =
  let u = Bytes.create 8 in
  Bytes.set_int64_ne u 0 (Int64.logxor (next_int64 t) 0xA5A5A5A55A5A5A5AL);
  u
