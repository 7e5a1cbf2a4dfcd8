(* Shared scaffolding for the data-race-test-style case suite: spawn/join
   harness, ad-hoc spin loop shapes of controllable window, and private
   delay loops used to bias schedules. *)

open Arde.Types
open Arde.Builder

(* A standard main: optional setup instructions, spawn [workers] (each a
   function name with argument operands), join them all, optional
   postlude. *)
let harness ?(globals = []) ?(func_table = []) ?(before = []) ?(after = [])
    ~workers funcs =
  let spawns =
    List.mapi (fun i (fn, args) -> spawn (Printf.sprintf "t%d" i) fn args) workers
  in
  let joins = List.mapi (fun i _ -> join (r (Printf.sprintf "t%d" i))) workers in
  let main =
    func "main"
      [
        blk "entry" (before @ spawns) (goto "joins");
        blk "joins" joins (goto "post");
        blk "post" after exit_t;
      ]
  in
  program ~globals ~func_table ~entry:"main" (main :: funcs)

(* Blocks of a spinning read loop on [flag <> 0] whose natural-loop body
   has exactly [window] basic blocks (1 <= window <= 12).  Exits to
   [exit_lbl]. *)
let spin_flag ~tag ~flag ~window ~exit_lbl =
  if window < 1 || window > 12 then invalid_arg "spin_flag: window out of range";
  let test = tag ^ "_t" in
  let pad i = Printf.sprintf "%s_p%d" tag i in
  if window = 1 then
    [ blk test [ load (tag ^ "_f") flag ] (br (r (tag ^ "_f")) exit_lbl test) ]
  else
    let pads =
      List.init (window - 1) (fun i ->
          let next = if i = window - 2 then test else pad (i + 1) in
          blk (pad i) [ (if i = 0 then yield else nop) ] (goto next))
    in
    blk test [ load (tag ^ "_f") flag ] (br (r (tag ^ "_f")) exit_lbl (pad 0))
    :: pads

(* A spin loop whose condition is evaluated by a direct call to a
   double-checking helper: 3 loop blocks + 4 helper blocks = 7 counted
   blocks, the paper's realistic shape.  Returns the loop blocks and the
   helper function (instantiate once per base). *)
let check_helper_name base = "chk_" ^ base

let check_helper base =
  func (check_helper_name base) ~params:[ "idx" ]
    [
      blk "e"
        [ load "v" (gi base (r "idx")); cmp Ne "c" (r "v") (imm 0) ]
        (br (r "c") "yes" "re");
      blk "re"
        [ load "v2" (gi base (r "idx")); cmp Ne "c2" (r "v2") (imm 0) ]
        (br (r "c2") "yes" "no");
      blk "yes" [] (ret (Some (imm 1)));
      blk "no" [] (ret (Some (imm 0)));
    ]

let spin_flag_call ~tag ~flag_base ~idx ~exit_lbl =
  let test = tag ^ "_t" and b1 = tag ^ "_b1" and b2 = tag ^ "_b2" in
  [
    blk test
      [ call ~ret:(tag ^ "_ok") (check_helper_name flag_base) [ idx ] ]
      (br (r (tag ^ "_ok")) exit_lbl b1);
    blk b1 [ yield ] (goto b2);
    blk b2 [ nop ] (goto test);
  ]

(* A spin loop whose condition goes through a function pointer: the
   classifier must reject it (the paper's residual false-positive
   pattern).  The helper must be placed in the program's [func_table] and
   [fptr_slot] is its index there. *)
let spin_flag_fptr ~tag ~fptr_slot ~idx ~exit_lbl =
  let test = tag ^ "_t" and b1 = tag ^ "_b1" in
  [
    blk test
      [ call_ind ~ret:(tag ^ "_ok") (imm fptr_slot) [ idx ] ]
      (br (r (tag ^ "_ok")) exit_lbl b1);
    blk b1 [ yield ] (goto test);
  ]

(* Private busywork of [n] iterations: a register-counted loop with no
   memory traffic, used to bias which thread reaches a code point
   first. *)
let delay ~tag ~n ~next =
  let c = tag ^ "_c" in
  blk (tag ^ "_init") [ mov c (imm 0) ] (goto (tag ^ "_head"))
  :: counted_loop ~tag ~counter:c ~limit:(imm n) ~body:[ nop ] ~next

(* Store [v] into [a] via a tiny code sequence that gives each call site
   its own location (useful to multiply racy contexts). *)
let bump a =
  let t = "bump_v" in
  [ load t a; addi (t ^ "1") (r t) (imm 1); store a (r (t ^ "1")) ]
