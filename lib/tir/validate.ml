open Types

type error = { where : string; what : string }

let error_to_string e = Printf.sprintf "%s: %s" e.where e.what

(* The checks run once per program, so they walk it with iterators over
   {!Names} tables and build no per-instruction list.  Each iterator
   visits in the order the error list reports. *)

let id t s = Names.find t s 0 (String.length s)
let mem t s = id t s >= 0

(* [add t s] is false when [s] was already there *)
let add t s =
  let n = Names.count t in
  Names.intern t s 0 (String.length s) = n

let operand_iter f = function Imm _ -> () | Reg x -> f x
let addr_iter f a = operand_iter f a.index

(* Registers read by one instruction. *)
let iter_uses f = function
  | Mov (_, o) | Join o | Check (o, _) -> operand_iter f o
  | Binop (_, _, a, b) | Cmp (_, _, a, b) ->
      operand_iter f a;
      operand_iter f b
  | Load (_, a)
  | Lock a
  | Unlock a
  | Cond_signal a
  | Cond_broadcast a
  | Barrier_wait a
  | Sem_post a
  | Sem_wait a ->
      addr_iter f a
  | Store (a, v) | Rmw (_, _, a, v) | Barrier_init (a, v) | Sem_init (a, v) ->
      addr_iter f a;
      operand_iter f v
  | Cas (_, a, e, n) ->
      addr_iter f a;
      operand_iter f e;
      operand_iter f n
  | Call (_, _, args) | Spawn (_, _, args) -> List.iter (operand_iter f) args
  | Call_indirect (_, t, args) ->
      operand_iter f t;
      List.iter (operand_iter f) args
  | Cond_wait (a, b) ->
      addr_iter f a;
      addr_iter f b
  | Fence | Yield | Nop -> ()

(* The register one instruction writes, if any. *)
let iter_def f = function
  | Mov (d, _)
  | Binop (d, _, _, _)
  | Cmp (d, _, _, _)
  | Load (d, _)
  | Cas (d, _, _, _)
  | Rmw (d, _, _, _)
  | Spawn (d, _, _)
  | Call (Some d, _, _)
  | Call_indirect (Some d, _, _) ->
      f d
  | Call (None, _, _) | Call_indirect (None, _, _) | Store _ | Join _ | Lock _
  | Unlock _ | Cond_wait _ | Cond_signal _ | Cond_broadcast _ | Barrier_init _
  | Barrier_wait _ | Sem_init _ | Sem_post _ | Sem_wait _ | Fence | Yield
  | Check _ | Nop ->
      ()

(* Global bases one instruction addresses. *)
let iter_globals f = function
  | Load (_, a)
  | Store (a, _)
  | Cas (_, a, _, _)
  | Rmw (_, _, a, _)
  | Lock a
  | Unlock a
  | Cond_signal a
  | Cond_broadcast a
  | Barrier_wait a
  | Sem_post a
  | Sem_wait a
  | Barrier_init (a, _)
  | Sem_init (a, _) ->
      f a.base
  | Cond_wait (a, b) ->
      f a.base;
      f b.base
  | Mov _ | Binop _ | Cmp _ | Fence | Call _ | Call_indirect _ | Spawn _ | Join _
  | Yield | Check _ | Nop ->
      ()

let term_uses f = function
  | Br (v, _, _) | Ret (Some v) -> operand_iter f v
  | Ret None | Goto _ | Exit -> ()

(* [globals]: declared global names; [arity]: function names, and each
   one's parameter count, the last declaration winning for a duplicate
   name. *)
let check_func ~globals ~arity here f =
  if f.blocks = [] then here "has no blocks";
  let labels = Names.create 16 in
  List.iter
    (fun b ->
      if not (add labels b.lbl) then
        here (Printf.sprintf "duplicate label %S" b.lbl))
    f.blocks;
  let target l =
    if not (mem labels l) then
      here (Printf.sprintf "branch to unknown label %S" l)
  in
  (* sized up front: growing a table of a few thousand registers costs
     more than filling it *)
  let defined =
    Names.create (List.fold_left (fun n b -> n + List.length b.ins) 16 f.blocks)
  in
  let define r = ignore (add defined r) in
  List.iter define f.params;
  List.iter (fun b -> List.iter (iter_def define) b.ins) f.blocks;
  let use u =
    if not (mem defined u) then
      here (Printf.sprintf "register %S read but never assigned" u)
  in
  let global gl =
    if not (mem globals gl) then here (Printf.sprintf "undeclared global %S" gl)
  in
  let call callee args =
    match id (fst arity) callee with
    | -1 -> here (Printf.sprintf "call to unknown function %S" callee)
    | id ->
        let n = (snd arity).(id) and k = List.length args in
        if n <> k then
          here (Printf.sprintf "call to %S with %d args, expected %d" callee k n)
  in
  let check_instr i =
    iter_uses use i;
    iter_globals global i;
    match i with
    | Call (_, callee, args) | Spawn (_, callee, args) -> call callee args
    | _ -> ()
  in
  List.iter
    (fun b ->
      List.iter check_instr b.ins;
      term_uses use b.term;
      match b.term with
      | Goto l -> target l
      | Br (_, a, c) ->
          target a;
          target c
      | Ret _ | Exit -> ())
    f.blocks

type valid = program

let run_count = Atomic.make 0

let validate prog =
  Atomic.incr run_count;
  let errs = ref [] in
  let report where what = errs := { where; what } :: !errs in
  let top = report "program" in
  (match List.find_opt (fun f -> f.fname = prog.entry) prog.funcs with
  | None -> top (Printf.sprintf "entry function %S not found" prog.entry)
  | Some f ->
      if f.params <> [] then
        top (Printf.sprintf "entry function %S must take no parameters" prog.entry));
  (* function names, and each one's parameter count *)
  let fnames = Names.create 16 in
  let arities = Array.make (List.length prog.funcs) 0 in
  List.iter
    (fun f ->
      if not (add fnames f.fname) then
        top (Printf.sprintf "duplicate function %S" f.fname);
      arities.(id fnames f.fname) <- List.length f.params)
    prog.funcs;
  List.iter
    (fun tf ->
      if not (mem fnames tf) then
        top (Printf.sprintf "func_table entry %S not found" tf))
    prog.func_table;
  let arity = (fnames, arities) in
  let globals = Names.create 16 in
  List.iter
    (fun gl ->
      ignore (add globals gl.gname);
      if gl.size <= 0 then
        top (Printf.sprintf "global %S has non-positive size" gl.gname))
    prog.globals;
  List.iter
    (fun f -> check_func ~globals ~arity (report ("func " ^ f.fname)) f)
    prog.funcs;
  match !errs with [] -> Ok prog | es -> Error (List.rev es)

let check prog = Result.map ignore (validate prog)

let errors_to_string es = String.concat "; " (List.map error_to_string es)

let validate_exn prog =
  match validate prog with
  | Ok v -> v
  | Error es -> invalid_arg ("Tir.Validate: " ^ errors_to_string es)

let of_text text =
  match Parse.program text with
  | Error e -> Error (Parse.error_to_string e)
  | Ok p -> Result.map_error errors_to_string (validate p)

let check_exn prog = ignore (validate_exn prog)

let runs () = Atomic.get run_count
