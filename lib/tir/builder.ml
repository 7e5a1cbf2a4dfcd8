open Types

let imm n = Imm n
let r x = Reg x
let g base = { base; index = Imm 0 }
let gi base index = { base; index }

let mov d o = Mov (d, o)
let addi d a b = Binop (d, Add, a, b)
let subi d a b = Binop (d, Sub, a, b)
let muli d a b = Binop (d, Mul, a, b)
let divi d a b = Binop (d, Div, a, b)
let modi d a b = Binop (d, Mod, a, b)
let andi d a b = Binop (d, And, a, b)
let ori d a b = Binop (d, Or, a, b)
let xori d a b = Binop (d, Xor, a, b)
let shli d a b = Binop (d, Shl, a, b)
let shri d a b = Binop (d, Shr, a, b)
let cmp op d a b = Cmp (d, op, a, b)
let load d a = Load (d, a)
let store a v = Store (a, v)
let cas ok a expect new_ = Cas (ok, a, expect, new_)
let rmw op old a arg = Rmw (old, op, a, arg)
let call ?ret f args = Call (ret, f, args)
let call_ind ?ret target args = Call_indirect (ret, target, args)
let spawn d f args = Spawn (d, f, args)
let join t = Join t
let lock m = Lock m
let unlock m = Unlock m
let wait cv m = Cond_wait (cv, m)
let signal cv = Cond_signal cv
let broadcast cv = Cond_broadcast cv
let barrier_init b n = Barrier_init (b, n)
let barrier_wait b = Barrier_wait b
let sem_init s n = Sem_init (s, n)
let sem_post s = Sem_post s
let sem_wait s = Sem_wait s
let yield = Yield
let check v msg = Check (v, msg)
let nop = Nop

let goto l = Goto l
let br v a b = Br (v, a, b)
let ret v = Ret v
let ret0 = Ret None
let exit_t = Exit

let blk lbl ins term = { lbl; ins; term }
let func fname ?(params = []) blocks = { fname; params; blocks }

let global gname ?(size = 1) ?(init = 0) () = (gname, size, init)

let program ?(globals = []) ?(func_table = []) ~entry funcs =
  let globals =
    List.map (fun (gname, size, ginit) -> { gname; size; ginit }) globals
  in
  (* The machine writes __thread_done[tid] on exit; declare it implicitly
     so every program can be lowered and joined on. *)
  let globals =
    if List.exists (fun gl -> gl.gname = thread_done_global) globals then
      globals
    else
      { gname = thread_done_global; size = max_threads; ginit = 0 } :: globals
  in
  { funcs; globals; func_table; entry }

let counted_loop ~tag ~counter ~limit ~body ~next =
  let head = tag ^ "_head" and bdy = tag ^ "_body" and inc = tag ^ "_inc" in
  let t = counter ^ "_cmp" in
  [
    blk head [ cmp Lt t (r counter) limit ] (br (r t) bdy next);
    blk bdy body (goto inc);
    blk inc [ addi counter (r counter) (imm 1) ] (goto head);
  ]
