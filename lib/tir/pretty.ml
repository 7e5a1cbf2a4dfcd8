open Types

let operand ppf = function
  | Imm n -> Format.fprintf ppf "%d" n
  | Reg x -> Format.fprintf ppf "%%%s" x

let addr ppf a =
  match a.index with
  | Imm 0 -> Format.fprintf ppf "@%s" a.base
  | idx -> Format.fprintf ppf "@%s[%a]" a.base operand idx

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cmpop_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let rmw_name = function
  | Rmw_add -> "add"
  | Rmw_exchange -> "xchg"
  | Rmw_or -> "or"
  | Rmw_and -> "and"

let args ppf xs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    operand ppf xs

let ret_prefix ppf = function
  | Some d -> Format.fprintf ppf "%%%s <- " d
  | None -> ()

let instr ppf = function
  | Mov (d, o) -> Format.fprintf ppf "%%%s <- %a" d operand o
  | Binop (d, op, a, b) ->
      Format.fprintf ppf "%%%s <- %s %a, %a" d (binop_name op) operand a
        operand b
  | Cmp (d, op, a, b) ->
      Format.fprintf ppf "%%%s <- cmp.%s %a, %a" d (cmpop_name op) operand a
        operand b
  | Load (d, a) -> Format.fprintf ppf "%%%s <- load %a" d addr a
  | Store (a, v) -> Format.fprintf ppf "store %a, %a" addr a operand v
  | Cas (ok, a, e, n) ->
      Format.fprintf ppf "%%%s <- cas %a, %a, %a" ok addr a operand e operand n
  | Rmw (old, op, a, v) ->
      Format.fprintf ppf "%%%s <- rmw.%s %a, %a" old (rmw_name op) addr a
        operand v
  | Fence -> Format.pp_print_string ppf "fence"
  | Call (d, f, xs) -> Format.fprintf ppf "%acall %s(%a)" ret_prefix d f args xs
  | Call_indirect (d, t, xs) ->
      Format.fprintf ppf "%acall.ind [%a](%a)" ret_prefix d operand t args xs
  | Spawn (d, f, xs) -> Format.fprintf ppf "%%%s <- spawn %s(%a)" d f args xs
  | Join t -> Format.fprintf ppf "join %a" operand t
  | Lock m -> Format.fprintf ppf "lock %a" addr m
  | Unlock m -> Format.fprintf ppf "unlock %a" addr m
  | Cond_wait (cv, m) -> Format.fprintf ppf "wait %a, %a" addr cv addr m
  | Cond_signal cv -> Format.fprintf ppf "signal %a" addr cv
  | Cond_broadcast cv -> Format.fprintf ppf "broadcast %a" addr cv
  | Barrier_init (b, n) ->
      Format.fprintf ppf "barrier_init %a, %a" addr b operand n
  | Barrier_wait b -> Format.fprintf ppf "barrier_wait %a" addr b
  | Sem_init (s, n) -> Format.fprintf ppf "sem_init %a, %a" addr s operand n
  | Sem_post s -> Format.fprintf ppf "sem_post %a" addr s
  | Sem_wait s -> Format.fprintf ppf "sem_wait %a" addr s
  | Yield -> Format.pp_print_string ppf "yield"
  | Check (v, msg) -> Format.fprintf ppf "check %a %S" operand v msg
  | Nop -> Format.pp_print_string ppf "nop"

let term ppf = function
  | Goto l -> Format.fprintf ppf "goto %s" l
  | Br (v, a, b) -> Format.fprintf ppf "br %a ? %s : %s" operand v a b
  | Ret None -> Format.pp_print_string ppf "ret"
  | Ret (Some v) -> Format.fprintf ppf "ret %a" operand v
  | Exit -> Format.pp_print_string ppf "exit"

let block ppf b =
  Format.fprintf ppf "@[<v 2>%s:" b.lbl;
  List.iter (fun i -> Format.fprintf ppf "@,%a" instr i) b.ins;
  Format.fprintf ppf "@,%a@]" term b.term

let func ppf f =
  Format.fprintf ppf "@[<v 2>func %s(%s):" f.fname
    (String.concat ", " f.params);
  List.iter (fun b -> Format.fprintf ppf "@,%a" block b) f.blocks;
  Format.fprintf ppf "@]"

let program ppf p =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun gl ->
      if gl.gname <> thread_done_global then
        Format.fprintf ppf "global %s[%d] = %d@," gl.gname gl.size gl.ginit)
    p.globals;
  if p.func_table <> [] then
    Format.fprintf ppf "func_table = [%s]@," (String.concat "; " p.func_table);
  Format.fprintf ppf "entry = %s@," p.entry;
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,@,")
    func ppf p.funcs;
  Format.fprintf ppf "@]"

let loc ppf l =
  if l.lidx < 0 then Format.fprintf ppf "%s:%s:term" l.lfunc l.lblk
  else Format.fprintf ppf "%s:%s:%d" l.lfunc l.lblk l.lidx

let loc_to_string l = Format.asprintf "%a" loc l
let program_to_string p = Format.asprintf "%a" program p
