open Types

(* The canonical text is built in a [Buffer], with no [Format]: it is
   printed on every canonical digest, every recording and every trace
   load.  Recording headers carry its MD5, so its bytes are fixed:
   blocks indented by two, their instructions and terminators by four,
   one blank line between functions. *)

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

let operand b = function
  | Imm n -> add_int b n
  | Reg x ->
      Buffer.add_char b '%';
      Buffer.add_string b x

let addr b a =
  Buffer.add_char b '@';
  Buffer.add_string b a.base;
  match a.index with
  | Imm 0 -> ()
  | idx ->
      Buffer.add_char b '[';
      operand b idx;
      Buffer.add_char b ']'

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

let args b xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      operand b x)
    xs

(* "%d <- " *)
let dest b d =
  Buffer.add_char b '%';
  Buffer.add_string b d;
  Buffer.add_string b " <- "

(* "a, b" *)
let two b x y =
  operand b x;
  Buffer.add_string b ", ";
  operand b y

let with_addr b kw a =
  Buffer.add_string b kw;
  addr b a

let with_addr_operand b kw a v =
  with_addr b kw a;
  Buffer.add_string b ", ";
  operand b v

let call b f xs =
  Buffer.add_string b f;
  Buffer.add_char b '(';
  args b xs;
  Buffer.add_char b ')'

let instr b = function
  | Mov (d, o) ->
      dest b d;
      operand b o
  | Binop (d, op, x, y) ->
      dest b d;
      Buffer.add_string b (binop_name op);
      Buffer.add_char b ' ';
      two b x y
  | Cmp (d, op, x, y) ->
      dest b d;
      Buffer.add_string b "cmp.";
      Buffer.add_string b (cmpop_name op);
      Buffer.add_char b ' ';
      two b x y
  | Load (d, a) ->
      dest b d;
      with_addr b "load " a
  | Store (a, v) -> with_addr_operand b "store " a v
  | Cas (ok, a, e, n) ->
      dest b ok;
      with_addr b "cas " a;
      Buffer.add_string b ", ";
      two b e n
  | Rmw (old, op, a, v) ->
      dest b old;
      Buffer.add_string b "rmw.";
      Buffer.add_string b (rmw_name op);
      Buffer.add_char b ' ';
      addr b a;
      Buffer.add_string b ", ";
      operand b v
  | Fence -> Buffer.add_string b "fence"
  | Call (d, f, xs) ->
      Option.iter (dest b) d;
      Buffer.add_string b "call ";
      call b f xs
  | Call_indirect (d, t, xs) ->
      Option.iter (dest b) d;
      Buffer.add_string b "call.ind [";
      operand b t;
      Buffer.add_string b "](";
      args b xs;
      Buffer.add_char b ')'
  | Spawn (d, f, xs) ->
      dest b d;
      Buffer.add_string b "spawn ";
      call b f xs
  | Join t ->
      Buffer.add_string b "join ";
      operand b t
  | Lock m -> with_addr b "lock " m
  | Unlock m -> with_addr b "unlock " m
  | Cond_wait (cv, m) ->
      with_addr b "wait " cv;
      Buffer.add_string b ", ";
      addr b m
  | Cond_signal cv -> with_addr b "signal " cv
  | Cond_broadcast cv -> with_addr b "broadcast " cv
  | Barrier_init (x, n) -> with_addr_operand b "barrier_init " x n
  | Barrier_wait x -> with_addr b "barrier_wait " x
  | Sem_init (s, n) -> with_addr_operand b "sem_init " s n
  | Sem_post s -> with_addr b "sem_post " s
  | Sem_wait s -> with_addr b "sem_wait " s
  | Yield -> Buffer.add_string b "yield"
  | Check (v, msg) ->
      Buffer.add_string b "check ";
      operand b v;
      Buffer.add_string b " \"";
      Buffer.add_string b (String.escaped msg);
      Buffer.add_char b '"'
  | Nop -> Buffer.add_string b "nop"

let term b = function
  | Goto l ->
      Buffer.add_string b "goto ";
      Buffer.add_string b l
  | Br (v, x, y) ->
      Buffer.add_string b "br ";
      operand b v;
      Buffer.add_string b " ? ";
      Buffer.add_string b x;
      Buffer.add_string b " : ";
      Buffer.add_string b y
  | Ret None -> Buffer.add_string b "ret"
  | Ret (Some v) ->
      Buffer.add_string b "ret ";
      operand b v
  | Exit -> Buffer.add_string b "exit"

let add_func b f =
  Buffer.add_string b "func ";
  Buffer.add_string b f.fname;
  Buffer.add_char b '(';
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b p)
    f.params;
  Buffer.add_string b "):";
  List.iter
    (fun blk ->
      Buffer.add_string b "\n  ";
      Buffer.add_string b blk.lbl;
      Buffer.add_char b ':';
      List.iter
        (fun i ->
          Buffer.add_string b "\n    ";
          instr b i)
        blk.ins;
      Buffer.add_string b "\n    ";
      term b blk.term)
    f.blocks

let program_to_string p =
  let b = Buffer.create 4096 in
  List.iter
    (fun gl ->
      if gl.gname <> thread_done_global then begin
        Buffer.add_string b "global ";
        Buffer.add_string b gl.gname;
        Buffer.add_char b '[';
        add_int b gl.size;
        Buffer.add_string b "] = ";
        add_int b gl.ginit;
        Buffer.add_char b '\n'
      end)
    p.globals;
  if p.func_table <> [] then begin
    Buffer.add_string b "func_table = [";
    Buffer.add_string b (String.concat "; " p.func_table);
    Buffer.add_string b "]\n"
  end;
  Buffer.add_string b "entry = ";
  Buffer.add_string b p.entry;
  Buffer.add_char b '\n';
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b "\n\n";
      add_func b f)
    p.funcs;
  Buffer.contents b

(* The same text as lines of a vertical box, so a function printed
   inside an enclosing box is indented from the column it starts at. *)
let func ppf f =
  let b = Buffer.create 1024 in
  add_func b f;
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i line ->
      if i > 0 then Format.pp_print_cut ppf ();
      Format.pp_print_string ppf line)
    (String.split_on_char '\n' (Buffer.contents b));
  Format.pp_close_box ppf ()

let loc ppf l =
  if l.lidx < 0 then Format.fprintf ppf "%s:%s:term" l.lfunc l.lblk
  else Format.fprintf ppf "%s:%s:%d" l.lfunc l.lblk l.lidx

let loc_to_string l = Format.asprintf "%a" loc l
