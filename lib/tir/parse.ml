open Types

type error = { line : int; message : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.message

exception Err of string

let fail fmt = Printf.ksprintf (fun s -> raise (Err s)) fmt

(* One cursor pass over the whole text.  Each line is trimmed in place
   (by index, as [String.trim] would), lexed into a token buffer of int
   arrays that every line reuses, and parsed from that buffer.  Lexing
   the whole line before parsing it keeps a lexical error ahead of any
   syntax error on the same line.  Keywords are matched where they sit
   in the text; the only strings made are names, each shared through a
   per-parse table, and quoted messages. *)

type kind =
  | KId
  | KReg
  | KGlob
  | KInt
  | KStr
  | KArrow
  | KComma
  | KLPar
  | KRPar
  | KLBrk
  | KRBrk
  | KQuest
  | KColon
  | KSemi
  | KEol (* past the last token of the line *)

type st = {
  text : string;
  mutable line : int; (* 1-based; 0 once the text is exhausted *)
  (* the current line's tokens: text [lo, hi), or a KInt's value in [lo] *)
  mutable n : int;
  mutable kinds : kind array;
  mutable lo : int array;
  mutable hi : int array;
  mutable hs : int array; (* a name's hash, as {!Names} computes it *)
  mutable hash : int; (* of the identifier last scanned *)
  mutable strs : string array; (* KStr payloads, unescaped *)
  mutable pos : int; (* parse cursor into the tokens *)
  (* every name read so far, and by its id the register operand and the
     scalar address it names once a use asks for them: later uses share
     them *)
  names : Names.t;
  mutable regs : operand array;
  mutable scalars : addr array;
  (* program assembly *)
  mutable globals : (string * int * int) list; (* reversed *)
  mutable func_table : string list;
  mutable entry : string option;
  mutable funcs : func list; (* reversed *)
  mutable cur_func : (string * reg list) option;
  mutable cur_blocks : block list; (* reversed *)
  mutable cur_label : string option;
  mutable cur_ins : instr array; (* the open block's first [n_ins] *)
  mutable n_ins : int;
}

(* ------------------------------------------------------------------ *)
(* Slices of the text                                                 *)

(* [String.trim]'s blanks *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_blanks text i hi =
  if i < hi && is_blank (String.unsafe_get text i) then skip_blanks text (i + 1) hi
  else i

let rec drop_blanks text lo i =
  if i > lo && is_blank (String.unsafe_get text (i - 1)) then
    drop_blanks text lo (i - 1)
  else i

let rec equal_from text lo s k len =
  k = len
  || String.unsafe_get text (lo + k) = String.unsafe_get s k
     && equal_from text lo s (k + 1) len

let slice_is text lo hi s =
  let len = String.length s in
  hi - lo = len && equal_from text lo s 0 len

let has_prefix text lo hi s =
  let len = String.length s in
  hi - lo > len && equal_from text lo s 0 len

let rec index text i hi c =
  if i >= hi then -1
  else if String.unsafe_get text i = c then i
  else index text (i + 1) hi c

(* fresh blocks, so [==] tells them from any operand or address made *)
let no_reg = Reg (String.make 1 '%')
let no_addr = { base = String.make 1 '@'; index = no_reg }

let name st lo hi = Names.name st.names (Names.intern st.names st.text lo hi)

(* the id of the name token [i], with room for it in the side arrays *)
let name_id st i =
  let id = Names.intern_hashed st.names st.hs.(i) st.text st.lo.(i) st.hi.(i) in
  let len = Array.length st.regs in
  if id >= len then begin
    (* names interned by {!name} take ids too, so [id] may be far past
       the end *)
    let grow a fill =
      let b = Array.make (max (2 * len) (id + 1)) fill in
      Array.blit a 0 b 0 len;
      b
    in
    st.regs <- grow st.regs no_reg;
    st.scalars <- grow st.scalars no_addr
  end;
  id

let reg st i =
  let id = name_id st i in
  if st.regs.(id) == no_reg then st.regs.(id) <- Reg (Names.name st.names id);
  st.regs.(id)

(* [Imm n] for small [n], shared the same way *)
let small_imms = Array.init 1024 (fun i -> Imm (i - 512))

let imm n =
  if n >= -512 && n < 512 then Array.unsafe_get small_imms (n + 512) else Imm n

(* [s] split on [sep], each part trimmed; none when [s] is blank *)
let trimmed_parts st lo hi sep =
  let text = st.text in
  if skip_blanks text lo hi = hi then []
  else
    let rec parts lo =
      let e = match index text lo hi sep with -1 -> hi | e -> e in
      let l = skip_blanks text lo e in
      let part = name st l (drop_blanks text l e) in
      if e = hi then [ part ] else part :: parts (e + 1)
    in
    parts lo

(* ------------------------------------------------------------------ *)
(* Lexing one line into the token buffer                              *)

(* '\001' marks the characters of identifiers *)
let ident_chars =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '$' -> '\001'
      | _ -> '\000')

let is_ident_char c = String.unsafe_get ident_chars (Char.code c) = '\001'

let push st kind lo hi h =
  let n = st.n in
  if n = Array.length st.kinds then begin
    let grow a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 n;
      b
    in
    st.kinds <- grow st.kinds KEol;
    st.lo <- grow st.lo 0;
    st.hi <- grow st.hi 0;
    st.hs <- grow st.hs 0;
    st.strs <- grow st.strs ""
  end;
  Array.unsafe_set st.kinds n kind;
  Array.unsafe_set st.lo n lo;
  Array.unsafe_set st.hi n hi;
  Array.unsafe_set st.hs n h;
  st.n <- n + 1

(* Identifiers may embed ':' when it glues two name parts (lowered
   helper names like __lock:m); a ':' followed by a non-ident char is
   the standalone Colon token of a br terminator.  The scan leaves the
   identifier's hash, as {!Names} computes it, in [st.hash]. *)
let rec ident_end st text j hi h =
  let stop h =
    st.hash <- h land max_int;
    j
  in
  if j >= hi then stop h
  else
    let c = String.unsafe_get text j in
    if is_ident_char c then ident_end st text (j + 1) hi ((h * 31) + Char.code c)
    else if c = ':' && j + 1 < hi && is_ident_char (String.unsafe_get text (j + 1))
    then
      ident_end st text (j + 2) hi
        ((((h * 31) + Char.code ':') * 31) + Char.code (String.unsafe_get text (j + 1)))
    else stop h

let rec digits_end text k hi =
  if k < hi && String.unsafe_get text k >= '0' && String.unsafe_get text k <= '9'
  then digits_end text (k + 1) hi
  else k

(* A decimal literal with an optional '-', accumulated negatively so
   [min_int] reads like [int_of_string] reads it. *)
let lex_int st start hi =
  let text = st.text in
  let j = if String.unsafe_get text start = '-' then start + 1 else start in
  let stop = digits_end text j hi in
  if stop = j then fail "invalid integer %S" (String.sub text start (stop - start));
  let acc = ref 0 in
  for k = j to stop - 1 do
    let d = Char.code (String.unsafe_get text k) - 48 in
    (* once out of range, [acc] stays 1 *)
    if !acc < min_int / 10 || !acc * 10 < min_int + d then acc := 1;
    if !acc <= 0 then acc := (!acc * 10) - d
  done;
  if !acc > 0 || (j = start && !acc = min_int) then
    fail "integer %S out of range" (String.sub text start (stop - start));
  push st KInt (if j > start then !acc else - !acc) 0 0;
  stop

(* [j] is past the opening quote.  A backslash always takes the next
   character with it. *)
let rec close_quote text j hi =
  if j >= hi then fail "unterminated string"
  else
    match String.unsafe_get text j with
    | '"' -> j
    | '\\' when j + 1 < hi -> close_quote text (j + 2) hi
    | _ -> close_quote text (j + 1) hi

(* The raw contents are unescaped as OCaml string literals are. *)
let lex_string st start hi =
  let text = st.text in
  let stop = close_quote text (start + 1) hi in
  let raw = String.sub text (start + 1) (stop - start - 1) in
  let s =
    if not (String.contains raw '\\') then raw
    else
      try Scanf.unescaped raw
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        fail "malformed escape in string"
  in
  push st KStr 0 0 0;
  st.strs.(st.n - 1) <- s;
  stop + 1

let punct st kind p =
  push st kind p (p + 1) 0;
  p + 1

let lex st lo hi =
  let text = st.text in
  st.n <- 0;
  st.pos <- 0;
  let i = ref lo in
  while !i < hi do
    let p = !i in
    i :=
      match String.unsafe_get text p with
      | ' ' | '\t' -> p + 1
      | '#' -> hi
      | '%' ->
          let e = ident_end st text (p + 1) hi 0 in
          push st KReg (p + 1) e st.hash;
          e
      | '@' ->
          let e = ident_end st text (p + 1) hi 0 in
          push st KGlob (p + 1) e st.hash;
          e
      | '<' when p + 1 < hi && String.unsafe_get text (p + 1) = '-' ->
          push st KArrow p (p + 2) 0;
          p + 2
      | ',' -> punct st KComma p
      | '(' -> punct st KLPar p
      | ')' -> punct st KRPar p
      | '[' -> punct st KLBrk p
      | ']' -> punct st KRBrk p
      | '?' -> punct st KQuest p
      | ':' -> punct st KColon p
      | ';' -> punct st KSemi p
      | '=' ->
          push st KId p (p + 1) (Char.code '=');
          p + 1
      | '"' -> lex_string st p hi
      | '-' | '0' .. '9' -> lex_int st p hi
      | c when is_ident_char c ->
          let e = ident_end st text p hi 0 in
          push st KId p e st.hash;
          e
      | c -> fail "unexpected character %C" c
  done

(* ------------------------------------------------------------------ *)
(* Keywords, matched in place                                         *)

type word =
  | W_other
  | W_binop of binop
  | W_load
  | W_cas
  | W_call
  | W_call_ind
  | W_spawn
  | W_store
  | W_fence
  | W_yield
  | W_nop
  | W_join
  | W_lock
  | W_unlock
  | W_wait
  | W_signal
  | W_broadcast
  | W_barrier_init
  | W_barrier_wait
  | W_sem_init
  | W_sem_post
  | W_sem_wait
  | W_check
  | W_goto
  | W_br
  | W_ret
  | W_exit

let kind st i = if i < st.n then Array.unsafe_get st.kinds i else KEol

(* The keyword the token at [i] spells, if it is an identifier that
   spells one exactly. *)
let word st i =
  if kind st i <> KId then W_other
  else
    let t = st.text and lo = st.lo.(i) and hi = st.hi.(i) in
    match String.unsafe_get t lo with
    | 'a' ->
        if slice_is t lo hi "add" then W_binop Add
        else if slice_is t lo hi "and" then W_binop And
        else W_other
    | 'b' ->
        if slice_is t lo hi "br" then W_br
        else if slice_is t lo hi "broadcast" then W_broadcast
        else if slice_is t lo hi "barrier_init" then W_barrier_init
        else if slice_is t lo hi "barrier_wait" then W_barrier_wait
        else W_other
    | 'c' ->
        if slice_is t lo hi "call" then W_call
        else if slice_is t lo hi "cas" then W_cas
        else if slice_is t lo hi "call.ind" then W_call_ind
        else if slice_is t lo hi "check" then W_check
        else W_other
    | 'd' -> if slice_is t lo hi "div" then W_binop Div else W_other
    | 'e' -> if slice_is t lo hi "exit" then W_exit else W_other
    | 'f' -> if slice_is t lo hi "fence" then W_fence else W_other
    | 'g' -> if slice_is t lo hi "goto" then W_goto else W_other
    | 'j' -> if slice_is t lo hi "join" then W_join else W_other
    | 'l' ->
        if slice_is t lo hi "load" then W_load
        else if slice_is t lo hi "lock" then W_lock
        else W_other
    | 'm' ->
        if slice_is t lo hi "mul" then W_binop Mul
        else if slice_is t lo hi "mod" then W_binop Mod
        else W_other
    | 'n' -> if slice_is t lo hi "nop" then W_nop else W_other
    | 'o' -> if slice_is t lo hi "or" then W_binop Or else W_other
    | 'r' -> if slice_is t lo hi "ret" then W_ret else W_other
    | 's' ->
        if slice_is t lo hi "store" then W_store
        else if slice_is t lo hi "sub" then W_binop Sub
        else if slice_is t lo hi "spawn" then W_spawn
        else if slice_is t lo hi "signal" then W_signal
        else if slice_is t lo hi "shl" then W_binop Shl
        else if slice_is t lo hi "shr" then W_binop Shr
        else if slice_is t lo hi "sem_init" then W_sem_init
        else if slice_is t lo hi "sem_post" then W_sem_post
        else if slice_is t lo hi "sem_wait" then W_sem_wait
        else W_other
    | 'u' -> if slice_is t lo hi "unlock" then W_unlock else W_other
    | 'w' -> if slice_is t lo hi "wait" then W_wait else W_other
    | 'x' -> if slice_is t lo hi "xor" then W_binop Xor else W_other
    | 'y' -> if slice_is t lo hi "yield" then W_yield else W_other
    | _ -> W_other

(* the identifier at [i] is [prefix] followed by at least one character *)
let has_suffix st i prefix =
  kind st i = KId && has_prefix st.text st.lo.(i) st.hi.(i) prefix

let suffix_is st i prefix s =
  slice_is st.text (st.lo.(i) + String.length prefix) st.hi.(i) s

let tok_name st i = Names.name st.names (name_id st i)
let tok_string st i = String.sub st.text st.lo.(i) (st.hi.(i) - st.lo.(i))

(* ------------------------------------------------------------------ *)
(* Parsing from the token buffer                                      *)

let operand st =
  let i = st.pos in
  match kind st i with
  | KInt ->
      st.pos <- i + 1;
      imm st.lo.(i)
  | KReg ->
      st.pos <- i + 1;
      reg st i
  | _ -> fail "expected an operand (integer or %%register)"

let addr st =
  let i = st.pos in
  if kind st i <> KGlob then fail "expected an @address";
  let id = name_id st i in
  let base = Names.name st.names id in
  if kind st (i + 1) = KLBrk then begin
    st.pos <- i + 2;
    let index = operand st in
    if kind st st.pos <> KRBrk then fail "expected ']' after address index";
    st.pos <- st.pos + 1;
    { base; index }
  end
  else begin
    st.pos <- i + 1;
    if st.scalars.(id) == no_addr then st.scalars.(id) <- { base; index = Imm 0 };
    st.scalars.(id)
  end

let comma st =
  if kind st st.pos = KComma then st.pos <- st.pos + 1 else fail "expected ','"

let expect st k =
  if kind st st.pos = k then (st.pos <- st.pos + 1; true) else false

(* after the '(' *)
let rec args_until_rpar st acc =
  if expect st KRPar then List.rev acc
  else if acc = [] then
    let o = operand st in
    args_until_rpar st [ o ]
  else if expect st KComma then
    let o = operand st in
    args_until_rpar st (o :: acc)
  else fail "expected ',' or ')' in argument list"

(* [f(args)]: the callee and its arguments *)
let call_args st k =
  let i = st.pos in
  if kind st i = KId && kind st (i + 1) = KLPar then begin
    let f = tok_name st i in
    st.pos <- i + 2;
    let xs = args_until_rpar st [] in
    k f xs
  end
  else fail "expected a function call"

(* [call.ind [target](args)], the cursor on the target *)
let indirect st k =
  let target = operand st in
  if kind st st.pos = KRBrk && kind st (st.pos + 1) = KLPar then begin
    st.pos <- st.pos + 2;
    let xs = args_until_rpar st [] in
    k target xs
  end
  else fail "expected '](' in indirect call"

let finish st instr =
  if st.pos <> st.n then fail "trailing tokens after instruction";
  instr

let cmpop st i =
  if suffix_is st i "cmp." "eq" then Some Eq
  else if suffix_is st i "cmp." "ne" then Some Ne
  else if suffix_is st i "cmp." "lt" then Some Lt
  else if suffix_is st i "cmp." "le" then Some Le
  else if suffix_is st i "cmp." "gt" then Some Gt
  else if suffix_is st i "cmp." "ge" then Some Ge
  else None

(* An assignment '%d <- rhs', the cursor on the rhs. *)
let assignment st d =
  let i = st.pos in
  match word st i with
  | W_load ->
      st.pos <- i + 1;
      let a = addr st in
      finish st (Load (d, a))
  | W_cas ->
      st.pos <- i + 1;
      let a = addr st in
      comma st;
      let e = operand st in
      comma st;
      let nv = operand st in
      finish st (Cas (d, a, e, nv))
  | W_other when has_suffix st i "rmw." ->
      let op =
        if suffix_is st i "rmw." "add" then Rmw_add
        else if suffix_is st i "rmw." "xchg" then Rmw_exchange
        else if suffix_is st i "rmw." "or" then Rmw_or
        else if suffix_is st i "rmw." "and" then Rmw_and
        else fail "unknown rmw operation %S" (tok_string st i)
      in
      st.pos <- i + 1;
      let a = addr st in
      comma st;
      let v = operand st in
      if st.pos <> st.n then fail "trailing tokens";
      Rmw (d, op, a, v)
  | W_other when has_suffix st i "cmp." -> (
      match cmpop st i with
      | Some op ->
          st.pos <- i + 1;
          let a = operand st in
          comma st;
          let b = operand st in
          finish st (Cmp (d, op, a, b))
      | None -> fail "unknown comparison %S" (tok_string st i))
  | W_call_ind when kind st (i + 1) = KLBrk ->
      st.pos <- i + 2;
      indirect st (fun t xs -> finish st (Call_indirect (Some d, t, xs)))
  | W_call ->
      st.pos <- i + 1;
      call_args st (fun f xs -> finish st (Call (Some d, f, xs)))
  | W_spawn ->
      st.pos <- i + 1;
      call_args st (fun f xs -> finish st (Spawn (d, f, xs)))
  | W_binop op ->
      st.pos <- i + 1;
      let a = operand st in
      comma st;
      let b = operand st in
      finish st (Binop (d, op, a, b))
  | _ ->
      let o = operand st in
      finish st (Mov (d, o))

(* A statement after its leading keyword, the cursor past it. *)
let with_addr st k =
  st.pos <- 1;
  let a = addr st in
  finish st (k a)

let with_addr_operand st k =
  st.pos <- 1;
  let a = addr st in
  comma st;
  let v = operand st in
  finish st (k a v)

(* [w]: the keyword of the line's first token *)
let instruction st w =
  if kind st 0 = KReg && kind st 1 = KArrow then begin
    let d = tok_name st 0 in
    st.pos <- 2;
    assignment st d
  end
  else
    match w with
    | W_store -> with_addr_operand st (fun a v -> Store (a, v))
    | W_fence when st.n = 1 -> Fence
    | W_yield when st.n = 1 -> Yield
    | W_nop when st.n = 1 -> Nop
    | W_call_ind when kind st 1 = KLBrk ->
        st.pos <- 2;
        indirect st (fun t xs -> finish st (Call_indirect (None, t, xs)))
    | W_call ->
        st.pos <- 1;
        call_args st (fun f xs -> finish st (Call (None, f, xs)))
    | W_join ->
        st.pos <- 1;
        let o = operand st in
        finish st (Join o)
    | W_lock -> with_addr st (fun a -> Lock a)
    | W_unlock -> with_addr st (fun a -> Unlock a)
    | W_wait ->
        st.pos <- 1;
        let cv = addr st in
        comma st;
        let m = addr st in
        finish st (Cond_wait (cv, m))
    | W_signal -> with_addr st (fun a -> Cond_signal a)
    | W_broadcast -> with_addr st (fun a -> Cond_broadcast a)
    | W_barrier_init -> with_addr_operand st (fun a v -> Barrier_init (a, v))
    | W_barrier_wait -> with_addr st (fun a -> Barrier_wait a)
    | W_sem_init -> with_addr_operand st (fun a v -> Sem_init (a, v))
    | W_sem_post -> with_addr st (fun a -> Sem_post a)
    | W_sem_wait -> with_addr st (fun a -> Sem_wait a)
    | W_check ->
        st.pos <- 1;
        let v = operand st in
        if st.pos = st.n - 1 && kind st st.pos = KStr then
          Check (v, st.strs.(st.pos))
        else fail "expected a quoted message after check"
    | _ -> fail "unrecognized instruction"

let terminator st w =
  match (w, st.n) with
  | W_goto, 2 when kind st 1 = KId -> Some (Goto (tok_name st 1))
  | W_br, 6
    when kind st 2 = KQuest && kind st 3 = KId && kind st 4 = KColon
         && kind st 5 = KId ->
      st.pos <- 1;
      let v = operand st in
      Some (Br (v, tok_name st 3, tok_name st 5))
  | W_ret, 1 -> Some (Ret None)
  | W_ret, 2 ->
      st.pos <- 1;
      Some (Ret (Some (operand st)))
  | W_exit, 1 -> Some Exit
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Line-oriented program assembly                                     *)

let close_block st term =
  match st.cur_label with
  | None -> fail "terminator outside a block"
  | Some lbl ->
      let rec ins i acc =
        if i < 0 then acc else ins (i - 1) (st.cur_ins.(i) :: acc)
      in
      st.cur_blocks <- { lbl; ins = ins (st.n_ins - 1) []; term } :: st.cur_blocks;
      st.cur_label <- None;
      st.n_ins <- 0

let close_func st =
  match (st.cur_label, st.cur_func) with
  | Some lbl, _ -> fail "block %S has no terminator" lbl
  | None, Some (fname, params) ->
      if st.cur_blocks = [] then fail "function %S has no blocks" fname;
      st.funcs <- { fname; params; blocks = List.rev st.cur_blocks } :: st.funcs;
      st.cur_func <- None;
      st.cur_blocks <- []
  | None, None -> ()

(* global NAME[SIZE] = INIT *)
let global_decl st lo hi =
  lex st lo hi;
  let int i = st.lo.(i) in
  let shaped =
    kind st 0 = KId && kind st 1 = KLBrk && kind st 2 = KInt && kind st 3 = KRBrk
  in
  if shaped && st.n = 4 then st.globals <- (tok_name st 0, int 2, 0) :: st.globals
  else if
    shaped && st.n = 6
    && slice_is st.text st.lo.(4) st.hi.(4) "="
    && kind st 5 = KInt
  then st.globals <- (tok_name st 0, int 2, int 5) :: st.globals
  else fail "malformed global declaration"

(* func_table = [f; g] *)
let func_table_decl st lo hi =
  let lo = skip_blanks st.text lo hi in
  if hi - lo < 2 || st.text.[lo] <> '[' then fail "malformed func_table";
  st.func_table <- trimmed_parts st (lo + 1) (hi - 1) ';'

(* func NAME(p1, p2): *)
let func_header st lo hi =
  let text = st.text in
  let lp = index text lo hi '(' in
  if lp < 0 then fail "malformed function header";
  let rp = index text lo hi ')' in
  if rp <= lp then fail "malformed function header";
  let l = skip_blanks text lo lp in
  let fname = name st l (drop_blanks text l lp) in
  st.cur_func <- Some (fname, trimmed_parts st (lp + 1) rp ',')

let statement st lo hi =
  lex st lo hi;
  if st.n > 0 then
    let w = word st 0 in
    match terminator st w with
    | Some t -> close_block st t
    | None ->
        if st.cur_label = None then fail "instruction outside a block";
        let i = instruction st w in
        if st.n_ins = Array.length st.cur_ins then begin
          let b = Array.make (2 * st.n_ins) Nop in
          Array.blit st.cur_ins 0 b 0 st.n_ins;
          st.cur_ins <- b
        end;
        st.cur_ins.(st.n_ins) <- i;
        st.n_ins <- st.n_ins + 1

let is_label text lo hi =
  hi - lo > 1 && text.[hi - 1] = ':' && index text lo hi ' ' < 0

let label st lo hi =
  (match st.cur_label with
  | Some lbl -> fail "block %S has no terminator" lbl
  | None -> ());
  if st.cur_func = None then fail "label outside a function";
  st.cur_label <- Some (name st lo (hi - 1))

(* One trimmed, non-empty line.  Only lines starting 'g', 'e' or 'f' can
   be declarations or function headers. *)
let read_line st lo hi =
  let text = st.text in
  match String.unsafe_get text lo with
  | '#' -> ()
  | 'g' when has_prefix text lo hi "global " -> global_decl st (lo + 7) hi
  | 'f' when has_prefix text lo hi "func_table = " ->
      func_table_decl st (lo + 13) hi
  | 'e' when has_prefix text lo hi "entry = " ->
      let l = skip_blanks text (lo + 8) hi in
      st.entry <- Some (name st l hi)
  | 'f' when has_prefix text lo hi "func " ->
      close_func st;
      func_header st (lo + 5) hi
  | _ -> if is_label text lo hi then label st lo hi else statement st lo hi

let parse_text st =
  let text = st.text in
  let len = String.length text in
  let rec lines start =
    let eol = match index text start len '\n' with -1 -> len | e -> e in
    st.line <- st.line + 1;
    let lo = skip_blanks text start eol in
    let hi = drop_blanks text lo eol in
    if lo < hi then read_line st lo hi;
    if eol < len then lines (eol + 1)
  in
  lines 0;
  st.line <- 0;
  close_func st;
  let entry =
    match st.entry with Some e -> e | None -> fail "missing 'entry =' line"
  in
  Builder.program
    ~globals:(List.rev st.globals)
    ~func_table:st.func_table ~entry (List.rev st.funcs)

let program text =
  let st =
    {
      text;
      line = 0;
      n = 0;
      kinds = Array.make 16 KEol;
      lo = Array.make 16 0;
      hi = Array.make 16 0;
      hs = Array.make 16 0;
      hash = 0;
      strs = Array.make 16 "";
      pos = 0;
      (* about one name per 32 bytes of canonical text *)
      names = Names.create (String.length text / 32);
      regs = Array.make 256 no_reg;
      scalars = Array.make 256 no_addr;
      globals = [];
      func_table = [];
      entry = None;
      funcs = [];
      cur_func = None;
      cur_blocks = [];
      cur_label = None;
      cur_ins = Array.make 64 Nop;
      n_ins = 0;
    }
  in
  match parse_text st with
  | p -> Ok p
  | exception Err message -> Error { line = st.line; message }

let program_exn text =
  match program text with
  | Ok p -> p
  | Error e -> invalid_arg ("Tir.Parse: " ^ error_to_string e)
