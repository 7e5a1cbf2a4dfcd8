(* The textual TIR parser: hand-written cases plus the round-trip law
   parse(pretty(p)) = p over the entire bundled corpus. *)

let simple_source =
  {|
# the paper's motivating example
global flag[1] = 0
global data[1] = 0
entry = main

func main():
entry:
  %t1 <- spawn producer()
  %t2 <- spawn consumer()
  goto wait
wait:
  join %t1
  join %t2
  exit

func producer():
entry:
  store @data, 42
  store @flag, 1
  exit

func consumer():
entry:
  goto spin
spin:
  %f <- load @flag
  br %f ? work : spin
work:
  %d <- load @data
  %d1 <- add %d, -1
  store @data, %d1
  exit
|}

let test_parse_and_run () =
  let p = Arde.Parse.program_exn simple_source in
  Arde.Validate.check_exn p;
  let res = Arde.Machine.run_program Arde.Machine.default_config p in
  Alcotest.(check bool) "finished" true
    (res.Arde.Machine.outcome = Arde.Machine.Finished);
  Alcotest.(check int) "data handed off" 41 (Arde.Machine.read_global res "data" 0)

let test_parse_detect () =
  let p = Arde.Parse.program_exn simple_source in
  Alcotest.(check bool) "lib mode flags data" true
    (List.mem "data"
       (Arde.Driver.racy_bases
          (Arde.detect ~mode:Arde.Config.Helgrind_lib (Arde.Input.Program p))));
  Alcotest.(check (list string)) "spin mode clean" []
    (Arde.Driver.racy_bases
       (Arde.detect
          ~mode:(Arde.Config.Helgrind_spin 7)
          (Arde.Input.Program p)))

let expect_error ~line source =
  match Arde.Parse.program source with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> Alcotest.(check int) "error line" line e.Arde.Parse.line

let test_error_positions () =
  expect_error ~line:3
    "entry = main\n\nfunc main(:\nentry:\n  exit\n";
  expect_error ~line:4 "entry = main\n\nfunc main():\n  %x <- load @g\n";
  (* instruction outside a block *)
  expect_error ~line:5 "entry = main\n\nfunc main():\nentry:\n  %x <- bogus @g\n"

(* One malformed input per error the reader raises, each pinned to its
   line and message.  [body] inputs sit inside a block that opens on
   line 3 after a comment line, so their error is on line 5. *)
let body ins = "# header\nentry = main\nfunc main():\nentry:\n" ^ ins ^ "\n  exit\n"

let error_table =
  [
    ("unterminated string", body "  check %v \"abc", 5, "unterminated string");
    ("unexpected character", body "  %x <- !", 5, "unexpected character '!'");
    ("lexing precedes parsing", body "  store @g 1 !", 5, "unexpected character '!'");
    ( "operand",
      body "  %x <- add @g, 1",
      5,
      "expected an operand (integer or %register)" );
    ("empty right-hand side", body "  %x <-", 5,
      "expected an operand (integer or %register)");
    ("address index", body "  %x <- load @g[1", 5, "expected ']' after address index");
    ("address", body "  %x <- load 5", 5, "expected an @address");
    ("comma", body "  store @g 1", 5, "expected ','");
    ("argument list", body "  call f(1 2)", 5, "expected ',' or ')' in argument list");
    ("call", body "  call 5", 5, "expected a function call");
    ("rmw operation", body "  %x <- rmw.sub @g, 1", 5,
      "unknown rmw operation \"rmw.sub\"");
    ("rmw trailing", body "  %x <- rmw.add @g, 1, 2", 5, "trailing tokens");
    ("comparison", body "  %x <- cmp.zz 1, 2", 5, "unknown comparison \"cmp.zz\"");
    ("indirect call result", body "  %x <- call.ind [%f] 1", 5,
      "expected '](' in indirect call");
    ("trailing tokens", body "  %x <- load @g 5", 5, "trailing tokens after instruction");
    ("indirect call", body "  call.ind [%f]", 5, "expected '](' in indirect call");
    ("check message", body "  check %v", 5, "expected a quoted message after check");
    ("unrecognized", body "  bogus", 5, "unrecognized instruction");
    ("goto arity", body "  goto a b", 5, "unrecognized instruction");
    ("ret operand", body "  ret x", 5, "expected an operand (integer or %register)");
    ( "terminator outside a block",
      "entry = main\nfunc main():\n  exit\n",
      3,
      "terminator outside a block" );
    ( "unterminated block at func",
      "entry = main\nfunc main():\nentry:\n  nop\n\nfunc other():\n",
      6,
      "block \"entry\" has no terminator" );
    ( "function without blocks",
      "entry = main\nfunc a():\nfunc b():\n",
      3,
      "function \"a\" has no blocks" );
    ("global", "global x = 1\n", 1, "malformed global declaration");
    ("func_table", "func_table = x\n", 1, "malformed func_table");
    ("function header", "func main:\n", 1, "malformed function header");
    ("function header parens", "\n  func main)(:\n", 2, "malformed function header");
    ( "unterminated block at label",
      "entry = main\nfunc main():\nentry:\n  nop\nnext:\n",
      5,
      "block \"entry\" has no terminator" );
    ("label outside a function", "entry:\n", 1, "label outside a function");
    ( "instruction outside a block",
      "entry = main\nfunc main():\n  %x <- load @g\n",
      3,
      "instruction outside a block" );
    ("missing entry", "func main():\nentry:\n  exit\n", 0, "missing 'entry =' line");
    (* malformed literals are parse errors, not exceptions *)
    ("integer without digits", body "  %x <- -", 5, "invalid integer \"-\"");
    ( "integer out of range",
      body "  %x <- 4611686018427387904",
      5,
      "integer \"4611686018427387904\" out of range" );
    ("malformed escape", body "  check %v \"\\q\"", 5, "malformed escape in string");
    ( "unterminated block at end",
      "entry = main\nfunc main():\nentry:\n  nop\n",
      0,
      "block \"entry\" has no terminator" );
  ]

let test_error_table () =
  List.iter
    (fun (name, source, line, message) ->
      match Arde.Parse.program source with
      | Ok _ -> Alcotest.failf "%s: expected a parse error" name
      | Error e ->
          Alcotest.(check (pair int string))
            name (line, message)
            (e.Arde.Parse.line, e.Arde.Parse.message))
    error_table

(* The extreme literals read as [int_of_string] reads them. *)
let test_integer_bounds () =
  let p =
    Arde.Parse.program_exn
      "entry = main\nfunc main():\nentry:\n  %a <- 4611686018427387903\n  \
       %b <- -4611686018427387904\n  %c <- -0\n  exit\n"
  in
  match p.Arde.Types.funcs with
  | [ { Arde.Types.blocks = [ { Arde.Types.ins; _ } ]; _ } ] ->
      Alcotest.(check bool) "max_int, min_int, 0" true
        (ins
        = Arde.Types.
            [ Mov ("a", Imm max_int); Mov ("b", Imm min_int); Mov ("c", Imm 0) ])
  | _ -> Alcotest.fail "unexpected shape"

(* Many names before the first register: labels take name ids too, so
   the first register's id lands far past any table sized so far. *)
let test_many_names () =
  let b = Buffer.create 16384 in
  Buffer.add_string b "entry = main\nfunc main():\n";
  for i = 0 to 1999 do
    Printf.bprintf b "b%d:\n  exit\n" i
  done;
  Buffer.add_string b "last:\n  %x <- 1\n  ret %x\n";
  let p = Arde.Parse.program_exn (Buffer.contents b) in
  match p.Arde.Types.funcs with
  | [ f ] ->
      Alcotest.(check int) "blocks" 2001 (List.length f.Arde.Types.blocks)
  | _ -> Alcotest.fail "unexpected shape"

let test_missing_terminator () =
  match Arde.Parse.program "entry = main\nfunc main():\nentry:\n  nop\n" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ()

let test_missing_entry () =
  match Arde.Parse.program "func main():\nentry:\n  exit\n" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ()

let test_comments_and_blanks () =
  let p =
    Arde.Parse.program_exn
      "# header\n\nentry = main\n\nfunc main():\nentry:\n  nop  # trailing\n  exit\n"
  in
  Arde.Validate.check_exn p

let test_string_escapes () =
  let p =
    Arde.Parse.program_exn
      "entry = main\nfunc main():\nentry:\n  %v <- 0\n  check %v \"with \\\"quotes\\\"\"\n  exit\n"
  in
  let res = Arde.Machine.run_program Arde.Machine.default_config p in
  match res.Arde.Machine.check_failures with
  | [ (_, msg) ] -> Alcotest.(check string) "unescaped" "with \"quotes\"" msg
  | _ -> Alcotest.fail "check not recorded"

(* Round-trip over the whole corpus: every bundled program (native and
   lowered, which exercises helper names containing ':') survives
   pretty -> parse structurally intact. *)
let roundtrip p =
  let printed = Arde.Pretty.program_to_string p in
  match Arde.Parse.program printed with
  | Error e -> Alcotest.failf "re-parse failed: %s" (Arde.Parse.error_to_string e)
  | Ok p' ->
      if p <> p' then begin
        let printed' = Arde.Pretty.program_to_string p' in
        if printed <> printed' then
          Alcotest.failf "round-trip mismatch:\n%s\nvs\n%s" printed printed'
        else Alcotest.fail "round-trip differs structurally but prints equal"
      end

let test_roundtrip_suite () =
  List.iter
    (fun c -> roundtrip c.Arde_workloads.Racey.program)
    (Arde_workloads.Racey.all ())

let test_roundtrip_lowered () =
  List.iter
    (fun c -> roundtrip (Arde.Lower.lower c.Arde_workloads.Racey.program))
    (Arde_workloads.Racey.all ())

let test_roundtrip_parsec () =
  List.iter (fun (_, p) -> roundtrip p) (Arde_workloads.Parsec.all ())

(* The canonical text of every bundled program and of its three
   lowerings, as one MD5.  Recording headers carry the canonical MD5, so
   the printer must keep every byte; the value was taken from the
   Format-based printer it replaced. *)
let test_canonical_text_frozen () =
  let b = Buffer.create (1 lsl 20) in
  let n = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun p ->
          incr n;
          Buffer.add_string b (Arde.Pretty.program_to_string p);
          Buffer.add_char b '\000')
        (p
        :: List.map
             (fun style -> Arde.Lower.lower ~style p)
             [ Arde.Lower.Compact; Arde.Lower.Realistic; Arde.Lower.Futex ]))
    (List.map (fun c -> c.Arde_workloads.Racey.program) (Arde_workloads.Racey.all ())
    @ List.map snd (Arde_workloads.Parsec.all ()));
  Alcotest.(check int) "texts" 532 !n;
  Alcotest.(check string) "combined MD5" "1d6d6ae7ff99f99018b2637465b303b8"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The committed examples hold what the printer never emits: comments,
   blank lines, free spacing.  Each must read, survive print -> parse,
   and do what its header promises. *)
let read_example name =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) ("../examples/" ^ name)
  in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let p = Arde.Parse.program_exn text in
  (match Arde.Parse.program (Arde.Pretty.program_to_string p) with
  | Ok p' -> Alcotest.(check bool) (name ^ ": print -> parse") true (p = p')
  | Error e -> Alcotest.failf "%s: re-parse: %s" name (Arde.Parse.error_to_string e));
  p

let test_example_flag_handoff () =
  let p = read_example "flag_handoff.tir" in
  let bases mode = Arde.Driver.racy_bases (Arde.detect ~mode (Arde.Input.Program p)) in
  Alcotest.(check bool) "lib reports data" true
    (List.mem "data" (bases Arde.Config.Helgrind_lib));
  Alcotest.(check (list string)) "lib+spin(7) is clean" []
    (bases (Arde.Config.Helgrind_spin 7))

let test_example_livelock () =
  let p = read_example "livelock.tir" in
  let r =
    Arde.detect
      ~ctx:(Arde.Driver.ctx ~options:(Arde.Options.make ~fuel:20_000 ()) ())
      ~mode:(Arde.Config.Helgrind_spin 7) (Arde.Input.Program p)
  in
  Alcotest.(check bool) "seeds ran" true (r.Arde.Driver.runs <> []);
  List.iter
    (fun sr ->
      match sr.Arde.Driver.sr_outcome with
      | Arde.Driver.Completed
          (Arde.Machine.Livelock
             [ { Arde.Machine.sp_loc = { Arde.Types.lfunc = "consumer"; lblk = "spin"; _ };
                 sp_bases = [ "flag" ]; _ } ]) -> ()
      | o ->
          Alcotest.failf "seed %d: %a" sr.Arde.Driver.sr_seed
            Arde.Driver.pp_seed_outcome o)
    r.Arde.Driver.runs;
  Alcotest.(check bool) "degraded" true
    (r.Arde.Driver.health.Arde.Driver.h_verdict = Arde.Driver.Degraded)

let suite =
  [
    Alcotest.test_case "parse and execute" `Quick test_parse_and_run;
    Alcotest.test_case "parse and detect" `Quick test_parse_detect;
    Alcotest.test_case "error positions" `Quick test_error_positions;
    Alcotest.test_case "every error pinned: line and message" `Quick
      test_error_table;
    Alcotest.test_case "integer literal bounds" `Quick test_integer_bounds;
    Alcotest.test_case "many names before a register" `Quick test_many_names;
    Alcotest.test_case "missing terminator rejected" `Quick
      test_missing_terminator;
    Alcotest.test_case "missing entry rejected" `Quick test_missing_entry;
    Alcotest.test_case "comments and blank lines" `Quick test_comments_and_blanks;
    Alcotest.test_case "string escapes" `Quick test_string_escapes;
    Alcotest.test_case "round-trip: unit suite" `Slow test_roundtrip_suite;
    Alcotest.test_case "round-trip: lowered suite" `Slow test_roundtrip_lowered;
    Alcotest.test_case "round-trip: parsec programs" `Slow test_roundtrip_parsec;
    Alcotest.test_case "canonical text frozen" `Slow test_canonical_text_frozen;
    Alcotest.test_case "example: flag_handoff.tir" `Quick test_example_flag_handoff;
    Alcotest.test_case "example: livelock.tir" `Quick test_example_livelock;
  ]
