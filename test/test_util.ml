(* Unit tests for the util library: PRNG determinism and table layout. *)

module Prng = Arde_util.Prng
module Table = Arde_util.Table
module Fifo = Arde_util.Fifo_table

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

let test_same_seed_same_stream () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_different_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

let test_int_bounds () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 13 in
    if v < 0 || v >= 13 then Alcotest.failf "out of range: %d" v
  done

let test_int_rejects_bad_bound () =
  let t = Prng.create 1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int t 0))

let test_int_covers_range () =
  let t = Prng.create 3 in
  let seen = Array.make 8 false in
  for _ = 1 to 400 do
    seen.(Prng.int t 8) <- true
  done;
  Alcotest.(check bool) "all 8 values appear" true (Array.for_all Fun.id seen)

let test_copy_is_independent () =
  let a = Prng.create 5 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_split_diverges () =
  let a = Prng.create 9 in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "split stream is distinct" true (!same < 4)

let test_shuffle_permutes () =
  let t = Prng.create 11 in
  let a = Array.init 20 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 Fun.id) sorted

let test_bool_is_fair_enough () =
  let t = Prng.create 13 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool t then incr trues
  done;
  Alcotest.(check bool) "roughly fair" true (!trues > 400 && !trues < 600)

let test_float_bounds () =
  let t = Prng.create 17 in
  for _ = 1 to 100 do
    let f = Prng.float t 2.5 in
    if f < 0. || f >= 2.5 then Alcotest.failf "float out of range: %f" f
  done

let test_pick () =
  let t = Prng.create 19 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 20 do
    let x = Prng.pick t arr in
    Alcotest.(check bool) "member" true (Array.mem x arr)
  done

(* ---- JSON input hardening ----

   The parser sits on the server's socket boundary, so adversarial
   input must come back as a structured error — never a stack overflow
   or an unbounded allocation. *)

module J = Arde_util.Json

let test_json_depth_cap () =
  (* A frame of a hundred thousand '['s must fail cleanly, not blow the
     stack.  The error points at the bracket that crossed the limit. *)
  let deep = String.make 100_000 '[' in
  (match J.parse_checked deep with
  | Ok _ -> Alcotest.fail "over-deep input accepted"
  | Error e ->
      Alcotest.(check int) "fails at the limit-crossing bracket"
        J.default_max_depth e.J.at;
      Alcotest.(check bool) "names the depth limit" true
        (contains e.J.reason "nesting deeper than"));
  (* Mixed nesting counts objects too. *)
  let mixed = String.concat "" (List.init 40 (fun _ -> "{\"a\":[")) in
  match J.parse_checked ~max_depth:16 mixed with
  | Ok _ -> Alcotest.fail "over-deep mixed input accepted"
  | Error e ->
      Alcotest.(check bool) "offset inside input" true
        (e.J.at >= 0 && e.J.at < String.length mixed)

let test_json_depth_cap_boundary () =
  (* Exactly max_depth containers parse; one more fails. *)
  let nested d = String.make d '[' ^ String.make d ']' in
  (match J.parse_checked ~max_depth:8 (nested 8) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth-8 rejected at 8: %s" (J.error_to_string e));
  match J.parse_checked ~max_depth:8 (nested 9) with
  | Ok _ -> Alcotest.fail "depth-9 accepted at 8"
  | Error e -> Alcotest.(check int) "fails at bracket 8" 8 e.J.at

let test_json_size_cap () =
  let big = "\"" ^ String.make 64 'x' ^ "\"" in
  (match J.parse_checked ~max_size:32 big with
  | Ok _ -> Alcotest.fail "over-long input accepted"
  | Error e ->
      Alcotest.(check int) "offset is the size limit" 32 e.J.at;
      Alcotest.(check bool) "names both sizes" true
        (contains e.J.reason "66 bytes" && contains e.J.reason "32"));
  match J.parse_checked ~max_size:66 big with
  | Ok (J.String s) -> Alcotest.(check int) "at-limit input parses" 64 (String.length s)
  | _ -> Alcotest.fail "at-limit input rejected"

let test_json_error_offsets () =
  let check_offset input expected =
    match J.parse_checked input with
    | Ok _ -> Alcotest.failf "%S parsed" input
    | Error e -> Alcotest.(check int) (Printf.sprintf "offset in %S" input) expected e.J.at
  in
  (* the byte where the parser gave up, in order: bad literal, missing
     colon, unterminated string, trailing garbage *)
  check_offset "{\"a\": nul}" 6;
  check_offset "{\"a\" 1}" 5;
  check_offset "\"abc" 4;
  check_offset "[1,2] x" 6;
  check_offset "[1,,2]" 3

let test_json_parse_string_error_compat () =
  (* The string-error variant still renders the offset. *)
  match J.parse "[1,,2]" with
  | Ok _ -> Alcotest.fail "parsed"
  | Error msg -> Alcotest.(check bool) "offset rendered" true (contains msg "offset 3")

(* ---- tables ---- *)

let test_table_render () =
  let t = Table.create [ "name"; "n" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (contains s "name");
  Alcotest.(check bool) "right-aligns numbers" true
    (contains s "|  1 |")

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  let s = Table.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_rejects_long_rows () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: too many cells") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_cell_float () =
  Alcotest.(check string) "integral" "153" (Table.cell_float 153.0);
  Alcotest.(check string) "fractional" "153.4" (Table.cell_float 153.4)

let test_table_separator () =
  let t = Table.create [ "a" ] in
  Table.add_row t [ "1" ];
  Table.add_sep t;
  Table.add_row t [ "2" ];
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "7 lines with separator" 7
    (List.length (List.filter (fun l -> l <> "") lines))

let test_fifo_evicts_oldest () =
  let t = Fifo.create 3 in
  List.iter (fun k -> Fifo.add t k (k * 10)) [ 1; 2; 3 ];
  (* re-adding keeps the first value and does not refresh the age *)
  Fifo.add t 1 99;
  Alcotest.(check (option int)) "first value wins" (Some 10) (Fifo.find_opt t 1);
  Fifo.add t 4 40;
  Alcotest.(check int) "bounded" 3 (Fifo.length t);
  Alcotest.(check bool) "oldest evicted" false (Fifo.mem t 1);
  Alcotest.(check (list bool)) "newer kept" [ true; true; true ]
    (List.map (Fifo.mem t) [ 2; 3; 4 ]);
  Fifo.add t 5 50;
  Alcotest.(check bool) "next oldest evicted" false (Fifo.mem t 2);
  Fifo.clear t;
  Alcotest.(check int) "clear empties" 0 (Fifo.length t);
  Fifo.add t 6 60;
  Alcotest.(check (option int)) "usable after clear" (Some 60) (Fifo.find_opt t 6);
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Fifo_table.create: bound must be positive") (fun () ->
      ignore (Fifo.create 0))

let suite =
  [
    Alcotest.test_case "prng: same seed, same stream" `Quick test_same_seed_same_stream;
    Alcotest.test_case "prng: different seeds differ" `Quick test_different_seeds_differ;
    Alcotest.test_case "prng: int stays in bounds" `Quick test_int_bounds;
    Alcotest.test_case "prng: int rejects bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "prng: int covers its range" `Quick test_int_covers_range;
    Alcotest.test_case "prng: copy is independent" `Quick test_copy_is_independent;
    Alcotest.test_case "prng: split diverges" `Quick test_split_diverges;
    Alcotest.test_case "prng: shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "prng: bool is fair" `Quick test_bool_is_fair_enough;
    Alcotest.test_case "prng: float bounds" `Quick test_float_bounds;
    Alcotest.test_case "prng: pick members" `Quick test_pick;
    Alcotest.test_case "json: depth cap is a structured error" `Quick test_json_depth_cap;
    Alcotest.test_case "json: depth cap boundary" `Quick test_json_depth_cap_boundary;
    Alcotest.test_case "json: size cap is a structured error" `Quick test_json_size_cap;
    Alcotest.test_case "json: error offsets are accurate" `Quick test_json_error_offsets;
    Alcotest.test_case "json: string errors keep the offset" `Quick test_json_parse_string_error_compat;
    Alcotest.test_case "table: renders and aligns" `Quick test_table_render;
    Alcotest.test_case "table: pads short rows" `Quick test_table_pads_short_rows;
    Alcotest.test_case "table: rejects long rows" `Quick test_table_rejects_long_rows;
    Alcotest.test_case "table: float cells" `Quick test_cell_float;
    Alcotest.test_case "table: separators" `Quick test_table_separator;
    Alcotest.test_case "fifo table: evicts oldest, first value wins" `Quick
      test_fifo_evicts_oldest;
  ]
