(* Random-program fuzzing: generated programs are valid by construction;
   the machine must never escape with an exception, the printer/parser
   must round-trip them, lowering must keep them valid, and execution must
   stay deterministic per seed. *)

open Arde.Types
open Arde.Builder

(* -- generator ----------------------------------------------------- *)

(* A deterministic "random program" derived from an integer seed via the
   library's own PRNG; using qcheck only for the seed keeps shrinking
   trivial and failures reproducible by seed. *)
let gen_program seed =
  let rng = Arde_util.Prng.create seed in
  let pick xs = List.nth xs (Arde_util.Prng.int rng (List.length xs)) in
  let globals =
    [ ("ga", 1 + Arde_util.Prng.int rng 4, 0); ("gb", 2, 5); ("gc", 1, 0) ]
  in
  let global_addr () =
    let name, size, _ = pick globals in
    gi name (imm (Arde_util.Prng.int rng size))
  in
  (* Straight-line instructions over a growing register environment. *)
  let fresh_reg env = Printf.sprintf "r%d" (List.length env) in
  let operand env =
    if env = [] || Arde_util.Prng.bool rng then
      imm (Arde_util.Prng.int rng 100 - 50)
    else r (pick env)
  in
  let rand_instr env =
    let d = fresh_reg env in
    match Arde_util.Prng.int rng 8 with
    | 0 -> (Some d, mov d (operand env))
    | 1 ->
        let op = pick [ Add; Sub; Mul; And; Or; Xor ] in
        (Some d, Binop (d, op, operand env, operand env))
    | 2 ->
        (* division by a guaranteed non-zero immediate *)
        (Some d, divi d (operand env) (imm (1 + Arde_util.Prng.int rng 9)))
    | 3 ->
        let op = pick [ Eq; Ne; Lt; Le; Gt; Ge ] in
        (Some d, cmp op d (operand env) (operand env))
    | 4 -> (Some d, load d (global_addr ()))
    | 5 -> (None, store (global_addr ()) (operand env))
    | 6 -> (Some d, cas d (global_addr ()) (operand env) (operand env))
    | _ ->
        let op = pick [ Rmw_add; Rmw_exchange; Rmw_or; Rmw_and ] in
        (Some d, rmw op d (global_addr ()) (operand env))
  in
  let rand_body env0 len =
    let env = ref env0 and acc = ref [] in
    for _ = 1 to len do
      let def, i = rand_instr !env in
      acc := i :: !acc;
      match def with Some d -> env := d :: !env | None -> ()
    done;
    (List.rev !acc, !env)
  in
  (* Worker: a small diamond. *)
  let worker =
    let b1, env = rand_body [ "i" ] (2 + Arde_util.Prng.int rng 4) in
    let cond = if env = [] then imm 1 else r (List.hd env) in
    let b2, _ = rand_body env (1 + Arde_util.Prng.int rng 3) in
    let b3, _ = rand_body env (1 + Arde_util.Prng.int rng 3) in
    func "w" ~params:[ "i" ]
      [
        blk "e" b1 (br cond "left" "right");
        blk "left" b2 (goto "out");
        blk "right" b3 (goto "out");
        blk "out" [] exit_t;
      ]
  in
  let n_workers = 1 + Arde_util.Prng.int rng 3 in
  let spawns =
    List.init n_workers (fun i -> spawn (Printf.sprintf "t%d" i) "w" [ imm i ])
  in
  let joins = List.init n_workers (fun i -> join (r (Printf.sprintf "t%d" i))) in
  let main_body, _ = rand_body [] (1 + Arde_util.Prng.int rng 4) in
  let main =
    func "main"
      [
        blk "e" (main_body @ spawns) (goto "j");
        blk "j" joins exit_t;
      ]
  in
  program
    ~globals:(List.map (fun (n, s, v) -> (n, s, v)) globals)
    ~entry:"main" [ main; worker ]

(* -- properties ---------------------------------------------------- *)

let law ?(count = 60) name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name (QCheck2.Gen.int_range 0 100_000) f)

let run_fuzz p seed =
  Arde.Machine.run_program
    { Arde.Machine.default_config with Arde.Machine.seed; fuel = 50_000 }
    p

let prop_valid_and_runs =
  law "generated programs validate and run" (fun seed ->
      let p = gen_program seed in
      match Arde.Validate.check p with
      | Error _ -> false
      | Ok () -> (
          match (run_fuzz p 1).Arde.Machine.outcome with
          | Arde.Machine.Finished | Arde.Machine.Fault _ -> true
          | Arde.Machine.Deadlock _ | Arde.Machine.Fuel_exhausted
          | Arde.Machine.Livelock _ ->
              false))

let prop_roundtrip =
  law "generated programs round-trip through the parser" (fun seed ->
      let p = gen_program seed in
      match Arde.Parse.program (Arde.Pretty.program_to_string p) with
      | Ok p' -> p = p'
      | Error _ -> false)

let prop_lowering_valid =
  law "generated programs lower to valid programs" (fun seed ->
      let p = gen_program seed in
      List.for_all
        (fun style ->
          Result.is_ok (Arde.Validate.check (Arde.Lower.lower ~style p)))
        [ Arde.Lower.Compact; Arde.Lower.Realistic; Arde.Lower.Futex ])

let prop_deterministic =
  law ~count:30 "generated programs replay deterministically" (fun seed ->
      let p = gen_program seed in
      let hash mseed =
        let tr = Arde.Trace.create () in
        ignore
          (Arde.Machine.run_program
             {
               Arde.Machine.default_config with
               Arde.Machine.seed = mseed;
               fuel = 50_000;
               observer = Arde.Trace.push tr;
             }
             p);
        Arde.Trace.hash tr
      in
      hash 7 = hash 7)

let prop_detectors_never_crash =
  law ~count:25 "all detectors accept generated programs" (fun seed ->
      let p = gen_program seed in
      List.for_all
        (fun mode ->
          let options =
            Arde.Options.make ~seeds:[ 1; 2 ] ()
          in
          ignore
            (Arde.detect
               ~ctx:(Arde.Driver.ctx ~options ())
               ~mode (Arde.Input.Program p));
          true)
        [
          Arde.Config.Helgrind_lib; Arde.Config.Helgrind_spin 7;
          Arde.Config.Nolib_spin 7; Arde.Config.Nolib_spin_locks 7;
          Arde.Config.Drd;
        ])

let suite =
  [
    prop_valid_and_runs;
    prop_roundtrip;
    prop_lowering_valid;
    prop_deterministic;
    prop_detectors_never_crash;
  ]
