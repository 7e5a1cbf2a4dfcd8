(* Property-based tests over the whole pipeline (qcheck via alcotest). *)

let law ?(count = 30) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let cases = Arde_workloads.Racey.all ()

let gen_case =
  QCheck2.Gen.map (fun i -> List.nth cases (i mod List.length cases))
    (QCheck2.Gen.int_bound (List.length cases - 1))

let gen_seed = QCheck2.Gen.int_range 1 1000

let run_hash ?instrument program seed =
  let tr = Arde.Trace.create () in
  let cfg =
    {
      Arde.Machine.default_config with
      Arde.Machine.seed;
      fuel = 400_000;
      instrument;
      observer = Arde.Trace.push tr;
    }
  in
  let res = Arde.Machine.run_program cfg program in
  (res, Arde.Trace.hash tr)

(* Replaying any case under any seed gives a bit-identical event trace. *)
let prop_determinism =
  law ~count:25 "machine is deterministic per seed"
    (QCheck2.Gen.pair gen_case gen_seed)
    (fun (c, seed) ->
      let _, h1 = run_hash c.Arde_workloads.Racey.program seed in
      let _, h2 = run_hash c.Arde_workloads.Racey.program seed in
      h1 = h2)

(* Spin instrumentation observes but never influences execution. *)
let prop_observer_neutral =
  law ~count:20 "instrumentation does not change the schedule"
    (QCheck2.Gen.pair gen_case gen_seed)
    (fun (c, seed) ->
      let p = c.Arde_workloads.Racey.program in
      let res1, _ = run_hash p seed in
      let inst = Arde.analyze_spins ~k:7 p in
      let res2, _ = run_hash ~instrument:inst p seed in
      res1.Arde.Machine.steps = res2.Arde.Machine.steps
      && res1.Arde.Machine.outcome = res2.Arde.Machine.outcome)

(* The classifier's accepted set grows monotonically with the window. *)
let prop_window_monotone =
  law ~count:20 "spin acceptance is monotone in k"
    (QCheck2.Gen.pair gen_case (QCheck2.Gen.int_range 1 9))
    (fun (c, k) ->
      let p = c.Arde_workloads.Racey.program in
      let ids k =
        List.map
          (fun s -> s.Arde.Instrument.s_cand.Arde.Spin.c_header)
          (Arde.Instrument.spins (Arde.analyze_spins ~k p))
      in
      let small = ids k and large = ids (k + 1) in
      List.for_all (fun h -> List.mem h large) small)

(* Lowering never invents or destroys spin-detectable user loops: every
   loop accepted in the native program is still accepted after lowering
   (helpers only add loops). *)
let prop_lowering_preserves_user_loops =
  law ~count:15 "lowering preserves user spin loops"
    gen_case
    (fun c ->
      let p = c.Arde_workloads.Racey.program in
      let key s =
        ( s.Arde.Instrument.s_cand.Arde.Spin.c_func,
          s.Arde.Instrument.s_cand.Arde.Spin.c_header )
      in
      let native = List.map key (Arde.Instrument.spins (Arde.analyze_spins ~k:7 p)) in
      let lowered =
        List.map key
          (Arde.Instrument.spins (Arde.analyze_spins ~k:7 (Arde.Lower.lower p)))
      in
      List.for_all (fun k -> List.mem k lowered) native)

(* Reports: adding the same race twice is idempotent. *)
let prop_report_idempotent =
  law ~count:50 "report insertion is idempotent"
    (QCheck2.Gen.pair (QCheck2.Gen.int_bound 5) (QCheck2.Gen.int_bound 5))
    (fun (i, j) ->
      let race =
        {
          Arde.Report.r_base = "b";
          r_idx = i;
          r_first_tid = 1;
          r_first_loc = { Arde.Types.lfunc = "f"; lblk = string_of_int i; lidx = j };
          r_first_write = true;
          r_second_tid = 2;
          r_second_loc = { Arde.Types.lfunc = "f"; lblk = string_of_int j; lidx = i };
          r_second_write = true;
          r_predicted = false;
        }
      in
      let t = Arde.Report.create () in
      Arde.Report.add t race;
      let n1 = Arde.Report.n_contexts t in
      Arde.Report.add t race;
      n1 = Arde.Report.n_contexts t)

(* Race-free cases keep their runtime self-checks green under arbitrary
   seeds — the machine's sync primitives really synchronize. *)
let prop_race_free_checks_hold =
  law ~count:25 "race-free cases pass their checks under any seed"
    (QCheck2.Gen.pair gen_case gen_seed)
    (fun (c, seed) ->
      c.Arde_workloads.Racey.category = "racy"
      ||
      let res, _ = run_hash c.Arde_workloads.Racey.program seed in
      match res.Arde.Machine.outcome with
      | Arde.Machine.Finished -> res.Arde.Machine.check_failures = []
      | _ -> false)

(* Suppression only ever removes warnings: lib+spin's reported bases on a
   given program are a subset of lib's plus nothing new, modulo schedule
   variation eliminated by using identical seeds. *)
let prop_spin_only_removes =
  law ~count:12 "spin detection only removes warnings"
    gen_case
    (fun c ->
      let bases mode =
        let options =
          Arde.Options.make ~seeds:[ 1; 2 ] ()
        in
        Arde.Driver.racy_bases
          (Arde.detect
             ~ctx:(Arde.Driver.ctx ~options ())
             ~mode (Arde.Input.Program c.Arde_workloads.Racey.program))
      in
      let lib = bases Arde.Config.Helgrind_lib in
      let spin = bases (Arde.Config.Helgrind_spin 7) in
      List.for_all (fun b -> List.mem b lib) spin)

let suite =
  [
    prop_determinism;
    prop_observer_neutral;
    prop_window_monotone;
    prop_lowering_preserves_user_loops;
    prop_report_idempotent;
    prop_race_free_checks_hold;
    prop_spin_only_removes;
  ]
