(* The three workloads' inputs and their output checks.  Every input of a
   workload runs exactly once per round; the round order is shuffled by
   the workload seed. *)

open Common
module Config = Arde.Config
module Options = Arde.Options
module Driver = Arde.Driver
module Parsec = Arde_workloads.Parsec
module Racey = Arde_workloads.Racey

let parsec_texts () =
  List.map
    (fun ((info : Parsec.info), program) ->
      (info, Arde.Pretty.program_to_string program))
    (Parsec.all ())

(* The per-program knobs of Parsec_experiment (which does not export
   them): long-running MSM, the program's nolib lowering style, 4M fuel,
   seeds 1-5 — plus one domain. *)
let parsec_options (info : Parsec.info) =
  Options.make ~sensitivity:Arde.Msm.Long_running
    ~lower_style:info.Parsec.nolib_style ~fuel:4_000_000
    ~seeds:[ 1; 2; 3; 4; 5 ] ~jobs:1 ()

(* ---- oneshot: Tables 4-6, cold ---- *)

let oneshot_ops () =
  List.concat_map
    (fun ((info : Parsec.info), text) ->
      List.map
        (fun mode ->
          { name = op_name info.Parsec.pname mode; text; mode;
            options = parsec_options info })
        Config.all_table1_modes)
    (parsec_texts ())

let expected_contexts op =
  let program = List.hd (String.split_on_char ' ' op.name) in
  let rec column ms cells =
    match (ms, cells) with
    | m :: _, c :: _ when m = op.mode -> Some c
    | _ :: ms, _ :: cells -> column ms cells
    | _ -> None
  in
  Option.bind (List.assoc_opt program Expected.tables_4_6)
    (column Config.all_table1_modes)

(* The paper-table cell: the mean racy contexts per seed. *)
let check_oneshot op r =
  match expected_contexts op with
  | Some want when Float.abs (Driver.mean_contexts r -. want) < 1e-9 -> true
  | Some want ->
      fail "%s: mean contexts %g, EXPERIMENTS.md has %g" op.name
        (Driver.mean_contexts r) want;
      false
  | None ->
      fail "%s: no expected cell" op.name;
      false

(* ---- predict: SpPredict from two recordings, warm cache ---- *)

let predict_modes = [ Config.Helgrind_spin 7; Config.Nolib_spin 7 ]

let predict_ops () =
  List.concat_map
    (fun ((info : Parsec.info), text) ->
      List.map
        (fun mode ->
          { name = op_name info.Parsec.pname mode; text; mode;
            options =
              Options.with_analysis Options.Predict (parsec_options info) })
        predict_modes)
    (parsec_texts ())

(* What the prediction outputs.  Its cost counters (events, candidates,
   closure steps, budget hits) are left to the traced run: a faster
   predictor may move them without changing a verdict. *)
let prediction_counts (p : Driver.prediction) =
  [ p.Driver.pr_sections; p.pr_predicted; p.pr_new_contexts ]

(* Prediction must find every base the 5-seed sweep finds, with the
   same outputs the predictor produced when the benchmark was defined. *)
let check_predict op r =
  match (List.assoc_opt op.name Expected.predict, r.Driver.prediction) with
  | None, _ ->
      fail "%s: no expected prediction" op.name;
      false
  | Some _, None ->
      fail "%s: no prediction in result" op.name;
      false
  | Some (counts, sweep_bases), Some p ->
      let got = Driver.racy_bases r in
      let missing = List.filter (fun b -> not (List.mem b got)) sweep_bases in
      if missing <> [] then
        fail "%s: prediction misses sweep bases %s" op.name
          (String.concat "," missing);
      let counts_ok = prediction_counts p = counts in
      if not counts_ok then
        fail "%s: prediction outputs [%s], expected [%s]" op.name
          (String.concat ";" (List.map string_of_int (prediction_counts p)))
          (String.concat ";" (List.map string_of_int counts));
      missing = [] && counts_ok

(* ---- serve: Table 1 through the daemon ---- *)

type serve_case = { s_op : op; s_expectation : Arde.Classify.expectation }

let serve_cases () =
  let options =
    Options.with_jobs 1 Arde_harness.Suite_experiment.suite_options
  in
  List.concat_map
    (fun (c : Racey.case) ->
      let text = Arde.Pretty.program_to_string c.Racey.program in
      List.map
        (fun mode ->
          { s_op = { name = op_name c.Racey.name mode; text; mode; options };
            s_expectation = c.Racey.expectation })
        Config.all_table1_modes)
    (Racey.all ())

(* Classification of one served result, from the response's own report. *)
let classify case result_json =
  match Option.bind (Arde.Json.member "report" result_json) (fun m ->
            Result.to_option (Arde.Report.of_json m)) with
  | None -> None
  | Some rep ->
      Some
        (Arde.Classify.outcome_of
           (Arde.Classify.classify case.s_expectation
              ~reported:(Arde.Report.racy_bases rep)))

(* Per-mode (false alarms, missed, correct) over one round. *)
let tally_round outcomes =
  List.map
    (fun mode ->
      let count o =
        List.length
          (List.filter (fun (m, o') -> m = mode && o' = o) outcomes)
      in
      ( mode,
        ( count Arde.Classify.False_alarm,
          count Arde.Classify.Missed_race,
          count Arde.Classify.Correct ) ))
    Config.all_table1_modes

let check_tally outcomes =
  List.for_all
    (fun (mode, got) ->
      match List.assoc_opt mode Expected.table_1 with
      | Some want when want = got -> true
      | want ->
          let show (a, b, c) = Printf.sprintf "%d/%d/%d" a b c in
          fail "serve %s: tally %s, EXPERIMENTS.md Table 1 has %s"
            (Config.mode_id mode) (show got)
            (match want with Some w -> show w | None -> "nothing");
          false)
    (tally_round outcomes)
