(* The repository benchmark.  One invocation measures one workload:

     arde_bench.exe --workload oneshot|predict|serve --seed N
                    --seconds S --trace 0|1

   and prints, as its last stdout line, one JSON object with the keys
   correct, attempted, failed and metrics.  See README.md in this
   directory for the workloads, the metrics and how they relate. *)

open Common
module Driver = Arde.Driver
module J = Arde.Json

type result = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float * string) list;  (** name, value, unit *)
  diagnostics : (string * J.t) list;
}

let setup_reps = 3
let min_timed_ops = 100

(* ------------------------------------------------------------------ *)
(* The untraced run: [setup_reps] epochs, each a fresh set-up followed
   by whole timed rounds for its share of [seconds] (the last epoch
   also runs until [min_timed_ops] ops ran).  Timing after every set-up
   rather than after the last one only spreads each input over three
   heap layouts (and, on [serve], three daemons): with one layout per
   run an input's best time could differ by half between two runs of
   the same seed. *)

(* How one input's latencies over a run's rounds are summarised.  An
   in-process op is deterministic single-threaded work, so a slower
   repeat of it is interference from the host (on a shared VM, round
   times drift by 30% within one run): [Fastest] takes each input's
   best time and ops/s from their sum.  A served request's latency also
   holds its wait behind the other connection, which is part of what is
   measured: [Median] keeps each input's median and the median round
   throughput. *)
type summary = Fastest | Median

type 'st workload = {
  summary : summary;
  setup : Random.State.t -> 'st;
      (** build inputs, run one untimed warm-up round *)
  timed_round : 'st -> Random.State.t -> (string * float) list * int * float;
      (** (op, latency ms) samples, failed ops, time the round spent in
          ops (ms) *)
  finish : 'st -> float option * bool;
      (** peak RSS (MB) of the detecting process; clean shutdown *)
  warmup_failures : 'st -> int;
}

(* Each input's summarised latency over the run's rounds, fastest
   first.  The latency percentiles are taken over these, so a
   percentile sits on the same inputs in every run and one slow round
   moves it only as far as it moves those inputs' summaries. *)
let per_op summarise samples =
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun (name, ms) ->
      Hashtbl.replace by_op name
        (ms :: Option.value ~default:[] (Hashtbl.find_opt by_op name)))
    samples;
  List.sort
    (fun (_, a) (_, b) -> compare a b)
    (Hashtbl.fold (fun name ms acc -> (name, summarise ms) :: acc) by_op [])

let measure (w : 'st workload) ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let cpu_before = cpu_loop_ms () in
  let setup_s = ref [] and warm_failed = ref 0 and clean = ref true in
  let lat = ref [] and failed = ref 0 and walls = ref [] and rss = ref None in
  let share = float_of_int seconds /. float_of_int setup_reps in
  for epoch = 1 to setup_reps do
    let st, ms = time_ms (fun () -> w.setup rng) in
    setup_s := (ms /. 1000.) :: !setup_s;
    warm_failed := !warm_failed + w.warmup_failures st;
    let t0 = now () in
    let rec rounds () =
      let l, f, wall = w.timed_round st rng in
      lat := l @ !lat;
      failed := !failed + f;
      walls := wall :: !walls;
      if
        now () -. t0 < share
        || (epoch = setup_reps && List.length !lat < min_timed_ops)
      then rounds ()
    in
    rounds ();
    let r, shut_clean = w.finish st in
    rss := Option.fold ~none:r ~some:(fun a -> Option.map (Float.max a) r) !rss;
    if (not shut_clean) || r = None then clean := false
  done;
  let rss = !rss in
  (* after the RSS reading: the walk's array would raise this
     process's peak *)
  let cpu_after = cpu_loop_ms () and mem_after = mem_loop_ms () in
  let n = List.length !lat in
  let op_summaries =
    per_op
      (match w.summary with
      | Fastest -> List.fold_left Float.min Float.infinity
      | Median -> median)
      !lat
  in
  let by_input = List.map snd op_summaries in
  let inputs = float_of_int (List.length by_input) in
  let ops_per_s =
    match w.summary with
    | Fastest -> inputs *. 1000. /. List.fold_left ( +. ) 0. by_input
    | Median -> median (List.map (fun ms -> inputs *. 1000. /. ms) !walls)
  in
  let metrics =
    [
      ("setup_s", median !setup_s, "s");
      ("ops_per_s", ops_per_s, "1/s");
      ("latency_ms_p50", percentile 0.5 by_input, "ms");
      ("latency_ms_p90", percentile 0.9 by_input, "ms");
      ("peak_rss_mb", Option.value rss ~default:0., "MB");
    ]
  in
  let floats xs = J.List (List.rev_map (fun x -> J.Float x) xs) in
  {
    attempted = n;
    failed = !failed;
    correct = !failed = 0 && !warm_failed = 0 && !clean;
    metrics;
    diagnostics =
      [
        ("cpu_loop_ms", floats [ cpu_after; cpu_before ]);
        ("mem_loop_ms", floats [ mem_after ]);
        ("setup_s", floats !setup_s);
        ("round_ms", floats !walls);
        ("warmup_failed", J.Int !warm_failed);
        ( "op_latency_ms",
          J.Obj (List.map (fun (name, m) -> (name, J.Float m)) op_summaries) );
      ];
  }

let self_rss_mb () =
  Option.map (fun kb -> float_of_int kb /. 1024.) (proc_status_kb "VmHWM")

(* ---- oneshot and predict: in-process Driver.run ---- *)

type local = { ops : op list; warm_failed : int }

let local_workload ~ops ~cold ~check =
  let run_op op =
    if cold then Arde.Analysis_cache.clear ();
    let r, ms =
      time_ms (fun () ->
          Driver.run ~ctx:(Driver.ctx ~options:op.options ()) ~mode:op.mode
            (Arde.Input.Text op.text))
    in
    (ms, check op r)
  in
  let round ops =
    List.fold_left
      (fun (lat, failed) op ->
        let ms, ok = run_op op in
        ((op.name, ms) :: lat, if ok then failed else failed + 1))
      ([], 0) ops
  in
  {
    summary = Fastest;
    setup =
      (fun rng ->
        Arde.Analysis_cache.clear ();
        let ops = ops () in
        let _, warm_failed = round (shuffle rng ops) in
        { ops; warm_failed });
    timed_round =
      (fun st rng ->
        let lat, failed = round (shuffle rng st.ops) in
        (lat, failed, List.fold_left (fun acc (_, ms) -> acc +. ms) 0. lat));
    finish = (fun _ -> (self_rss_mb (), true));
    warmup_failures = (fun st -> st.warm_failed);
  }

let oneshot =
  local_workload ~ops:Workloads.oneshot_ops ~cold:true
    ~check:Workloads.check_oneshot

let predict =
  local_workload ~ops:Workloads.predict_ops ~cold:false
    ~check:Workloads.check_predict

(* ---- serve: the real daemon, two closed-loop connections ---- *)

type served = {
  daemon : Serve_load.daemon;
  conns : Arde_server.Client.t list;
  cases : Workloads.serve_case array;
  expected : string array;  (** in-process result bytes, per case *)
  s_warm_failed : int;
}

(* Check one round's replies: byte identity with in-process detection,
   and the per-mode Table 1 tally.  Returns failed ops. *)
let check_served st (order : int array) (replies : Serve_load.reply array) =
  let failed = ref 0 and outcomes = ref [] in
  Array.iteri
    (fun i reply ->
      let case = st.cases.(order.(i)) in
      let op = case.Workloads.s_op in
      match Serve_load.result_of reply with
      | Error e ->
          fail "%s: %s" op.name e;
          incr failed
      | Ok r -> (
          if J.to_string r <> st.expected.(order.(i)) then begin
            fail "%s: served result differs from in-process detection"
              op.name;
            incr failed
          end;
          match Workloads.classify case r with
          | Some o -> outcomes := (op.mode, o) :: !outcomes
          | None ->
              fail "%s: served report does not parse" op.name;
              incr failed))
    replies;
  if not (Workloads.check_tally !outcomes) then
    (* a wrong tally with every reply byte-identical cannot happen; if
       it does, charge the whole round *)
    failed := max !failed 1;
  !failed

let serve_round st rng =
  let order =
    Array.of_list
      (shuffle rng (List.init (Array.length st.cases) Fun.id))
  in
  let ops = Array.map (fun i -> st.cases.(i).Workloads.s_op) order in
  let replies, wall = Serve_load.round st.conns ops in
  let lat =
    Array.to_list
      (Array.mapi (fun i r -> (ops.(i).name, r.Serve_load.r_ms)) replies)
  in
  (lat, check_served st order replies, wall)

let serve_setup rng =
  Arde.Analysis_cache.clear ();
  let cases = Array.of_list (Workloads.serve_cases ()) in
  let expected =
    Array.map
      (fun (c : Workloads.serve_case) ->
        let op = c.Workloads.s_op in
        result_string
          (Driver.run ~ctx:(Driver.ctx ~options:op.options ()) ~mode:op.mode
             (Arde.Input.Text op.text)))
      cases
  in
  let daemon = Serve_load.start () in
  let conns = [ Serve_load.connect daemon; Serve_load.connect daemon ] in
  let st = { daemon; conns; cases; expected; s_warm_failed = 0 } in
  let _, warm_failed, _ = serve_round st rng in
  { st with s_warm_failed = warm_failed }

let serve_finish st =
  let worker = Serve_load.worker_pid st.daemon in
  let rss =
    Option.bind worker (fun pid ->
        Option.map
          (fun kb -> float_of_int kb /. 1024.)
          (proc_status_kb ~pid:(string_of_int pid) "VmHWM"))
  in
  List.iter Arde_server.Client.close st.conns;
  (rss, Serve_load.stop ?worker st.daemon)

let serve =
  {
    summary = Median;
    setup = serve_setup;
    timed_round = serve_round;
    finish = serve_finish;
    warmup_failures = (fun st -> st.s_warm_failed);
  }

(* ------------------------------------------------------------------ *)
(* Output *)

let print_result r =
  List.iter
    (fun (k, v) -> print_endline (J.to_string (J.Obj [ ("diagnostic", J.Obj [ (k, v) ]) ])))
    r.diagnostics;
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
  in
  let metrics =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (num v) unit)
         r.metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    r.correct r.attempted r.failed metrics

(* ------------------------------------------------------------------ *)
(* The traced run: one untimed warm-up round on predict and serve,
   then one traced round. *)

let traced workload ~seed =
  let rng = Random.State.make [| seed |] in
  let warm ops =
    List.iter (fun op -> ignore (Traced.driver_run op)) (shuffle rng ops)
  in
  let attempted, failed, metrics =
    match workload with
    | "oneshot" ->
        Traced.run ~cold:true ~check:Workloads.check_oneshot
          (shuffle rng (Workloads.oneshot_ops ()))
    | "predict" ->
        let ops = Workloads.predict_ops () in
        warm ops;
        Traced.run ~cold:false ~check:Workloads.check_predict (shuffle rng ops)
    | _ ->
        let cases = Workloads.serve_cases () in
        let ops = List.map (fun c -> c.Workloads.s_op) cases in
        warm ops;
        let outcomes = ref [] in
        let check (op : op) r =
          let case = List.find (fun c -> c.Workloads.s_op == op) cases in
          outcomes :=
            ( op.mode,
              Arde.Classify.outcome_of
                (Arde.Classify.classify case.Workloads.s_expectation
                   ~reported:(Driver.racy_bases r)) )
            :: !outcomes;
          true
        in
        let n, failed, metrics = Traced.run ~cold:false ~check (shuffle rng ops) in
        (n, (if Workloads.check_tally !outcomes then failed else failed + 1), metrics)
  in
  { attempted; failed; correct = failed = 0; metrics; diagnostics = [] }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "oneshot|predict|serve");
      ("--seed", Arg.Set_int seed, "N  seed for the round order");
      ("--seconds", Arg.Set_int seconds, "S  timed phase length");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "arde_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  at_exit Serve_load.kill_all;
  (* run [at_exit] on SIGTERM/SIGINT too, so no daemon is left behind;
     a write to a dead daemon is a transport error, not a SIGPIPE death *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seed = !seed and seconds = max 1 !seconds in
  let result =
    try
      match (!workload, !trace) with
      | "oneshot", 0 -> measure oneshot ~seed ~seconds
      | "predict", 0 -> measure predict ~seed ~seconds
      | "serve", 0 -> measure serve ~seed ~seconds
      | ("oneshot" | "predict" | "serve"), 1 ->
          let r, ms = time_ms (fun () -> traced !workload ~seed) in
          { r with
            diagnostics =
              [ ("cpu_loop_ms", J.List [ J.Float (cpu_loop_ms ()) ]);
                ("mem_loop_ms", J.List [ J.Float (mem_loop_ms ()) ]);
                ("traced_s", J.Float (ms /. 1000.)) ] }
      | _ ->
          prerr_endline "perfbench: unknown --workload or --trace value";
          exit 2
    with e ->
      fail "aborted: %s" (Printexc.to_string e);
      exit 1
  in
  print_result result
