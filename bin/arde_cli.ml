(* The arde command-line tool.

   Subcommands:
     list         enumerate bundled workloads (unit-suite cases + PARSEC)
     show         print a workload's TIR (optionally lowered)
     spin-report  run the instrumentation phase and list accepted /
                  rejected spinning read loops
     run          execute a workload under a detector configuration and
                  print the warnings (and the verdict for labelled cases)
     trace        dump a machine event trace
     suite        reproduce Table 1 (or one configuration's tally)
     parsec       reproduce Tables 3-6 *)

module W = Arde_workloads
open Cmdliner

(* A workload name, or a path to a .tir file: the program, its catalog
   case if any, and the detector input for it — a file's own text (so
   detection digests the bytes already read instead of re-printing the
   program), a catalog entry's built program. *)
let find_program name =
  match W.Catalog.find name with
  | Some (W.Catalog.Case c) ->
      let p = c.W.Racey.program in
      Ok (p, Some c, Arde.Input.Program p)
  | Some (W.Catalog.Parsec (_, p)) -> Ok (p, None, Arde.Input.Program p)
  | None -> (
      match () with
      | () ->
          if Sys.file_exists name then begin
            let ic = open_in name in
            let len = in_channel_length ic in
            let text = really_input_string ic len in
            close_in ic;
            match Arde.Parse.program text with
            | Ok p -> (
                match Arde.Validate.check p with
                | Ok () -> Ok (p, None, Arde.Input.Text text)
                | Error es ->
                    Error
                      (Printf.sprintf "%s: %s" name
                         (String.concat "; "
                            (List.map Arde.Validate.error_to_string es))))
            | Error e ->
                Error
                  (Printf.sprintf "%s: %s" name (Arde.Parse.error_to_string e))
          end
          else
            Error
              (Printf.sprintf
                 "unknown workload %S and no such file (try `arde list`)" name))

let style_conv =
  let parse = function
    | "compact" -> Ok Arde.Lower.Compact
    | "realistic" -> Ok Arde.Lower.Realistic
    | "futex" -> Ok Arde.Lower.Futex
    | s -> Error (`Msg (Printf.sprintf "unknown lowering style %S" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with
      | Arde.Lower.Compact -> "compact"
      | Arde.Lower.Realistic -> "realistic"
      | Arde.Lower.Futex -> "futex")
  in
  Arg.conv (parse, print)

let mode_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Arde.Config.parse_mode s) in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Arde.Config.mode_name m))

(* Scheduler policies: "rr:N", "uniform", "chunked:N". *)
let policy_conv =
  let parse s =
    let int_suffix prefix =
      let plen = String.length prefix in
      if String.length s > plen && String.sub s 0 plen = prefix then
        int_of_string_opt (String.sub s plen (String.length s - plen))
      else None
    in
    match s with
    | "uniform" -> Ok Arde.Sched.Uniform
    | _ -> (
        match (int_suffix "rr:", int_suffix "chunked:") with
        | Some q, _ when q > 0 -> Ok (Arde.Sched.Round_robin q)
        | _, Some n when n > 0 -> Ok (Arde.Sched.Chunked n)
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown policy %S (use rr:N, uniform or chunked:N)" s)))
  in
  let print ppf = function
    | Arde.Sched.Round_robin q -> Format.fprintf ppf "rr:%d" q
    | Arde.Sched.Uniform -> Format.pp_print_string ppf "uniform"
    | Arde.Sched.Chunked n -> Format.fprintf ppf "chunked:%d" n
  in
  Arg.conv (parse, print)

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let mode_arg =
  Arg.(
    value
    & opt mode_conv (Arde.Config.Helgrind_spin 7)
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:
          "Detector configuration: lib, lib+spin:K, nolib+spin:K, \
           nolib+spin+locks:K, drd.")

let lower_arg =
  Arg.(
    value
    & opt (some style_conv) None
    & info [ "lower" ] ~docv:"STYLE"
        ~doc:"Lower the program first (compact, realistic or futex).")

let k_arg =
  Arg.(
    value & opt int 7
    & info [ "k" ] ~docv:"K" ~doc:"Spin window in basic blocks.")

(* ---- the shared detection-option spec ----
   Every detection subcommand (run, suite, chaos, compare, parsec) reads
   --seeds/--fuel/--policy/--jobs from this single spec, so a new option
   cannot drift between subcommands.  The term evaluates to a transformer
   applied to the subcommand's baseline options. *)

let seeds_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "s"; "seeds" ] ~docv:"N"
        ~doc:
          "Number of scheduler seeds to run (default: the subcommand's \
           baseline).")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"STEPS"
        ~doc:
          "Maximum machine steps per seed before the run is declared \
           exhausted (fuel-starvation scenarios).")

let policy_arg =
  Arg.(
    value
    & opt (some policy_conv) None
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Scheduler policy: rr:N, uniform or chunked:N.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Domain-pool width for the per-seed stage; 0 means one domain \
           per core.  Reports and exit codes are identical for every \
           value.")

let analysis_arg =
  Arg.(
    value
    & opt
        (some
           (enum
              [
                ("sweep", Arde.Options.Sweep);
                ("predict", Arde.Options.Predict);
                ("both", Arde.Options.Both);
              ]))
        None
    & info [ "analysis" ] ~docv:"ANALYSIS"
        ~doc:
          "How races are found: $(b,sweep) (default) runs the detector on \
           every seed; $(b,predict) records only the first two seeds and \
           predicts sync-preserving races from their traces; $(b,both) \
           sweeps every seed and predicts from the first recordings.")

let maybe f v base = match v with None -> base | Some v -> f v base

let common_opts : (Arde.Options.t -> Arde.Options.t) Cmdliner.Term.t =
  let apply seeds fuel policy jobs analysis base =
    base
    |> maybe Arde.Options.with_seed_count seeds
    |> maybe Arde.Options.with_fuel fuel
    |> maybe Arde.Options.with_policy policy
    |> maybe Arde.Options.with_jobs jobs
    |> maybe Arde.Options.with_analysis analysis
  in
  Term.(const apply $ seeds_arg $ fuel_arg $ policy_arg $ jobs_arg $ analysis_arg)

(* ---- output format ---- *)

type format = Text | Json

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json) ]) Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: human-readable $(b,text) or the stable \
           machine-readable $(b,json).")

let print_json j = print_endline (Arde.Json.to_string ~minify:false j)

(* Exit codes shared by run/suite/chaos: 0 clean, 1 races reported,
   2 degraded (some seed deadlocked / livelocked / starved / crashed),
   3 failed (nothing ran). *)
let exit_code ~races (health : Arde.Driver.health) =
  match health.Arde.Driver.h_verdict with
  | Arde.Driver.Failed -> 3
  | Arde.Driver.Degraded -> 2
  | Arde.Driver.Healthy -> if races then 1 else 0

(* ---- list ---- *)

let list_cmd =
  let run () =
    Printf.printf "PARSEC workloads:\n";
    List.iter
      (fun (i, p) ->
        Printf.printf "  %-16s %-7s %6d LOC, %d threads\n" i.W.Parsec.pname
          i.W.Parsec.model (W.Parsec.loc_of p) i.W.Parsec.threads)
      (W.Parsec.all ());
    Printf.printf "\nUnit-suite cases (%d):\n" (List.length (W.Racey.all ()));
    List.iter
      (fun c ->
        Printf.printf "  %-28s %-6s %2d threads  %s\n" c.W.Racey.name
          c.W.Racey.category c.W.Racey.threads
          (match c.W.Racey.expectation with
          | Arde.Classify.Race_free -> "race-free"
          | Arde.Classify.Racy bs -> "racy on " ^ String.concat ", " bs))
      (W.Racey.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List bundled workloads.") Term.(const run $ const ())

(* ---- show ---- *)

let show_cmd =
  let run name lower =
    match find_program name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok (p, _, _) ->
        let p = match lower with Some s -> Arde.Lower.lower ~style:s p | None -> p in
        print_endline (Arde.Pretty.program_to_string p)
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a workload's TIR.")
    Term.(const run $ name_arg $ lower_arg)

(* ---- spin-report ---- *)

let spin_report_cmd =
  let run name lower k =
    match find_program name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok (p, _, _) ->
        let p = match lower with Some s -> Arde.Lower.lower ~style:s p | None -> p in
        let inst = Arde.Instrument.analyze ~k p in
        Format.printf "%a@." Arde.Instrument.pp_summary inst
  in
  Cmd.v
    (Cmd.info "spin-report"
       ~doc:"Run the instrumentation phase and report spinning read loops.")
    Term.(const run $ name_arg $ lower_arg $ k_arg)

(* ---- run / replay shared output ----
   One renderer behind both `arde run` and `arde replay` (and the
   local half of record --detect): the result prints identically
   whether it came from a live run or a trace. *)

let render_result ~format ~workload ?case ?analysis_cache result =
  let health = result.Arde.Driver.health in
  let code =
    exit_code
      ~races:(Arde.Report.n_contexts result.Arde.Driver.merged > 0)
      health
  in
  let verdict =
    Option.map
      (fun c ->
        Arde.Classify.classify c.W.Racey.expectation
          ~reported:(Arde.Driver.racy_bases result))
      case
  in
  match format with
  | Json -> (
      (* Built from the serialized result by the same function
         `arde submit` uses, so the two paths stay byte-identical. *)
      match
        Arde_server.Protocol.run_output ~workload
          ?expectation:(Option.map (fun c -> c.W.Racey.expectation) case)
          ?analysis_cache
          (Arde.Driver.result_to_json result)
      with
      | Ok (obj, code) ->
          print_json obj;
          code
      | Error e ->
          prerr_endline ("internal: malformed result json: " ^ e);
          3)
  | Text ->
      Printf.printf "mode: %s   spin loops found: %d\n"
        (Arde.Config.mode_name result.Arde.Driver.mode)
        result.Arde.Driver.n_spin_loops;
      List.iter
        (fun sr ->
          Format.printf "seed %d: %a, %d steps, %d contexts, %d spin edges@."
            sr.Arde.Driver.sr_seed Arde.Driver.pp_seed_outcome
            sr.Arde.Driver.sr_outcome sr.Arde.Driver.sr_steps
            sr.Arde.Driver.sr_contexts sr.Arde.Driver.sr_spin_edges)
        result.Arde.Driver.runs;
      Format.printf "%a@." Arde.Report.pp result.Arde.Driver.merged;
      List.iter
        (fun d -> Format.printf "static: %a@." Arde.Cv_checker.pp_diagnostic d)
        result.Arde.Driver.static_cv_hazards;
      List.iter
        (fun sr ->
          List.iter
            (fun d ->
              Format.printf "seed %d: %a@." sr.Arde.Driver.sr_seed
                Arde.Cv_checker.pp_diagnostic d)
            sr.Arde.Driver.sr_cv_diagnostics)
        result.Arde.Driver.runs;
      (match result.Arde.Driver.prediction with
      | None -> ()
      | Some p ->
          Printf.printf
            "prediction: %d seed(s), %d events, %d candidate pair(s), %d \
             predicted, %d new context(s)\n"
            p.Arde.Driver.pr_sections p.Arde.Driver.pr_events
            p.Arde.Driver.pr_candidates p.Arde.Driver.pr_predicted
            p.Arde.Driver.pr_new_contexts;
          List.iter
            (fun n -> Printf.printf "prediction: %s\n" n)
            p.Arde.Driver.pr_notes);
      (match verdict with
      | None -> ()
      | Some v ->
          Format.printf "verdict: %s (%a)@."
            (match Arde.Classify.outcome_of v with
            | Arde.Classify.Correct -> "correctly analyzed"
            | Arde.Classify.False_alarm -> "FALSE ALARM"
            | Arde.Classify.Missed_race -> "MISSED RACE")
            Arde.Classify.pp_verdict v);
      Format.printf "health: %a@." Arde.Driver.pp_health health;
      code

(* ---- run ---- *)

let run_cmd =
  let run name mode opts format =
    match find_program name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok (_, case, input) ->
        let options = opts Arde.Options.default in
        let before = Arde.Analysis_cache.stats () in
        let result =
          Arde.detect ~ctx:(Arde.Driver.ctx ~options ()) ~mode input
        in
        let cache_delta =
          Arde.Analysis_cache.stats_delta ~before
            ~after:(Arde.Analysis_cache.stats ())
        in
        exit
          (render_result ~format ~workload:name ?case
             ~analysis_cache:(Arde.Analysis_cache.stats_to_json cache_delta)
             result)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a workload under a detector configuration.  Exit codes: 0 \
          clean, 1 races reported, 2 degraded run, 3 failed run.")
    Term.(const run $ name_arg $ mode_arg $ common_opts $ format_arg)

(* ---- record / replay ---- *)

let read_binary_file path =
  match open_in_bin path with
  | ic ->
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in ic;
      Ok data
  | exception Sys_error e -> Error e

let write_binary_file path data =
  match open_out_bin path with
  | oc -> (
      match
        output_string oc data;
        close_out oc
      with
      | () -> Ok ()
      | exception Sys_error e -> Error e)
  | exception Sys_error e -> Error e

let record_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the binary trace.")
  in
  let detect_arg =
    Arg.(
      value & flag
      & info [ "detect" ]
          ~doc:
            "Run the full detection pipeline alongside the recording and \
             print its result (exit codes as $(b,arde run)); without it \
             only the cheap recording pass runs and the exit code is 0.")
  in
  let run name mode opts out detect_too format =
    match find_program name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok (p, case, _) ->
        let options = opts Arde.Options.default in
        let ctx = Arde.Driver.ctx ~options () in
        (match
           Arde.record ~ctx ~mode ~detect:detect_too ~source:name
             (Arde.Input.Program p)
         with
        | Error e ->
            prerr_endline ("record: " ^ e);
            exit 3
        | Ok { Arde.Driver.rec_trace; rec_result } -> (
            (match write_binary_file out rec_trace with
            | Ok () -> ()
            | Error e ->
                prerr_endline ("record: " ^ e);
                exit 3);
            Printf.eprintf "recorded %s under %s: %d seed(s), %d bytes -> %s\n%!"
              name
              (Arde.Config.mode_name mode)
              (List.length options.Arde.Options.seeds)
              (String.length rec_trace) out;
            match rec_result with
            | None -> exit 0
            | Some result ->
                exit (render_result ~format ~workload:name ?case result)))
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Execute a workload with the trace sink attached and write the \
          compact binary trace; $(b,arde replay) later reproduces the \
          detection results byte-for-byte without re-running the machine.")
    Term.(
      const run $ name_arg $ mode_arg $ common_opts $ out_arg $ detect_arg
      $ format_arg)

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"A binary trace written by arde record.")
  in
  let socket_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Submit the trace to a running $(b,arde serve) daemon (the \
             replay-farm path) instead of replaying locally.")
  in
  let connect_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:
            "Like $(b,--socket), but over the daemon's TCP listener \
             (started with $(b,arde serve --tcp)).")
  in
  let run file socket connect format =
    match read_binary_file file with
    | Error e ->
        prerr_endline ("replay: " ^ e);
        exit 4
    | Ok trace -> (
        (* Label the output (and classify labelled catalog cases) by the
           recorded source, same as the local path — the header read is
           cheap and skips the event bodies. *)
        let workload, case =
          match Arde.Trace_codec.read_header trace with
          | Ok { Arde.Trace_codec.h_source = ""; _ } | Error _ -> (file, None)
          | Ok { Arde.Trace_codec.h_source = s; _ } -> (
              match W.Catalog.find s with
              | Some (W.Catalog.Case c) -> (s, Some c)
              | _ -> (s, None))
        in
        match (socket, connect) with
        | Some _, Some _ ->
            prerr_endline
              "replay: --socket and --connect are mutually exclusive";
            exit 1
        | (Some _, None | None, Some _) as remote -> (
            let endpoint =
              match remote with
              | Some path, None -> Arde_server.Client.Unix_socket path
              | _, Some hp -> (
                  match Arde_server.Client.parse_tcp_endpoint hp with
                  | Ok e -> e
                  | Error e ->
                      prerr_endline ("replay: " ^ e);
                      exit 1)
              | None, None -> assert false
            in
            let reply, _attempts =
              Arde_server.Client.submit_trace_with_retry ~endpoint
                ~policy:Arde_server.Client.no_retry ~trace ()
            in
            match reply with
            | Error e ->
                prerr_endline ("replay: " ^ e);
                exit 4
            | Ok resp when not (Arde_server.Protocol.response_ok resp) -> (
                match Arde_server.Protocol.response_error resp with
                | Some (code, msg) ->
                    Printf.eprintf "replay: server error (%s): %s\n" code msg;
                    exit 4
                | None ->
                    prerr_endline "replay: malformed server response";
                    exit 4)
            | Ok resp -> (
                match Arde.Json.member "result" resp with
                | None ->
                    prerr_endline "replay: response carries no result";
                    exit 4
                | Some result_json -> (
                    match
                      Arde_server.Protocol.run_output ~workload
                        ?expectation:
                          (Option.map
                             (fun c -> c.W.Racey.expectation)
                             case)
                        ?analysis_cache:
                          (Arde.Json.member "analysis_cache" resp)
                        result_json
                    with
                    | Ok (obj, code) ->
                        print_json obj;
                        exit code
                    | Error e ->
                        prerr_endline ("replay: malformed result json: " ^ e);
                        exit 4)))
        | None, None -> (
            match Arde.Recorded.of_string trace with
            | Error e ->
                prerr_endline ("replay: " ^ file ^ ": " ^ e);
                exit 4
            | Ok recorded ->
                let result =
                  Arde.detect (Arde.Input.Recorded_trace recorded)
                in
                exit (render_result ~format ~workload ?case result)))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recorded binary trace through the detector without \
          re-executing the program; the output (and exit code 0-3) is \
          byte-identical to the run that recorded it.  Exit 4 on an \
          unreadable trace or a transport error.")
    Term.(
      const run $ file_arg $ socket_opt_arg $ connect_opt_arg $ format_arg)

(* ---- predict ---- *)

let predict_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE|WORKLOAD"
          ~doc:
            "A binary trace written by $(b,arde record), or a workload \
             name / .tir file to record and predict from.")
  in
  let run target mode opts format =
    (* A readable file that loads as a trace is predicted from directly
       (nothing executes); anything else resolves like `arde run` and
       records the two seeds prediction needs. *)
    let as_trace =
      match read_binary_file target with
      | Error _ -> None
      | Ok data -> (
          match Arde.Recorded.of_string data with
          | Ok r -> Some r
          | Error _ -> None)
    in
    match as_trace with
    | Some recorded ->
        let options =
          Arde.Options.with_analysis Arde.Options.Predict Arde.Options.default
        in
        let workload, case =
          match Arde.Recorded.source recorded with
          | "" -> (target, None)
          | s -> (
              match W.Catalog.find s with
              | Some (W.Catalog.Case c) -> (s, Some c)
              | _ -> (s, None))
        in
        let result =
          Arde.detect
            ~ctx:(Arde.Driver.ctx ~options ())
            (Arde.Input.Recorded_trace recorded)
        in
        exit (render_result ~format ~workload ?case result)
    | None -> (
        match find_program target with
        | Error e ->
            prerr_endline e;
            exit 1
        | Ok (_, case, input) ->
            let options =
              opts Arde.Options.default
              |> Arde.Options.with_analysis Arde.Options.Predict
            in
            let result =
              Arde.detect ~ctx:(Arde.Driver.ctx ~options ()) ~mode input
            in
            exit (render_result ~format ~workload:target ?case result))
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Predict sync-preserving races.  From a recorded trace, nothing \
          executes: races are predicted from the recorded sections on top \
          of the pinned replay.  From a workload, only the first two seeds \
          run (with recording on) and prediction covers the schedules the \
          sweep did not visit.  Exit codes as $(b,arde run).")
    Term.(const run $ target_arg $ mode_arg $ common_opts $ format_arg)

(* ---- trace ---- *)

let trace_cmd =
  let limit_arg =
    Arg.(value & opt int 200 & info [ "limit" ] ~docv:"N" ~doc:"Events to print.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")
  in
  let run name seed limit lower =
    match find_program name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok (p, _, _) ->
        let p = match lower with Some s -> Arde.Lower.lower ~style:s p | None -> p in
        let trace = Arde.Trace.create () in
        let cfg =
          {
            Arde.Machine.default_config with
            Arde.Machine.seed;
            observer = Arde.Trace.push trace;
          }
        in
        let res = Arde.Machine.run_program cfg p in
        let events = Arde.Trace.events trace in
        Array.iteri
          (fun i ev ->
            if i < limit then Format.printf "%6d  %a@." i Arde.Event.pp ev)
          events;
        if Array.length events > limit then
          Printf.printf "... (%d more events)\n" (Array.length events - limit);
        Format.printf "outcome: %a, %d steps, %d context switches, trace hash %08x@."
          Arde.Machine.pp_outcome res.Arde.Machine.outcome res.Arde.Machine.steps
          res.Arde.Machine.context_switches (Arde.Trace.hash trace);
        Array.iteri
          (fun tid n -> if n > 0 then Format.printf "  T%d: %d steps@." tid n)
          res.Arde.Machine.thread_steps
  in
  let dump_term = Term.(const run $ name_arg $ seed_arg $ limit_arg $ lower_arg) in
  let codec_outcome_name =
    let module C = Arde.Trace_codec in
    function
    | C.Finished -> "finished"
    | C.Deadlock tids ->
        Printf.sprintf "deadlock [%s]"
          (String.concat ", " (List.map string_of_int tids))
    | C.Fuel_exhausted -> "fuel-exhausted"
    | C.Livelock sites ->
        Printf.sprintf "livelock (%d site%s)" (List.length sites)
          (if List.length sites = 1 then "" else "s")
    | C.Fault { ftid; msg; _ } -> Printf.sprintf "fault T%d: %s" ftid msg
    | C.Crashed (_, msg) -> "crashed: " ^ msg
    | C.Cancelled -> "cancelled"
  in
  let info_cmd =
    let file_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"TRACE" ~doc:"A binary trace written by arde record.")
    in
    let counts_arg =
      Arg.(
        value & flag
        & info [ "counts" ]
            ~doc:
              "Also decode every section and print per-kind event counts — \
               what a $(b,arde predict) run will consume.  Decoding reads \
               the whole trace; without this flag event bodies are \
               skipped.")
    in
    let event_kind_name =
      let module E = Arde.Event in
      function
      | E.Read { kind = E.Plain; _ } -> "read.plain"
      | E.Read _ -> "read.atomic"
      | E.Write { kind = E.Plain; _ } -> "write.plain"
      | E.Write _ -> "write.atomic"
      | E.Lock_acq _ -> "lock_acq"
      | E.Lock_rel _ -> "lock_rel"
      | E.Cv_signal _ -> "cv_signal"
      | E.Cv_wait_begin _ -> "cv_wait_begin"
      | E.Cv_wait_return _ -> "cv_wait_return"
      | E.Barrier_arrive _ -> "barrier_arrive"
      | E.Barrier_pass _ -> "barrier_pass"
      | E.Sem_post_ev _ -> "sem_post"
      | E.Sem_acquire _ -> "sem_acquire"
      | E.Spawn_ev _ -> "spawn"
      | E.Join_return _ -> "join_return"
      | E.Thread_start _ -> "thread_start"
      | E.Thread_exit _ -> "thread_exit"
      | E.Spin_enter _ -> "spin_enter"
      | E.Spin_exit _ -> "spin_exit"
    in
    let kind_order =
      [
        "read.plain"; "read.atomic"; "write.plain"; "write.atomic";
        "lock_acq"; "lock_rel"; "cv_signal"; "cv_wait_begin";
        "cv_wait_return"; "barrier_arrive"; "barrier_pass"; "sem_post";
        "sem_acquire"; "spawn"; "join_return"; "thread_start";
        "thread_exit"; "spin_enter"; "spin_exit";
      ]
    in
    (* Per-seed (kind, count) lists in a fixed kind order, zero kinds
       omitted; [None] for sections that fail to decode. *)
    let section_counts data =
      match Arde.Trace_codec.read_sections data with
      | Error _ -> fun _ -> None
      | Ok (_, sections) ->
          let by_seed = Hashtbl.create 8 in
          List.iter
            (fun sec ->
              let tally = Hashtbl.create 16 in
              let count ev =
                let k = event_kind_name ev in
                Hashtbl.replace tally k
                  (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
              in
              match Arde.Trace_codec.decode_events sec count with
              | Error _ | (exception _) -> ()
              | Ok () ->
                  Hashtbl.replace by_seed sec.Arde.Trace_codec.s_seed
                    (List.filter_map
                       (fun k ->
                         Option.map
                           (fun n -> (k, n))
                           (Hashtbl.find_opt tally k))
                       kind_order))
            sections;
          fun seed -> Hashtbl.find_opt by_seed seed
    in
    (* Header and per-seed framing only: event bodies are skipped, never
       decoded, so this stays fast on huge traces — unless --counts asks
       for the decoded per-kind tallies. *)
    let run file counts format =
      match read_binary_file file with
      | Error e ->
          prerr_endline ("trace info: " ^ e);
          exit 4
      | Ok data -> (
          match Arde.Trace_codec.read_info data with
          | Error e ->
              prerr_endline
                ("trace info: " ^ file ^ ": "
                ^ Arde.Trace_codec.error_to_string e);
              exit 4
          | Ok (h, summaries) -> (
              let module C = Arde.Trace_codec in
              let counts_of =
                if counts then section_counts data else fun _ -> None
              in
              match format with
              | Json ->
                  let module J = Arde.Json in
                  let options_json =
                    match J.parse h.C.h_options with
                    | Ok j -> j
                    | Error _ -> J.String h.C.h_options
                  in
                  print_json
                    (J.Obj
                       [
                         ("version", J.Int C.format_version);
                         ("digest", J.String h.C.h_digest);
                         ("mode", J.String h.C.h_mode);
                         ("source", J.String h.C.h_source);
                         ("options", options_json);
                         ("program_bytes", J.Int (String.length h.C.h_program));
                         ("trace_bytes", J.Int (String.length data));
                         ( "seeds",
                           J.List
                             (List.map
                                (fun s ->
                                  J.Obj
                                    ([
                                       ("seed", J.Int s.C.y_seed);
                                       ("events", J.Int s.C.y_n_events);
                                       ("bytes", J.Int s.C.y_bytes);
                                       ( "bytes_per_event",
                                         if s.C.y_n_events = 0 then J.Null
                                         else
                                           J.Float
                                             (float_of_int s.C.y_bytes
                                             /. float_of_int s.C.y_n_events)
                                       );
                                       ("steps", J.Int s.C.y_steps);
                                       ( "outcome",
                                         J.String
                                           (codec_outcome_name s.C.y_outcome)
                                       );
                                     ]
                                    @
                                    match counts_of s.C.y_seed with
                                    | None -> []
                                    | Some ks ->
                                        [
                                          ( "counts",
                                            J.Obj
                                              (List.map
                                                 (fun (k, n) -> (k, J.Int n))
                                                 ks) );
                                        ]))
                                summaries) );
                       ])
              | Text ->
                  Printf.printf "trace:   %s (%d bytes, format v%d)\n" file
                    (String.length data) C.format_version;
                  Printf.printf "source:  %s\n"
                    (if h.C.h_source = "" then "(none)" else h.C.h_source);
                  Printf.printf "mode:    %s\n" h.C.h_mode;
                  Printf.printf "digest:  %s\n" h.C.h_digest;
                  Printf.printf "options: %s\n" h.C.h_options;
                  Printf.printf "program: %d bytes of canonical TIR\n"
                    (String.length h.C.h_program);
                  List.iter
                    (fun s ->
                      let per_event =
                        if s.C.y_n_events = 0 then "    -"
                        else
                          Printf.sprintf "%5.2f"
                            (float_of_int s.C.y_bytes
                            /. float_of_int s.C.y_n_events)
                      in
                      Printf.printf
                        "seed %4d: %7d events, %7d bytes (%s B/event), %8d \
                         steps, %s\n"
                        s.C.y_seed s.C.y_n_events s.C.y_bytes per_event
                        s.C.y_steps
                        (codec_outcome_name s.C.y_outcome);
                      match counts_of s.C.y_seed with
                      | None ->
                          if counts && s.C.y_n_events > 0 then
                            Printf.printf "           counts: (undecodable)\n"
                      | Some ks ->
                          Printf.printf "           counts: %s\n"
                            (String.concat ", "
                               (List.map
                                  (fun (k, n) -> Printf.sprintf "%s=%d" k n)
                                  ks)))
                    summaries))
    in
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Print a binary trace's header and per-seed summaries without \
            decoding any event body; $(b,--counts) additionally decodes \
            each section and tallies events per kind.")
      Term.(const run $ file_arg $ counts_arg $ format_arg)
  in
  Cmd.group ~default:dump_term
    (Cmd.info "trace"
       ~doc:
         "Dump a machine event trace (default), or inspect recorded binary \
          traces with $(b,arde trace info).")
    [ info_cmd ]

(* ---- compare ---- *)

let compare_cmd =
  let run name opts k =
    match find_program name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok (p, _, _) ->
        let options = opts Arde.Options.default in
        let modes =
          [
            Arde.Config.Helgrind_lib; Arde.Config.Drd; Arde.Config.Helgrind_spin k;
          ]
        in
        let results = Arde.Driver.compare_on_trace ~options ~k p modes in
        Printf.printf
          "replaying %d identical trace(s) through %d detectors:
"
          (List.length options.Arde.Options.seeds)
          (List.length modes);
        List.iter
          (fun (mode, report) ->
            Format.printf "--- %s: %d context(s) ---@."
              (Arde.Config.mode_name mode)
              (Arde.Report.n_contexts report);
            List.iter
              (fun race -> Format.printf "  %a@." Arde.Report.pp_race race)
              (Arde.Report.races report))
          results
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Replay identical traces through several detectors (algorithmic \
          differences only).")
    Term.(const run $ name_arg $ common_opts $ k_arg)

(* ---- fmt ---- *)

let fmt_cmd =
  let run name lower =
    match find_program name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok (p, _, _) -> (
        let p =
          match lower with Some s -> Arde.Lower.lower ~style:s p | None -> p
        in
        match Arde.Validate.check p with
        | Ok () -> print_endline (Arde.Pretty.program_to_string p)
        | Error es ->
            List.iter
              (fun e -> prerr_endline (Arde.Validate.error_to_string e))
              es;
            exit 1)
  in
  Cmd.v
    (Cmd.info "fmt"
       ~doc:"Validate a workload or .tir file and print its canonical form.")
    Term.(const run $ name_arg $ lower_arg)

(* ---- suite ---- *)

let suite_cmd =
  let verbose_arg =
    Arg.(value & flag & info [ "failures" ] ~doc:"List per-case failures.")
  in
  let run verbose opts =
    let options = opts Arde_harness.Suite_experiment.suite_options in
    let rows, rendered = Arde_harness.Suite_experiment.table1 ~options () in
    print_string rendered;
    if verbose then
      List.iter
        (fun mr ->
          Format.printf "%a@." Arde_harness.Suite_experiment.pp_failures mr)
        rows
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"Reproduce Table 1 over the 120-case unit suite.")
    Term.(const run $ verbose_arg $ common_opts)

(* ---- chaos ---- *)

let chaos_cmd =
  let runs_arg =
    Arg.(
      value & opt int 200
      & info [ "runs" ] ~docv:"N" ~doc:"Number of perturbed executions.")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"PRNG seed the perturbation stream derives from.")
  in
  let run name mode opts runs chaos_seed format =
    match find_program name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok (p, _, _) ->
        let options = opts Arde.Options.default in
        let report =
          Arde.Chaos.storm ~options ~runs ~seed:chaos_seed mode p
        in
        (match format with
        | Json -> print_json (Arde.Chaos.report_to_json report)
        | Text -> Format.printf "%a@." Arde.Chaos.pp_report report);
        exit (if report.Arde.Chaos.ch_escaped = [] then 0 else 3)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep deterministic fault injections (adversarial schedulers, \
          spurious wakeups, injected faults and crashes, fuel starvation) \
          through the detection pipeline and verify that no exception ever \
          escapes the per-seed sandbox.  Exit code 3 if one does.")
    Term.(
      const run $ name_arg $ mode_arg $ common_opts $ runs_arg
      $ chaos_seed_arg $ format_arg)

(* ---- parsec ---- *)

let parsec_cmd =
  let table_arg =
    Arg.(value & opt int 6 & info [ "table" ] ~docv:"N" ~doc:"Which table (3-6).")
  in
  let run table n_seeds jobs =
    let seeds = Option.map (fun n -> List.init n (fun i -> i + 1)) n_seeds in
    match table with
    | 3 -> print_string (Arde_harness.Parsec_experiment.table3 ())
    | 4 ->
        print_string
          (snd (Arde_harness.Parsec_experiment.table4 ?seeds ?jobs ()))
    | 5 ->
        print_string
          (snd (Arde_harness.Parsec_experiment.table5 ?seeds ?jobs ()))
    | 6 ->
        print_string
          (snd (Arde_harness.Parsec_experiment.table6 ?seeds ?jobs ()))
    | n ->
        Printf.eprintf "no table %d (use 3-6)\n" n;
        exit 1
  in
  Cmd.v
    (Cmd.info "parsec" ~doc:"Reproduce the PARSEC tables (3-6).")
    Term.(const run $ table_arg $ seeds_arg $ jobs_arg)

(* ---- serve / submit ---- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path.")

(* Client-side endpoint selection: daemons always own a Unix socket and
   may additionally listen on TCP, so the client commands accept either
   [--socket PATH] or [--connect HOST:PORT] — exactly one. *)
let client_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix domain socket path of the daemon.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:
          "Reach the daemon over its TCP listener (started with \
           $(b,arde serve --tcp)) instead of the Unix socket.  The host \
           part is optional and defaults to localhost.  Frames and \
           responses are identical on both transports.")

let endpoint_of ~cmd socket connect =
  match (socket, connect) with
  | Some path, None -> Arde_server.Client.Unix_socket path
  | None, Some hp -> (
      match Arde_server.Client.parse_tcp_endpoint hp with
      | Ok e -> e
      | Error e ->
          prerr_endline (cmd ^ ": " ^ e);
          exit 1)
  | Some _, Some _ ->
      prerr_endline (cmd ^ ": --socket and --connect are mutually exclusive");
      exit 1
  | None, None ->
      prerr_endline (cmd ^ ": one of --socket or --connect is required");
      exit 1

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget per detection run; on expiry the remaining \
           seeds are cancelled cooperatively and the response reports a \
           degraded health verdict with every completed seed's findings.")

let serve_cmd =
  let max_pending_arg =
    Arg.(
      value & opt int 64
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Admission-control bound on queued requests; beyond it new \
             run requests are refused with a structured $(b,overloaded) \
             error.")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker processes.  Each owns its own domain pool and caches; \
             requests are routed by program-digest affinity and a crashed \
             worker is restarted under exponential backoff.")
  in
  let spool_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Crash-bundle spool directory (default: the socket path plus \
             $(b,.spool)).  Workers journal every request here before \
             executing it; when one dies the journal is sealed into \
             $(b,DIR/bundles/) for replay with $(b,arde postmortem).")
  in
  let watchdog_arg =
    Arg.(
      value & opt int 120_000
      & info [ "watchdog-ms" ] ~docv:"MS"
          ~doc:
            "SIGKILL bound for a worker executing a request that carries \
             no deadline; requests with deadlines get their deadline plus \
             a fixed grace instead.")
  in
  let chaos_plan_arg =
    (* Deliberately undocumented in the manpage: a fault-injection hook
       for the crash-storm tests and CI, not an operator surface. *)
    Arg.(
      value & opt string ""
      & info [ "chaos-plan" ] ~docv:"PLAN" ~docs:Manpage.s_none)
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the stderr event log.")
  in
  let max_frame_mb_arg =
    Arg.(
      value & opt int 8
      & info [ "max-frame-mb" ] ~docv:"MIB"
          ~doc:
            "Frame-size cap in MiB (default 8).  An oversized frame is \
             refused with a structured $(b,bad_frame) error naming the \
             limit.")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:
            "Also listen on this TCP endpoint, speaking the identical \
             frame protocol as the Unix socket; clients reach \
             it with $(b,--connect).  The host part is optional (default \
             localhost); port 0 binds an ephemeral port, logged at \
             startup.")
  in
  let no_store_arg =
    Arg.(
      value & flag
      & info [ "no-store" ]
          ~doc:
            "Accepted and ignored: the daemon has no on-disk store.  \
             Prepared analyses live in each worker's memory, and a \
             restarted daemon recomputes them.")
  in
  let run socket workers max_pending jobs default_deadline_ms spool
      watchdog_ms max_frame_mb tcp (_no_store : bool) chaos_plan quiet =
    if max_frame_mb <= 0 then begin
      prerr_endline "serve: --max-frame-mb must be positive";
      exit 1
    end;
    let tcp =
      match tcp with
      | None -> None
      | Some hp -> (
          let host, port_s =
            match String.rindex_opt hp ':' with
            | None -> ("", hp)
            | Some i ->
                ( String.sub hp 0 i,
                  String.sub hp (i + 1) (String.length hp - i - 1) )
          in
          match int_of_string_opt port_s with
          | Some port when port >= 0 && port < 65536 -> Some (host, port)
          | Some _ | None ->
              prerr_endline
                (Printf.sprintf "serve: invalid --tcp endpoint %S (want \
                                 HOST:PORT)" hp);
              exit 1)
    in
    let log =
      if quiet then ignore
      else fun m -> Printf.eprintf "[arde-serve] %s\n%!" m
    in
    let cfg =
      Arde_server.Server.config ?tcp ~workers ~max_pending
        ~max_frame:(max_frame_mb * 1024 * 1024) ?jobs ?default_deadline_ms
        ~watchdog_ms ?spool_dir:spool ~chaos_plan ~log
        ~socket_path:socket ()
    in
    match Arde_server.Server.create cfg with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok t ->
        Arde_server.Server.handle_signals t;
        Arde_server.Server.run t;
        exit 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-only detection daemon: a supervisor process routing \
          framed JSON requests to worker processes with long-lived domain \
          pools and warm caches.  A crashed worker yields a structured \
          $(b,worker_crashed) error plus a durable crash bundle, and is \
          restarted with backoff.  SIGTERM drains gracefully (in-flight \
          requests finish, new work is refused with a structured error) \
          and exits 0.")
    Term.(
      const run $ socket_arg $ workers_arg $ max_pending_arg $ jobs_arg
      $ deadline_arg $ spool_arg $ watchdog_arg $ max_frame_mb_arg $ tcp_arg
      $ no_store_arg $ chaos_plan_arg $ quiet_arg)

let submit_cmd =
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry budget for idempotent-safe failures only: a refused or \
             missing socket, a $(b,draining) refusal, or a \
             $(b,worker_crashed) error.  Completed responses are never \
             retried, so their exit codes (including 3 for a failed run) \
             are preserved.")
  in
  let retry_backoff_arg =
    Arg.(
      value & opt int 50
      & info [ "retry-backoff-ms" ] ~docv:"MS"
          ~doc:
            "First retry delay; doubles per retry (capped at 40x) with \
             deterministic jitter in [0.5, 1.5) of the nominal delay.")
  in
  let run socket connect name mode opts deadline_ms retries retry_backoff_ms =
    let endpoint = endpoint_of ~cmd:"submit" socket connect in
    match find_program name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok (p, case, _) ->
        let options = opts Arde.Options.default in
        let program = Arde.Pretty.program_to_string p in
        let policy =
          Arde_server.Client.retry_policy ~attempts:retries
            ~backoff_ms:retry_backoff_ms
            ~max_backoff_ms:(retry_backoff_ms * 40)
            ~jitter_seed:(Unix.getpid ()) ()
        in
        let reply, attempts =
          Arde_server.Client.submit_with_retry ~endpoint ~policy
            ?deadline_ms ~program ~mode ~options ()
        in
        if attempts > 0 then
          Printf.eprintf "submit: retried %d time%s\n%!" attempts
            (if attempts = 1 then "" else "s");
        (match reply with
        | Error e ->
            prerr_endline ("submit: " ^ e);
            exit 4
        | Ok resp when not (Arde_server.Protocol.response_ok resp) -> (
            match Arde_server.Protocol.response_error resp with
            | Some (code, msg) ->
                Printf.eprintf "submit: server error (%s): %s\n" code msg;
                exit 4
            | None ->
                prerr_endline "submit: malformed server response";
                exit 4)
        | Ok resp -> (
            match Arde.Json.member "result" resp with
            | None ->
                prerr_endline "submit: response carries no result";
                exit 4
            | Some result_json -> (
                match
                  Arde_server.Protocol.run_output ~workload:name
                    ?expectation:
                      (Option.map (fun c -> c.W.Racey.expectation) case)
                    ?analysis_cache:(Arde.Json.member "analysis_cache" resp)
                    result_json
                with
                | Ok (obj, code) ->
                    print_json obj;
                    exit code
                | Error e ->
                    prerr_endline ("submit: malformed result json: " ^ e);
                    exit 4)))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a workload to a running $(b,arde serve) daemon and print \
          the same JSON object $(b,arde run --format json) would (exit \
          codes 0-3 likewise; 4 on transport or server errors, including \
          an exhausted retry budget).")
    Term.(
      const run $ client_socket_arg $ connect_arg $ name_arg $ mode_arg
      $ common_opts $ deadline_arg $ retries_arg $ retry_backoff_arg)

let stats_cmd =
  let run socket connect =
    let endpoint = endpoint_of ~cmd:"stats" socket connect in
    match Arde_server.Client.connect ~endpoint () with
    | Error e ->
        prerr_endline ("stats: " ^ e);
        exit 4
    | Ok cl ->
        Fun.protect
          ~finally:(fun () -> Arde_server.Client.close cl)
          (fun () ->
            match Arde_server.Client.stats cl with
            | Error e ->
                prerr_endline ("stats: " ^ e);
                exit 4
            | Ok resp -> (
                match Arde.Json.member "stats" resp with
                | Some s ->
                    print_json s;
                    exit 0
                | None ->
                    prerr_endline "stats: malformed server response";
                    exit 4))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Query a running $(b,arde serve) daemon's statistics: per-outcome \
          request counts, queue depth, supervision counters (crashes, \
          restarts, watchdog kills, sealed crash bundles, open circuit \
          breakers) and per-worker health, as JSON on stdout.")
    Term.(const run $ client_socket_arg $ connect_arg)

(* ---- postmortem ---- *)

let postmortem_cmd =
  let bundle_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE" ~doc:"Path to a sealed crash bundle.")
  in
  let run bundle jobs =
    let module S = Arde_server.Spool in
    let module W = Arde_server.Worker in
    let module J = Arde.Json in
    let fail e =
      prerr_endline ("postmortem: " ^ e);
      exit 1
    in
    match S.load bundle with
    | Error e -> fail e
    | Ok meta -> (
        let warn e = prerr_endline ("postmortem: " ^ e) in
        match W.replay ?jobs ~warn meta with
        | Error e -> fail e
        | Ok { W.source; response } ->
            let meta_field name =
              match J.member name meta with
              | Some ((J.String _ | J.Int _ | J.Float _) as v) -> [ (name, v) ]
              | _ -> []
            in
            print_json
              (J.Obj
                 ([ ("bundle", J.String bundle) ]
                 @ meta_field "crash_reason"
                 @ meta_field "sealed_at"
                 @ meta_field "worker"
                 @ meta_field "pid"
                 @ meta_field "digest"
                 @ [
                     ("replayed_from", J.String source);
                     ("response", response);
                   ]));
            exit
              (if Arde_server.Protocol.response_ok response then 0 else 3))
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Replay a crash bundle sealed by $(b,arde serve): parse the \
          journaled request with the production parser, re-run the \
          detection locally, and print the bundle metadata together with \
          the response the crashed worker would have produced.  Exit 0 \
          when the replay completes, 3 when it yields an error response, \
          1 on an unreadable bundle.")
    Term.(const run $ bundle_arg $ jobs_arg)

let () =
  (* Must run before cmdliner sees argv: an invocation carrying the
     worker marker is a serve worker process, not a CLI session. *)
  Arde_server.Worker.hook ();
  let doc = "ad-hoc synchronization identification for enhanced race detection" in
  let info = Cmd.info "arde" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; show_cmd; spin_report_cmd; run_cmd; record_cmd;
            replay_cmd; predict_cmd; trace_cmd; fmt_cmd; compare_cmd;
            suite_cmd; parsec_cmd; chaos_cmd; serve_cmd; submit_cmd;
            stats_cmd; postmortem_cmd;
          ]))
