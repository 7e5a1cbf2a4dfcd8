(* The worker-process shim.  See worker.mli.

   A worker is this very executable re-exec'ed with {!marker} as its
   first argument: OCaml 5 forbids [Unix.fork] in any process that has
   ever created a domain, so the supervisor (which must stay fork-free
   and domain-free) launches workers with [Unix.create_process], and
   every host binary (CLI, tests, benchmark) installs {!hook} at the top
   of its [main] to catch the marker and become a worker instead. *)

module J = Arde.Json
module P = Protocol

let marker = "__arde-serve-worker__"

type args = {
  a_spool : string;
  a_index : int;
  a_jobs : int;
  a_max_frame : int;
  a_chaos : Arde.Chaos.Serve.plan;
}

let worker_args ~spool ~index ~jobs ~max_frame ~chaos_plan =
  [|
    marker;
    "--spool";
    spool;
    "--index";
    string_of_int index;
    "--jobs";
    string_of_int jobs;
    "--max-frame";
    string_of_int max_frame;
    "--chaos-plan";
    chaos_plan;
  |]

let parse_args argv =
  let a =
    ref
      {
        a_spool = "";
        a_index = 0;
        a_jobs = 0;
        a_max_frame = P.default_max_frame;
        a_chaos = Arde.Chaos.Serve.empty;
      }
  in
  let rec go = function
    | [] -> Ok !a
    | "--spool" :: v :: tl ->
        a := { !a with a_spool = v };
        go tl
    | "--index" :: v :: tl ->
        a := { !a with a_index = int_of_string v };
        go tl
    | "--jobs" :: v :: tl ->
        a := { !a with a_jobs = int_of_string v };
        go tl
    | "--max-frame" :: v :: tl ->
        a := { !a with a_max_frame = int_of_string v };
        go tl
    | "--chaos-plan" :: v :: tl -> (
        match Arde.Chaos.Serve.parse v with
        | Ok plan ->
            a := { !a with a_chaos = plan };
            go tl
        | Error e -> Error e)
    | other :: _ -> Error (Printf.sprintf "unknown worker argument %S" other)
  in
  match go argv with
  | r -> r
  | exception Failure _ -> Error "malformed worker argument"

(* ------------------------------------------------------------------ *)
(* Execution (one request at a time, same pipeline as PR 5's worker
   domain, now in its own process)                                    *)

(* Parsed programs by request-text digest, bounded like the analysis
   cache so a worker that runs indefinitely plateaus.  128 keeps a
   working set of a hundred-odd distinct programs resident, each
   re-submitted under several modes. *)
type programs = (string, Arde.Types.program) Arde.Fifo_table.t

let max_programs = 128
let programs () = Arde.Fifo_table.create max_programs
let resident programs ~digest = Arde.Fifo_table.mem programs digest

(* A pool [jobs] wide, or one domain per core when [jobs <= 0]. *)
let create_pool jobs =
  Arde.Domain_pool.create
    ~jobs:(if jobs <= 0 then Arde.Domain_pool.default_jobs () else jobs)

(* What a request executes against: the worker loop's long-lived pool
   and program table, or the fresh ones of a crash-bundle replay. *)
type env = {
  pool : Arde.Domain_pool.pool;
  programs : programs;
  keep_trace : string -> unit;
      (* Handed a record-mode request's trace between its recording and
         detection passes. *)
}

type state = {
  args : args;
  spool : Spool.t;
  env : env;
  mutable count : int; (* requests executed, drives the chaos plan *)
}

(* [digest] comes from the job header — the supervisor already digested
   the program for affinity routing, so the worker never re-hashes the
   (potentially very large) text. *)
let lookup_program programs ~digest text =
  match Arde.Fifo_table.find_opt programs digest with
  | Some p -> Ok p
  | None -> (
      match Arde.Parse.program text with
      | Error e -> Error ("program: " ^ Arde.Parse.error_to_string e)
      | Ok p -> (
          match Arde.Validate.check p with
          | Error es ->
              Error
                ("program: "
                ^ String.concat "; "
                    (List.map Arde.Validate.error_to_string es))
          | Ok () ->
              Arde.Fifo_table.add programs digest p;
              Ok p))

(* The one request executor: the frame loop runs every request through
   it and {!replay} runs crash bundles through it, so a postmortem
   reproduces the worker's response exactly.  [sealed_trace] is the
   recording a record-mode request left in the spool before its worker
   died; it stands in for the recording pass. *)
let execute ?sealed_trace env ~digest (req : P.run_request) =
  let id = req.P.rq_id in
  let before = Arde.Analysis_cache.stats () in
  let started = Unix.gettimeofday () in
  let should_stop =
    match req.P.rq_deadline_ms with
    | None -> fun () -> false
    | Some ms ->
        fun () -> (Unix.gettimeofday () -. started) *. 1000. > float_of_int ms
  in
  let respond result extra =
    let after = Arde.Analysis_cache.stats () in
    let delta = Arde.Analysis_cache.stats_delta ~before ~after in
    P.ok_response ~id
      ([
         ("result", Arde.Driver.result_to_json result);
         ("analysis_cache", Arde.Analysis_cache.stats_to_json delta);
       ]
      @ extra)
  in
  let internal e = P.error_response ~id P.Internal (Printexc.to_string e) in
  let detect_trace ~ctx ~on_error ?(extra = []) trace =
    match Arde.Recorded.of_string trace with
    | Error msg -> on_error msg
    | Ok recorded -> (
        match Arde.detect ~ctx (Arde.Input.Recorded_trace recorded) with
        | result -> respond result extra
        | exception e -> internal e)
  in
  match req.P.rq_payload with
  | P.Rq_trace trace ->
      (* The replay-farm path: detection without the machine.  The
         program comes out of the trace itself; [digest] (from the trace
         header, via the supervisor) still keys the analysis cache, so
         repeated replays of the same program skip the static phase. *)
      detect_trace
        ~ctx:
          (Arde.Driver.ctx ~pool:env.pool ~should_stop ~program_digest:digest
             ())
        ~on_error:(fun msg ->
          P.error_response ~id P.Bad_request ("trace: " ^ msg))
        trace
  | P.Rq_program { rp_program; rp_mode; rp_options; rp_record } -> (
      match lookup_program env.programs ~digest rp_program with
      | Error msg -> P.error_response ~id P.Bad_request msg
      | Ok program -> (
          let ctx =
            Arde.Driver.ctx ~options:rp_options ~pool:env.pool ~should_stop
              ~program_digest:digest ()
          in
          if not rp_record then
            match Arde.detect ~ctx ~mode:rp_mode (Arde.Input.Program program) with
            | result -> respond result []
            | exception e -> internal e
          else
            (* Record-mode: the record/replay split live.  The cheap
               recording pass runs first and the trace lands in the
               spool before the expensive detection pass — so a worker
               killed mid-detection seals a bundle whose trace replays
               the detection deterministically.  The response's result
               comes from replaying that very trace, which the identity
               oracle guarantees equals the live run's. *)
            let recording =
              match sealed_trace with
              | Some trace -> Ok trace
              | None -> (
                  match
                    Arde.record ~ctx ~mode:rp_mode ~source:"serve"
                      (Arde.Input.Program program)
                  with
                  | Ok { Arde.Driver.rec_trace; _ } ->
                      env.keep_trace rec_trace;
                      Ok rec_trace
                  | Error msg -> Error (P.error_response ~id P.Internal msg)
                  | exception e -> Error (internal e))
            in
            match recording with
            | Error response -> response
            | Ok trace ->
                detect_trace ~ctx
                  ~on_error:(fun msg ->
                    P.error_response ~id P.Internal ("recorded trace: " ^ msg))
                  ~extra:[ ("trace", J.String (Arde.Base64.encode trace)) ]
                  trace))

(* ------------------------------------------------------------------ *)
(* The frame loop.  The supervisor hands us its socketpair end as our
   stdin; the socket is bidirectional, so frames flow both ways on
   fd 0.  Our stdout is NOT the protocol channel (the supervisor points
   it at stderr): host binaries may link libraries that print there. *)

let stdin_fd = Unix.stdin
let stdout_fd = Unix.stdin

(* A completed job is two frames back to the supervisor: the small
   [done] header, then the response bytes verbatim.  The torn/slow
   chaos faults corrupt the PAYLOAD frame — the supervisor must treat a
   stream that dies mid-response as a crash, not as a response. *)
let send_done ?(faults = []) ~job ~spool_error ~code raw_response =
  let module CS = Arde.Chaos.Serve in
  Util.write_all stdout_fd
    (P.frame (J.to_string (P.done_frame ~job ~spool_error ~code ())));
  let bytes = P.frame raw_response in
  if List.mem CS.Torn_frame faults then begin
    (* Half the payload frame, then vanish. *)
    let half = max 1 (String.length bytes / 2) in
    Util.write_all stdout_fd (String.sub bytes 0 half);
    exit 0
  end
  else if List.mem CS.Slow_frame faults then begin
    let n = String.length bytes in
    let chunk = 4096 in
    let off = ref 0 in
    while !off < n do
      let len = min chunk (n - !off) in
      Util.write_all stdout_fd (String.sub bytes !off len);
      Util.sleepf 0.002;
      off := !off + len
    done
  end
  else Util.write_all stdout_fd bytes

let response_code resp =
  match P.response_error resp with Some (code, _) -> code | None -> "ok"

let send_done_json ?faults ~job ~spool_error resp =
  send_done ?faults ~job ~spool_error ~code:(response_code resp)
    (J.to_string resp)

(* [raw] is the client's request exactly as it crossed the public
   socket: parsed once here (the supervisor never parses bodies), and
   journaled byte-for-byte. *)
let handle_job st ~job ~digest raw =
  let module CS = Arde.Chaos.Serve in
  match P.parse_request raw with
  | Error (id, code, msg) ->
      send_done_json ~job ~spool_error:false (P.error_response ~id code msg)
  | Ok (P.Ping id | P.Stats id) ->
      send_done_json ~job ~spool_error:false
        (P.error_response ~id P.Internal "worker received a non-run request")
  | Ok (P.Run req) ->
      st.count <- st.count + 1;
      let faults = CS.fires st.args.a_chaos ~count:st.count in
      (* Journal before executing: if we die mid-request the supervisor
         seals this journal into a replayable crash bundle.  Journaling
         is best-effort — a full disk must not fail the request. *)
      let spool_error =
        if List.mem CS.Spool_enospc faults then true
        else
          match
            Spool.journal st.spool ~worker:st.args.a_index
              ~pid:(Unix.getpid ()) ~digest ~request:raw
          with
          | Ok () -> false
          | Error _ -> true
      in
      if List.mem CS.Kill_self faults then
        (* The moral equivalent of a segfault mid-request. *)
        Unix.kill (Unix.getpid ()) Sys.sigkill;
      if List.mem CS.Wedge faults then
        (* Ignore every cooperative-cancellation convention and burn
           wall-clock until the watchdog SIGKILLs us. *)
        while true do
          Util.sleepf 3600.
        done;
      let response = execute st.env ~digest req in
      Spool.clear st.spool ~worker:st.args.a_index;
      send_done_json ~faults ~job ~spool_error response

let main args =
  (* The supervisor owns our lifecycle: drain arrives as stdin EOF,
     crash-class shutdown as SIGKILL.  Terminal-delivered SIGINT/SIGTERM
     (the whole process group gets them) must not make an in-flight
     request look like a crash. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let spool =
    match Spool.create ~root:args.a_spool with
    | Ok s -> s
    | Error e ->
        prerr_endline ("arde-serve worker: " ^ e);
        exit 66
  in
  let keep_trace trace =
    (* Best-effort, like the request journal. *)
    match Spool.journal_trace spool ~worker:args.a_index ~trace with
    | Ok () | Error _ -> ()
  in
  let st =
    {
      args;
      spool;
      env =
        {
          pool = create_pool args.a_jobs;
          programs = programs ();
          keep_trace;
        };
      count = 0;
    }
  in
  (* Ready: pool built, spool reachable. *)
  Util.write_all stdout_fd
    (P.frame
       (J.to_string
          (P.hello_frame ~worker:args.a_index ~pid:(Unix.getpid ()))));
  let dec = P.decoder ~max_frame:args.a_max_frame () in
  let buf = Bytes.create 65536 in
  (* Jobs arrive as a header frame then a raw request frame. *)
  let pending_job = ref None in
  let rec loop () =
    match P.next_frame dec with
    | P.Frame payload -> (
        match !pending_job with
        | Some (job, digest) ->
            pending_job := None;
            handle_job st ~job ~digest payload;
            loop ()
        | None -> (
            match P.parse_job payload with
            | Ok job_header ->
                pending_job := Some job_header;
                loop ()
            | Error e ->
                send_done_json ~job:(-1) ~spool_error:false
                  (P.error_response ~id:J.Null P.Internal ("worker: " ^ e));
                loop ()))
    | P.Too_large _ -> exit 65
    | P.Await -> (
        match Util.read stdin_fd buf 0 (Bytes.length buf) with
        | 0 -> () (* supervisor closed our stdin: drain complete *)
        | n ->
            P.feed dec buf 0 n;
            loop ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> ())
  in
  loop ();
  Arde.Domain_pool.shutdown st.env.pool

(* ------------------------------------------------------------------ *)
(* Crash-bundle replay                                                 *)

type replay = { source : string; response : J.t }

let replay ?(jobs = 0) ?(warn = ignore) bundle =
  let parsed =
    match J.member "request" bundle with
    | None -> Error "bundle carries no request"
    | Some r -> (
        let text = J.to_string r in
        match P.parse_request text with
        | Error (_, code, msg) ->
            Error
              (Printf.sprintf "unreplayable request (%s): %s" (P.code_name code)
                 msg)
        | Ok (P.Ping _ | P.Stats _) -> Error "bundle holds a non-run request"
        | Ok (P.Run req) -> Ok (text, req))
  in
  Result.map
    (fun (text, (req : P.run_request)) ->
      (* The digest the worker was handed; it keys the program table and
         the analysis cache exactly as it did in the worker. *)
      let digest =
        match Option.bind (J.member "digest" bundle) J.to_str with
        | Some d -> d
        | None -> Digest.to_hex (Digest.string text)
      in
      let sealed_trace =
        match Option.bind (J.member "trace" bundle) J.to_str with
        | None -> None
        | Some b64 -> (
            match Arde.Base64.decode b64 with
            | Ok trace -> Some trace
            | Error e ->
                warn ("bundle trace: " ^ e ^ " (ignoring it)");
                None)
      in
      let source =
        match (sealed_trace, req.P.rq_payload) with
        | Some _, P.Rq_program { rp_record = true; _ } -> "sealed-trace"
        | _, P.Rq_trace _ -> "request-trace"
        | _, P.Rq_program _ -> "program"
      in
      if sealed_trace <> None && source <> "sealed-trace" then
        warn
          "bundle trace: the journaled request is not record-mode (ignoring \
           it)";
      let pool = create_pool jobs in
      let env = { pool; programs = programs (); keep_trace = ignore } in
      let response =
        Fun.protect
          ~finally:(fun () -> Arde.Domain_pool.shutdown pool)
          (fun () -> execute ?sealed_trace env ~digest req)
      in
      { source; response })
    parsed

let hook () =
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = marker then begin
    let rest =
      Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    in
    (match parse_args rest with
    | Error e ->
        prerr_endline ("arde-serve worker: " ^ e);
        exit 64
    | Ok args -> (
        match main args with
        | () -> ()
        | exception e ->
            prerr_endline ("arde-serve worker: " ^ Printexc.to_string e);
            exit 70));
    exit 0
  end
