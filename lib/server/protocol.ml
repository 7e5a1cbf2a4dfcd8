(* Framing and schemas for the serve socket.  See protocol.mli. *)

module J = Arde.Json

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)

let default_max_frame = 8 * 1024 * 1024

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

type decoder = { mutable dbuf : Bytes.t; mutable dlen : int; dmax : int }

let decoder ?(max_frame = default_max_frame) () =
  { dbuf = Bytes.create 4096; dlen = 0; dmax = max_frame }

type frame_result = Frame of string | Await | Too_large of int

let decoder_pending d = d.dlen

let feed d src off len =
  if len < 0 || off < 0 || off + len > Bytes.length src then
    invalid_arg "Protocol.feed";
  let need = d.dlen + len in
  if need > Bytes.length d.dbuf then begin
    let cap = ref (Bytes.length d.dbuf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit d.dbuf 0 nb 0 d.dlen;
    d.dbuf <- nb
  end;
  Bytes.blit src off d.dbuf d.dlen len;
  d.dlen <- d.dlen + len

let next_frame d =
  if d.dlen < 4 then Await
  else
    let n = Int32.to_int (Bytes.get_int32_be d.dbuf 0) in
    if n < 0 || n > d.dmax then Too_large (n land 0xFFFFFFFF)
    else if d.dlen < 4 + n then Await
    else begin
      let payload = Bytes.sub_string d.dbuf 4 n in
      let rest = d.dlen - 4 - n in
      Bytes.blit d.dbuf (4 + n) d.dbuf 0 rest;
      d.dlen <- rest;
      Frame payload
    end

(* ------------------------------------------------------------------ *)
(* Error codes                                                        *)

type error_code =
  | Bad_frame
  | Bad_request
  | Overloaded
  | Draining
  | Internal
  | Worker_crashed
  | Deadline_expired

let code_name = function
  | Bad_frame -> "bad_frame"
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Internal -> "internal"
  | Worker_crashed -> "worker_crashed"
  | Deadline_expired -> "deadline_expired"

(* Idempotent-safe to retry: the request provably did not complete a
   detection run whose answer the client then threw away — the daemon
   was not reachable, refused before execution, or the executing worker
   died.  (Detection is pure, so even a lost completed run would be safe
   to re-run; but [overloaded] is the server asking for {e less}
   traffic, so the client-side policy deliberately excludes it.) *)
let retryable_code = function
  | "worker_crashed" | "draining" -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)

(* What a run request asks the worker to do: execute a program (and
   possibly record it), or replay a recorded trace.  The trace travels
   base64-inside-JSON on the wire but is raw binary here — protocol
   parsing is the only place that knows about the encoding. *)
type program_request = {
  rp_program : string;
  rp_mode : Arde.Config.mode;
  rp_options : Arde.Options.t;
  rp_record : bool;
}

type run_payload = Rq_program of program_request | Rq_trace of string

type run_request = {
  rq_id : J.t;
  rq_payload : run_payload;
  rq_deadline_ms : int option;
  rq_retry : int; (* which retry attempt this is; 0 = first send *)
}

type request = Run of run_request | Stats of J.t | Ping of J.t

let run_json ?(id = J.Null) ?deadline_ms ?retry payload_fields =
  J.Obj
    ([ ("type", J.String "run"); ("id", id) ]
    @ payload_fields
    @ (match deadline_ms with
      | None -> []
      | Some d -> [ ("deadline_ms", J.Int d) ])
    @
    match retry with
    | None | Some 0 -> []
    | Some n -> [ ("retry", J.Int n) ])

let run_request_json ?id ?deadline_ms ?retry ?(record = false) ~program
    ~mode ~options () =
  run_json ?id ?deadline_ms ?retry
    ([
       ("program", J.String program);
       ("mode", J.String (Arde.Config.mode_id mode));
       ("options", Arde.Options.to_json options);
     ]
    @ if record then [ ("record", J.Bool true) ] else [])

let replay_request_json ?id ?deadline_ms ?retry ~trace () =
  run_json ?id ?deadline_ms ?retry
    [ ("trace", J.String (Arde.Base64.encode trace)) ]

let stats_request ?(id = J.Null) () =
  J.Obj [ ("type", J.String "stats"); ("id", id) ]

let ping_request ?(id = J.Null) () =
  J.Obj [ ("type", J.String "ping"); ("id", id) ]

(* Requests are shallow (the program travels as a string), so a tight
   depth limit guards the socket against nesting bombs long before the
   parser's own default would. *)
let request_max_depth = 64

let parse_request payload =
  match J.parse_checked ~max_depth:request_max_depth payload with
  | Error e -> Error (J.Null, Bad_frame, J.error_to_string e)
  | Ok j -> (
      let id = Option.value (J.member "id" j) ~default:J.Null in
      let str_field name =
        match Option.bind (J.member name j) J.to_str with
        | Some s -> Ok s
        | None ->
            Error (id, Bad_request,
                   Printf.sprintf "missing or ill-typed field %S" name)
      in
      match Option.bind (J.member "type" j) J.to_str with
      | Some "ping" -> Ok (Ping id)
      | Some "stats" -> Ok (Stats id)
      | Some "run" ->
          let ( let* ) = Result.bind in
          let* rq_payload =
            match (J.member "trace" j, J.member "program" j) with
            | Some _, Some _ ->
                Error
                  (id, Bad_request,
                   "request carries both \"program\" and \"trace\"")
            | Some t, None -> (
                match J.to_str t with
                | None ->
                    Error
                      (id, Bad_request, "missing or ill-typed field \"trace\"")
                | Some b64 -> (
                    match Arde.Base64.decode b64 with
                    | Ok trace -> Ok (Rq_trace trace)
                    | Error e -> Error (id, Bad_request, "trace: " ^ e)))
            | None, _ ->
                let* rp_program = str_field "program" in
                let* mode_s = str_field "mode" in
                let* rp_mode =
                  Result.map_error
                    (fun e -> (id, Bad_request, e))
                    (Arde.Config.parse_mode mode_s)
                in
                let* rp_options =
                  match J.member "options" j with
                  | None -> Ok (Arde.Options.make ())
                  | Some o ->
                      Result.map_error
                        (fun e -> (id, Bad_request, "options: " ^ e))
                        (Arde.Options.of_json o)
                in
                let rp_record =
                  Option.value ~default:false
                    (Option.bind (J.member "record" j) J.to_bool)
                in
                Ok (Rq_program { rp_program; rp_mode; rp_options; rp_record })
          in
          let* rq_deadline_ms =
            match J.member "deadline_ms" j with
            | None | Some J.Null -> Ok None
            | Some d -> (
                match J.to_int d with
                | Some ms when ms > 0 -> Ok (Some ms)
                | _ ->
                    Error (id, Bad_request,
                           "deadline_ms must be a positive integer"))
          in
          let rq_retry =
            match Option.bind (J.member "retry" j) J.to_int with
            | Some n when n > 0 -> n
            | _ -> 0
          in
          Ok (Run { rq_id = id; rq_payload; rq_deadline_ms; rq_retry })
      | Some other ->
          Error (id, Bad_request,
                 Printf.sprintf "unknown request type %S" other)
      | None -> Error (id, Bad_request, "missing field \"type\""))

let ok_response ~id fields =
  J.Obj
    ([ ("type", J.String "response"); ("id", id); ("ok", J.Bool true) ]
    @ fields)

let error_response ~id code msg =
  J.Obj
    [
      ("type", J.String "response");
      ("id", id);
      ("ok", J.Bool false);
      ( "error",
        J.Obj
          [ ("code", J.String (code_name code)); ("message", J.String msg) ]
      );
    ]

let response_ok j =
  match Option.bind (J.member "ok" j) J.to_bool with
  | Some b -> b
  | None -> false

let response_error j =
  match J.member "error" j with
  | None -> None
  | Some e ->
      let f name =
        Option.value ~default:"" (Option.bind (J.member name e) J.to_str)
      in
      Some (f "code", f "message")

(* Responses have one encoding; the [wire] label survives only for
   callers written against the two-wire interface (see protocol.mli). *)
type wire = Json

let encode_response ~wire:Json resp = J.to_string resp

(* ------------------------------------------------------------------ *)
(* The supervisor <-> worker wire                                     *)

(* Workers speak the same frame codec over a socketpair held by the
   supervisor.  Request and response bodies cross this hop as {e raw
   bytes}, never re-parsed or re-serialized: a [job] header frame is
   followed by one frame holding the client's request verbatim (so the
   worker's spool journal records exactly what arrived on the public
   socket), and a [done] header frame — carrying the outcome code the
   supervisor needs for its counters — is followed by one frame holding
   the response bytes the supervisor forwards untouched.  Run requests
   are several hundred kilobytes of program text; parsing them once per
   process instead of once per hop is most of the serving hot path. *)

let hello_frame ~worker ~pid =
  J.Obj
    [ ("type", J.String "hello"); ("worker", J.Int worker); ("pid", J.Int pid) ]

let job_frame ~job ~digest =
  J.Obj
    [
      ("type", J.String "job");
      ("job", J.Int job);
      ("digest", J.String digest);
    ]

let done_frame ~job ~spool_error ~code () =
  J.Obj
    [
      ("type", J.String "done");
      ("job", J.Int job);
      ("spool_error", J.Bool spool_error);
      ("code", J.String code);
    ]

type worker_msg =
  | W_hello of int  (** the worker's pid *)
  | W_done of {
      wd_job : int;
      wd_spool_error : bool;
      wd_code : string;
    }
      (** the response bytes follow in the next frame, verbatim *)

let parse_worker_msg payload =
  match J.parse_checked payload with
  | Error e -> Error (J.error_to_string e)
  | Ok j -> (
      match Option.bind (J.member "type" j) J.to_str with
      | Some "hello" -> (
          match Option.bind (J.member "pid" j) J.to_int with
          | Some pid -> Ok (W_hello pid)
          | None -> Error "hello without pid")
      | Some "done" -> (
          match
            ( Option.bind (J.member "job" j) J.to_int,
              Option.bind (J.member "code" j) J.to_str )
          with
          | Some wd_job, Some wd_code ->
              let wd_spool_error =
                Option.value ~default:false
                  (Option.bind (J.member "spool_error" j) J.to_bool)
              in
              Ok (W_done { wd_job; wd_spool_error; wd_code })
          | _ -> Error "done without job id or code")
      | Some other -> Error (Printf.sprintf "unknown worker message %S" other)
      | None -> Error "worker message without type")

let parse_job payload =
  match J.parse_checked payload with
  | Error e -> Error (J.error_to_string e)
  | Ok j -> (
      match
        ( Option.bind (J.member "job" j) J.to_int,
          Option.bind (J.member "digest" j) J.to_str )
      with
      | Some job, Some digest -> Ok (job, digest)
      | _ -> Error "job frame without job id or digest")

(* ------------------------------------------------------------------ *)
(* The shared one-shot output shape                                   *)

let run_output ~workload ?expectation ?analysis_cache result_json =
  let ( let* ) = Result.bind in
  let* report =
    match J.member "report" result_json with
    | Some r -> Arde.Report.of_json r
    | None -> Error "result has no \"report\" field"
  in
  let* health =
    match J.member "health" result_json with
    | Some h -> Arde.Driver.health_of_json h
    | None -> Error "result has no \"health\" field"
  in
  let races = Arde.Report.n_contexts report > 0 in
  let code =
    match health.Arde.Driver.h_verdict with
    | Arde.Driver.Failed -> 3
    | Arde.Driver.Degraded -> 2
    | Arde.Driver.Healthy -> if races then 1 else 0
  in
  let verdict =
    Option.map
      (fun exp ->
        Arde.Classify.classify exp ~reported:(Arde.Report.racy_bases report))
      expectation
  in
  let obj =
    J.Obj
      ([ ("workload", J.String workload); ("result", result_json) ]
      @ (match verdict with
        | None -> []
        | Some v ->
            [
              ( "verdict",
                J.String
                  (match Arde.Classify.outcome_of v with
                  | Arde.Classify.Correct -> "correct"
                  | Arde.Classify.False_alarm -> "false-alarm"
                  | Arde.Classify.Missed_race -> "missed-race") );
            ])
      @ (match analysis_cache with
        | None -> []
        | Some ac -> [ ("analysis_cache", ac) ])
      @ [ ("exit_code", J.Int code) ])
  in
  Ok (obj, code)
