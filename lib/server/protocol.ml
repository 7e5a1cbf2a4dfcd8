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

let write_frame fd payload =
  let s = frame payload in
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

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

type request = Run of run_request | Stats of J.t | Ping of J.t | Hello

(* ------------------------------------------------------------------ *)
(* Wire selection                                                     *)

(* Every frame payload is self-describing: JSON documents open with
   whitespace or a structural character, never 0xB7, so one byte picks
   the codec and JSON-only clients never see a negotiation step. *)

type wire = Json | Binary

let binary_magic = 0xB7
let binary_version = 1

let payload_wire payload =
  if String.length payload > 0 && Char.code payload.[0] = binary_magic then
    Binary
  else Json

let wire_name = function Json -> "json" | Binary -> "binary"

let parse_wire = function
  | "json" -> Ok Json
  | "binary" -> Ok Binary
  | s -> Error (Printf.sprintf "unknown wire %S (expected json or binary)" s)

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

let parse_json_request payload =
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

(* ------------------------------------------------------------------ *)
(* The binary wire                                                    *)

(* Length-prefixed binary bodies sharing the trace codec's varint /
   zigzag / lpstr primitives.  The layout (see DESIGN.md §6):

     payload  := 0xB7 · u8 version · u8 kind · body
     kind 1   hello       (client→server; empty body)
     kind 2   hello-ack   (server→client; varint max_frame)
     kind 3   run-program id · u8 flags · [varint deadline_ms]
                          · varint retry · lpstr mode_id
                          · lpstr options_json · lpstr program
     kind 4   run-trace   id · u8 flags · [varint deadline_ms]
                          · varint retry · lpbytes trace
     kind 5   stats       id
     kind 6   ping        id
     kind 7   ok          id · u8 body_kind
                          body 0: pong (empty)
                          body 1: lpstr result_json · u8 has_cache
                                  · [lpstr cache_json] · u8 has_trace
                                  · [lpbytes trace]
                          body 2: lpstr stats_json
     kind 8   error       id · lpstr code · lpstr message

   flags: bit 0 = record, bit 1 = deadline_ms follows.  Request ids are
   arbitrary JSON values in the JSON wire, so they travel as their JSON
   text ("" encodes null).  Detection results stay JSON {e inside} the
   binary envelope: the result document is the cross-wire identity
   anchor ([arde run --format json] must agree byte-for-byte), and what
   the binary wire actually buys is raw traces and programs — the bulk
   payloads — riding without base64 or JSON-string escaping. *)

module Tc = Arde.Trace_codec

let bsink kind =
  let s = Tc.sink ~capacity:256 () in
  Tc.put_u8 s binary_magic;
  Tc.put_u8 s binary_version;
  Tc.put_u8 s kind;
  s

let put_id s (id : J.t) =
  Tc.put_lpstr s (match id with J.Null -> "" | j -> J.to_string j)

let get_id r =
  match Tc.get_lpstr r "request id" with
  | "" -> J.Null
  | txt -> (
      match J.parse txt with
      | Ok j -> j
      | Error _ ->
          raise
            (Tc.Err
               (Tc.Corrupt
                  { at = Tc.reader_pos r; what = "id is not a JSON value" })))

let put_run_common s ~id ~deadline_ms ~retry ~record =
  put_id s id;
  let flags =
    (if record then 1 else 0)
    lor match deadline_ms with Some _ -> 2 | None -> 0
  in
  Tc.put_u8 s flags;
  (match deadline_ms with Some d -> Tc.put_varint s d | None -> ());
  Tc.put_varint s (match retry with Some n when n > 0 -> n | _ -> 0)

let binary_run_request ?(id = J.Null) ?deadline_ms ?retry ?(record = false)
    ~program ~mode ~options () =
  let s = bsink 3 in
  put_run_common s ~id ~deadline_ms ~retry ~record;
  Tc.put_lpstr s (Arde.Config.mode_id mode);
  Tc.put_lpstr s (J.to_string (Arde.Options.to_json options));
  Tc.put_lpstr s program;
  Tc.sink_contents s

let binary_replay_request ?(id = J.Null) ?deadline_ms ?retry ~trace () =
  let s = bsink 4 in
  put_run_common s ~id ~deadline_ms ~retry ~record:false;
  Tc.put_lpstr s trace;
  Tc.sink_contents s

let binary_stats_request ?(id = J.Null) () =
  let s = bsink 5 in
  put_id s id;
  Tc.sink_contents s

let binary_ping_request ?(id = J.Null) () =
  let s = bsink 6 in
  put_id s id;
  Tc.sink_contents s

let binary_hello () = Tc.sink_contents (bsink 1)

let binary_hello_ack ~max_frame =
  let s = bsink 2 in
  Tc.put_varint s max_frame;
  Tc.sink_contents s

(* Decoding.  A reader positioned after the magic byte; every structural
   failure is a [Bad_frame] naming the offending piece, mirroring the
   JSON parser's error triple so callers need not care which wire the
   garbage arrived on. *)

let binary_envelope payload =
  let r = Tc.reader ~off:1 payload in
  let v = Tc.get_u8 r "wire version" in
  if v <> binary_version then
    raise
      (Tc.Err
         (Tc.Corrupt
            {
              at = 1;
              what = Printf.sprintf "unsupported binary wire version %d" v;
            }));
  (r, Tc.get_u8 r "message kind")

let reject_trailing r =
  if Tc.reader_left r <> 0 then
    raise
      (Tc.Err
         (Tc.Corrupt
            { at = Tc.reader_pos r; what = "trailing bytes after message" }))

let get_run_common r =
  let id = get_id r in
  let flags = Tc.get_u8 r "run flags" in
  let deadline_ms =
    if flags land 2 <> 0 then Some (Tc.get_varint r "deadline_ms") else None
  in
  let retry = Tc.get_varint r "retry" in
  (id, flags, deadline_ms, retry)

let parse_binary_request payload =
  match
    let r, kind = binary_envelope payload in
    match kind with
    | 1 ->
        reject_trailing r;
        Ok Hello
    | 5 ->
        let id = get_id r in
        reject_trailing r;
        Ok (Stats id)
    | 6 ->
        let id = get_id r in
        reject_trailing r;
        Ok (Ping id)
    | 3 ->
        let id, flags, rq_deadline_ms, rq_retry = get_run_common r in
        let mode_s = Tc.get_lpstr r "mode" in
        let options_s = Tc.get_lpstr r "options" in
        let rp_program = Tc.get_lpbytes r "program" in
        reject_trailing r;
        let ( let* ) = Result.bind in
        let* () =
          match rq_deadline_ms with
          | Some ms when ms <= 0 ->
              Error (id, Bad_request, "deadline_ms must be a positive integer")
          | _ -> Ok ()
        in
        let* rp_mode =
          Result.map_error
            (fun e -> (id, Bad_request, e))
            (Arde.Config.parse_mode mode_s)
        in
        let* rp_options =
          match J.parse options_s with
          | Error e -> Error (id, Bad_request, "options: " ^ e)
          | Ok o ->
              Result.map_error
                (fun e -> (id, Bad_request, "options: " ^ e))
                (Arde.Options.of_json o)
        in
        Ok
          (Run
             {
               rq_id = id;
               rq_payload =
                 Rq_program
                   { rp_program; rp_mode; rp_options; rp_record = flags land 1 <> 0 };
               rq_deadline_ms;
               rq_retry;
             })
    | 4 ->
        let id, _flags, rq_deadline_ms, rq_retry = get_run_common r in
        let trace = Tc.get_lpbytes r "trace" in
        reject_trailing r;
        if match rq_deadline_ms with Some ms -> ms <= 0 | None -> false then
          Error (id, Bad_request, "deadline_ms must be a positive integer")
        else
          Ok (Run { rq_id = id; rq_payload = Rq_trace trace; rq_deadline_ms; rq_retry })
    | k ->
        Error
          (J.Null, Bad_request, Printf.sprintf "unknown binary request kind %d" k)
  with
  | r -> r
  | exception Tc.Err e ->
      Error (J.Null, Bad_frame, "binary request: " ^ Tc.error_to_string e)

let parse_request payload =
  match payload_wire payload with
  | Binary -> parse_binary_request payload
  | Json -> parse_json_request payload

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

(* Binary responses.  Encoders take the canonical JSON response object —
   every response producer already builds one — and re-package it, so
   the two wires cannot drift: there is exactly one place deciding what
   a response {e means}.  [raw_trace] short-circuits the base64 decode
   when the producer still holds the raw bytes (the record-mode worker). *)

let binary_error_fields ~id ~code ~msg =
  let s = bsink 8 in
  put_id s id;
  Tc.put_lpstr s code;
  Tc.put_lpstr s msg;
  Tc.sink_contents s

let binary_response ?raw_trace resp =
  let id = Option.value (J.member "id" resp) ~default:J.Null in
  match response_error resp with
  | Some (code, msg) -> binary_error_fields ~id ~code ~msg
  | None -> (
      let s = bsink 7 in
      put_id s id;
      match J.member "result" resp with
      | Some result ->
          Tc.put_u8 s 1;
          Tc.put_lpstr s (J.to_string result);
          (match J.member "analysis_cache" resp with
          | Some c ->
              Tc.put_u8 s 1;
              Tc.put_lpstr s (J.to_string c)
          | None -> Tc.put_u8 s 0);
          let trace =
            match raw_trace with
            | Some _ as t -> t
            | None -> (
                match J.member "trace" resp with
                | Some (J.String b64) -> (
                    match Arde.Base64.decode b64 with
                    | Ok raw -> Some raw
                    | Error _ -> None)
                | _ -> None)
          in
          (match trace with
          | Some raw ->
              Tc.put_u8 s 1;
              Tc.put_lpstr s raw
          | None -> Tc.put_u8 s 0);
          Tc.sink_contents s
      | None -> (
          match J.member "stats" resp with
          | Some stats ->
              Tc.put_u8 s 2;
              Tc.put_lpstr s (J.to_string stats);
              Tc.sink_contents s
          | None ->
              Tc.put_u8 s 0;
              Tc.sink_contents s))

let encode_response ?raw_trace ~wire resp =
  match wire with
  | Json -> J.to_string resp
  | Binary -> binary_response ?raw_trace resp

(* The client-side inverse: rebuild the canonical JSON response object,
   so everything downstream of [recv] — retry classification,
   [run_output], byte-identity with [arde run] — is wire-blind.  A
   recovered trace is re-encoded base64 to keep the object shape
   identical to the JSON wire's. *)

let response_of_binary payload =
  let parse_field what txt =
    match J.parse txt with
    | Ok j -> j
    | Error e ->
        raise (Tc.Err (Tc.Corrupt { at = 0; what = what ^ ": " ^ e }))
  in
  match
    let r, kind = binary_envelope payload in
    match kind with
    | 7 -> (
        let id = get_id r in
        match Tc.get_u8 r "ok body kind" with
        | 0 ->
            reject_trailing r;
            Ok (ok_response ~id [ ("pong", J.Bool true) ])
        | 1 ->
            let result = parse_field "result" (Tc.get_lpbytes r "result") in
            let cache =
              if Tc.get_u8 r "cache flag" <> 0 then
                [ ( "analysis_cache",
                    parse_field "analysis_cache"
                      (Tc.get_lpstr r "analysis_cache") ) ]
              else []
            in
            let trace =
              if Tc.get_u8 r "trace flag" <> 0 then
                [ ( "trace",
                    J.String (Arde.Base64.encode (Tc.get_lpbytes r "trace")) )
                ]
              else []
            in
            reject_trailing r;
            Ok (ok_response ~id ([ ("result", result) ] @ cache @ trace))
        | 2 ->
            let stats = parse_field "stats" (Tc.get_lpstr r "stats") in
            reject_trailing r;
            Ok (ok_response ~id [ ("stats", stats) ])
        | k -> Error (Printf.sprintf "unknown ok body kind %d" k))
    | 8 ->
        let id = get_id r in
        let code = Tc.get_lpstr r "error code" in
        let msg = Tc.get_lpstr r "error message" in
        reject_trailing r;
        Ok
          (J.Obj
             [
               ("type", J.String "response");
               ("id", id);
               ("ok", J.Bool false);
               ( "error",
                 J.Obj
                   [ ("code", J.String code); ("message", J.String msg) ] );
             ])
    | k -> Error (Printf.sprintf "unexpected binary response kind %d" k)
  with
  | r -> r
  | exception Tc.Err e -> Error ("binary response: " ^ Tc.error_to_string e)

let parse_hello_ack payload =
  match
    let r, kind = binary_envelope payload in
    if kind <> 2 then
      Error (Printf.sprintf "expected hello-ack, got message kind %d" kind)
    else begin
      let max_frame = Tc.get_varint r "max_frame" in
      reject_trailing r;
      if max_frame <= 0 then Error "hello-ack with a non-positive max_frame"
      else Ok max_frame
    end
  with
  | r -> r
  | exception Tc.Err e -> Error ("hello-ack: " ^ Tc.error_to_string e)

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
