(** The serve wire protocol: framing, request/response schemas, and the
    shared one-shot output shape.

    Every message on the socket — in either direction — is one {e frame}:
    a 4-byte big-endian payload length followed by that many bytes of
    minified UTF-8 JSON.  Frames never interleave (each side serializes
    writes per connection), so a reader only needs this module's
    incremental {!decoder} to recover message boundaries from arbitrary
    read chunks.

    The JSON schemas are documented in DESIGN.md §6; this interface is
    the single source of truth for building and parsing them, used by
    the server, the client library, the CLI and the load benchmark —
    byte-identical output between [arde run] and [arde submit] falls out
    of both paths calling {!run_output}. *)

(** {1 Framing} *)

val default_max_frame : int
(** 8 MiB — far above any response the repository's workloads produce. *)

val frame : string -> string
(** [frame payload] is the length header followed by [payload]. *)

type decoder
(** Incremental frame reassembly over a byte stream. *)

val decoder : ?max_frame:int -> unit -> decoder

type frame_result =
  | Frame of string  (** one complete payload, removed from the buffer *)
  | Await  (** need more bytes *)
  | Too_large of int
      (** the header announced this many bytes, beyond [max_frame] — the
          stream is poisoned and the connection should be dropped *)

val feed : decoder -> Bytes.t -> int -> int -> unit
(** [feed d buf off len] appends a read chunk. *)

val next_frame : decoder -> frame_result
(** Call repeatedly after {!feed} until it returns [Await]. *)

val decoder_pending : decoder -> int
(** Bytes buffered but not yet returned as a frame — nonzero at stream
    EOF means the peer died mid-frame (a torn reply). *)

(** {1 Error codes}

    Structured failure vocabulary carried in error responses. *)

type error_code =
  | Bad_frame  (** payload is not valid JSON (or violates parser limits) *)
  | Bad_request
      (** valid JSON, unusable content: unknown type, missing or
          ill-typed field, unparsable mode/options/program *)
  | Overloaded  (** admission control: the pending queue is full *)
  | Draining  (** the server is shutting down and refuses new work *)
  | Internal  (** unexpected server-side exception *)
  | Worker_crashed
      (** the worker process executing (or destined to execute) this
          request died — crash, watchdog kill, or torn reply; the
          request itself may be fine and is safe to retry *)
  | Deadline_expired
      (** the request's deadline elapsed while it was still queued, so
          no detection work was started *)

val code_name : error_code -> string
(** ["bad_frame"], ["bad_request"], ["overloaded"], ["draining"],
    ["internal"], ["worker_crashed"], ["deadline_expired"]. *)

val retryable_code : string -> bool
(** The client retry policy's allow-list: [true] only for
    ["worker_crashed"] and ["draining"] (connection-refused transport
    errors are classified by the client itself). *)

(** {1 Requests} *)

(** What a run request asks a worker to do.  [Rq_program] is the live
    path: canonical TIR text ([Pretty.program_to_string]) plus mode and
    knobs.  [Rq_trace] is the
    replay-farm path: a complete {!Arde.Trace_codec} trace (raw bytes
    here; base64 on the wire), replayed through a fresh engine without
    re-executing the machine — mode and options come from the trace
    header. *)
type program_request = {
  rp_program : string;
  rp_mode : Arde.Config.mode;
  rp_options : Arde.Options.t;
}

type run_payload = Rq_program of program_request | Rq_trace of string

type run_request = {
  rq_id : Arde.Json.t;  (** echoed verbatim in the response; [Null] if absent *)
  rq_payload : run_payload;
  rq_deadline_ms : int option;
      (** wall-clock budget for the detection run; on expiry remaining
          seeds are cancelled cooperatively (the response still carries
          every completed seed's findings) *)
  rq_retry : int;
      (** which resend of an earlier attempt this is; [0] on the first
          send — feeds the server's [retries] counter *)
}

type request =
  | Run of run_request
  | Stats of Arde.Json.t  (** id *)
  | Ping of Arde.Json.t  (** id *)

val run_request_json :
  ?id:Arde.Json.t ->
  ?deadline_ms:int ->
  ?retry:int ->
  program:string ->
  mode:Arde.Config.mode ->
  options:Arde.Options.t ->
  unit ->
  Arde.Json.t
(** [retry] (when [> 0]) marks the request as the [n]-th resend of an
    earlier attempt, feeding the server's [retries] counter. *)

val replay_request_json :
  ?id:Arde.Json.t ->
  ?deadline_ms:int ->
  ?retry:int ->
  trace:string ->
  unit ->
  Arde.Json.t
(** A run request carrying a recorded binary trace ([trace] is the raw
    bytes; this function base64-encodes them).  The server routes it by
    the program digest in the trace header and the worker replays
    detection without executing the machine. *)

val stats_request : ?id:Arde.Json.t -> unit -> Arde.Json.t
val ping_request : ?id:Arde.Json.t -> unit -> Arde.Json.t

val parse_request :
  string -> (request, Arde.Json.t * error_code * string) result
(** Parse one frame payload.  The error carries the request id when one
    could be recovered ([Null] otherwise), so the server can still
    correlate the error response.  Invalid JSON (or JSON beyond the
    parser's limits) is [Bad_frame]; everything else wrong is
    [Bad_request], including a run request carrying a ["record"] field
    (the server does not record: [arde record] does, and the trace is
    submitted as a replay request). *)

(** {1 Responses} *)

val ok_response : id:Arde.Json.t -> (string * Arde.Json.t) list -> Arde.Json.t
(** [{"type":"response","id":id,"ok":true, ...fields}]. *)

val error_response : id:Arde.Json.t -> error_code -> string -> Arde.Json.t
(** [{"type":"response","id":id,"ok":false,
      "error":{"code":code,"message":msg}}]. *)

val response_ok : Arde.Json.t -> bool

val response_error : Arde.Json.t -> (string * string) option
(** [(code, message)] when the response is an error. *)

type wire = Json
(** Responses have a single encoding, minified JSON.  The type and the
    [~wire] label of {!encode_response} stay only so that callers written
    against the former two-wire interface ([perfbench/traced.ml]'s
    traced rebuild) keep compiling. *)

val encode_response : wire:wire -> Arde.Json.t -> string
(** [Arde.Json.to_string]: the frame payload for a response. *)

(** {1 The supervisor <-> worker wire}

    Worker processes speak the same frame codec over a socketpair held
    by the supervisor.  Request and response bodies cross this hop as
    {e raw bytes}: a [job] header frame is followed by one frame holding
    the client's request verbatim (the worker journals exactly those
    bytes to the spool, which is what makes crash bundles replayable
    with the production request parser), and a [done] header frame is
    followed by one frame of response bytes the supervisor forwards
    untouched.  The hop re-serializes nothing, but it does not spare a
    parse: the supervisor parses every client frame once, to route it
    and answer what needs no worker, and the worker parses the forwarded
    request again (DESIGN.md §6c). *)

val hello_frame : worker:int -> pid:int -> Arde.Json.t
(** Sent once by a worker when it is ready to execute (domain pool
    built, spool reachable). *)

val job_frame : job:int -> digest:string -> Arde.Json.t
(** The header announcing job [job]; the supervisor sends the raw
    request bytes in the very next frame.  [digest] is the hex digest of
    the request's program text — the supervisor already computed it for
    affinity routing, so the worker need not digest the program again. *)

val done_frame :
  job:int ->
  spool_error:bool ->
  code:string ->
  unit ->
  Arde.Json.t
(** The header completing job [job], carrying the response's outcome
    [code] (["ok"] or an error code) for the supervisor's counters; the
    worker sends the raw response bytes in the very next frame. *)

type worker_msg =
  | W_hello of int  (** the worker's pid *)
  | W_done of {
      wd_job : int;
      wd_spool_error : bool;
      wd_code : string;
    }
      (** the response bytes follow in the next frame, verbatim *)

val parse_worker_msg : string -> (worker_msg, string) result

val parse_job : string -> (int * string, string) result
(** The job id and program digest of a [job] header frame; the request
    bytes follow in the next frame. *)

(** {1 The shared one-shot output shape}

    [arde run --format json] and [arde submit] both emit this object;
    building it from the {e serialized} result (rather than the in-memory
    record) is what makes the two paths byte-identical by construction.

    Fields, in order: ["workload"], ["result"], ["verdict"] (labelled
    cases only), ["analysis_cache"] (when given), ["exit_code"]. *)

val run_output :
  workload:string ->
  ?expectation:Arde.Classify.expectation ->
  ?analysis_cache:Arde.Json.t ->
  Arde.Json.t ->
  (Arde.Json.t * int, string) result
(** [run_output ~workload result_json] recomputes the verdict and exit
    code (0 clean, 1 races, 2 degraded, 3 failed) from the result's own
    serialized report and health, and returns the printable object
    together with the exit code.  Errors only on a result that does not
    follow [Driver.result_to_json]'s schema. *)
