(** Blocking client for the serve socket — the library behind
    [arde submit], the protocol tests and the load benchmark.

    One {!t} is one connection; it is not domain-safe (give each
    concurrent client its own connection, as the benchmark does).
    Request helpers send one frame and block until the matching response
    frame arrives; servers answer a connection's requests in submission
    order for run requests, while ping/stats/admission errors may
    overtake queued runs (they are answered by the connection loop
    directly). *)

type t

type endpoint = Unix_socket of string | Tcp of string * int
    (** Where the daemon listens.  [Tcp ("", port)] and
        [Tcp ("localhost", port)] mean loopback; other hosts resolve as
        numeric addresses first, then through the resolver.  Both
        endpoints speak the identical frame protocol. *)

val parse_tcp_endpoint : string -> (endpoint, string) result
(** ["HOST:PORT"] (host optional: [":4817"] and ["4817"] mean loopback)
    to a [Tcp] endpoint — the parser behind [--connect]. *)

val connect :
  ?max_frame:int ->
  endpoint:endpoint ->
  unit ->
  (t, string) result
(** [max_frame] (default {!Protocol.default_max_frame}) bounds response
    frames — mirror the server's [--max-frame-mb] here when talking to a
    server with a raised cap.  TCP connections set [TCP_NODELAY] — the
    protocol is request/response over small frames, which Nagle serves
    terribly. *)

val close : t -> unit
(** Idempotent. *)

val request : t -> Arde.Json.t -> (Arde.Json.t, string) result
(** Send one JSON request frame, wait for one response frame.  [Error]
    on transport failure (refused connection, mid-response disconnect,
    unparsable response). *)

val run :
  t ->
  ?id:Arde.Json.t ->
  ?deadline_ms:int ->
  ?retry:int ->
  ?record:bool ->
  program:string ->
  mode:Arde.Config.mode ->
  options:Arde.Options.t ->
  unit ->
  (Arde.Json.t, string) result
(** Submit a detection run; returns the whole response object (check
    {!Protocol.response_ok} / {!Protocol.response_error}, extract
    ["result"] and ["analysis_cache"] on success).  [retry] marks a
    resend (see {!Protocol.run_request_json}); [record] asks for the
    binary trace back in the response's ["trace"] field (base64). *)

val replay :
  t ->
  ?id:Arde.Json.t ->
  ?deadline_ms:int ->
  ?retry:int ->
  trace:string ->
  unit ->
  (Arde.Json.t, string) result
(** Submit a recorded binary trace ([trace] is the raw bytes) for
    server-side replay; the response has the same shape as {!run}'s. *)

val stats : t -> (Arde.Json.t, string) result
val ping : t -> (Arde.Json.t, string) result

(** {1 Retry policy}

    Bounded exponential backoff with deterministic jitter, retrying only
    failures that are provably idempotent-safe — the request never
    started executing: a refused or missing socket (connection-level
    failure), a structured [draining] refusal, or a [worker_crashed]
    error (the run died; detection is pure, so re-running is safe).
    [overloaded] is deliberately {e not} retried: it is the server
    asking for less traffic, and hammering it defeats admission
    control.  Transport failures {e after} the request was sent are
    surfaced, not retried. *)

type retry_policy = {
  rp_attempts : int;  (** retries after the first attempt; 0 = one shot *)
  rp_backoff_ms : int;  (** first delay; doubles per retry *)
  rp_max_backoff_ms : int;
  rp_jitter_seed : int;
      (** seeds the jitter {!Arde.Prng} — equal seeds give reproducible
          schedules *)
  rp_sleep : float -> unit;  (** injectable for tests *)
}

val no_retry : retry_policy

val retry_policy :
  ?attempts:int ->
  ?backoff_ms:int ->
  ?max_backoff_ms:int ->
  ?jitter_seed:int ->
  ?sleep:(float -> unit) ->
  unit ->
  retry_policy
(** Defaults: [attempts = 0], [backoff_ms = 50], [max_backoff_ms =
    2_000], [jitter_seed = 0], [sleep = Util.sleepf].  Each delay is the
    doubled-and-capped base scaled by a jitter factor in [\[0.5, 1.5)]. *)

val submit_with_retry :
  endpoint:endpoint ->
  policy:retry_policy ->
  ?max_frame:int ->
  ?id:Arde.Json.t ->
  ?deadline_ms:int ->
  ?record:bool ->
  program:string ->
  mode:Arde.Config.mode ->
  options:Arde.Options.t ->
  unit ->
  (Arde.Json.t, string) result * int
(** Run one request under the policy, opening a fresh connection per
    attempt and marking resends with the request's [retry] field.  Returns
    the final outcome (the last retryable failure verbatim when the
    budget runs out — a completed response's own exit semantics are
    never masked) and the number of retries actually performed. *)

val submit_trace_with_retry :
  endpoint:endpoint ->
  policy:retry_policy ->
  ?max_frame:int ->
  ?id:Arde.Json.t ->
  ?deadline_ms:int ->
  trace:string ->
  unit ->
  (Arde.Json.t, string) result * int
(** {!submit_with_retry} for a recorded trace: replay is pure, so the
    same idempotent-safe retry policy applies verbatim. *)

(** {1 Low-level access} (protocol tests) *)

val send_raw : t -> string -> (unit, string) result
(** Write raw bytes with {e no} framing — for feeding the server
    malformed input. *)

val send_frame : t -> string -> (unit, string) result
(** Frame and send a payload without waiting for a response. *)

val recv : t -> (Arde.Json.t, string) result
(** Read frames until one complete response arrives and parse it. *)
