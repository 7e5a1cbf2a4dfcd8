(** The crash-only detection daemon behind [arde serve].

    The process that binds the socket is a {e supervisor}: it owns no
    domain pool and runs no detection.  It forks out (via re-exec — see
    {!Worker}) [workers] worker processes, each with its own resident
    {!Arde.Domain_pool.pool}, program cache and analysis cache, bridged
    over a socketpair.  Run requests are routed by program-digest
    affinity so repeat submissions keep hitting the worker whose caches
    are already warm; each worker executes one request at a time.

    Crash-only means worker death is a handled input, not a failure
    mode: the request a dead worker was executing is answered with a
    structured [worker_crashed] error (never a dropped connection), its
    journaled request is sealed into a durable, replayable crash bundle
    (see {!Spool} and [arde postmortem]), its queued work is re-routed,
    and the slot restarts under exponential backoff with a restart-storm
    circuit breaker.  A watchdog SIGKILLs workers that overrun their
    request deadline (plus grace) or the idle watchdog bound.

    Threading: the supervisor is one domain-free thread around
    [Unix.select] — it must stay domain-free because OCaml 5 processes
    that created domains cannot spawn children cheaply, and because a
    single-owner loop needs no locks.  All writes go through
    non-blocking {!Util.outbuf}s so a slow client or wedged worker can
    never stall the loop.

    Shutdown: {!initiate_drain} (async-signal-safe; {!handle_signals}
    wires it to SIGTERM and SIGINT) refuses new work with structured
    [draining] errors, lets queued and in-flight requests finish,
    flushes responses, then closes every worker's pipe (their drain
    signal) and reaps them, SIGKILLing stragglers after a grace
    period. *)

type config = {
  socket_path : string;
  tcp : (string * int) option;
      (** also listen on this TCP endpoint, sharing the frame and protocol
          code with the Unix socket; port [0] binds an ephemeral port
          (see {!tcp_endpoint}) *)
  workers : int;  (** worker processes; [<= 0] means 2 *)
  max_pending : int;  (** global admission bound on queued requests *)
  max_frame : int;  (** per-connection inbound frame size limit *)
  jobs : int;  (** per-worker pool width; [<= 0] means host core count *)
  default_deadline_ms : int option;
      (** applied to requests that carry no [deadline_ms] of their own *)
  watchdog_ms : int;
      (** kill bound for requests with no effective deadline; a request
          with one is killed 2 s past it, slack that covers the worker's
          own cooperative-cancellation latency *)
  restart_backoff_ms : int;
      (** first respawn delay; doubles per crash, up to 5 s *)
  breaker_threshold : int;
      (** crashes within the window that open a slot's circuit *)
  breaker_window_s : float;  (** storm window, and the cooldown *)
  spool_dir : string option;  (** default: [socket_path ^ ".spool"] *)
  chaos_plan : string;
      (** fault plan forwarded to workers (see {!Arde.Chaos.Serve});
          [""] means none *)
  log : string -> unit;  (** server-side event log (pass [ignore] to mute) *)
}

val config :
  ?tcp:string * int ->
  ?workers:int ->
  ?max_pending:int ->
  ?max_frame:int ->
  ?jobs:int ->
  ?default_deadline_ms:int ->
  ?watchdog_ms:int ->
  ?restart_backoff_ms:int ->
  ?breaker_threshold:int ->
  ?breaker_window_s:float ->
  ?spool_dir:string ->
  ?chaos_plan:string ->
  ?log:(string -> unit) ->
  socket_path:string ->
  unit ->
  config
(** Defaults: no TCP listener, [workers = 2], [max_pending = 64],
    [max_frame = Protocol.default_max_frame], [jobs = 0], no default
    deadline, [watchdog_ms = 120_000], [restart_backoff_ms = 100],
    [breaker_threshold = 5], [breaker_window_s = 10.], mute log. *)

type t

val create : config -> (t, string) result
(** Bind the socket (replacing a stale one left by a dead server),
    create the spool directories, validate the chaos plan, and spawn the
    worker processes.  [Error] if the path is in use by a live server,
    cannot be bound, the spool is unwritable, or the plan is
    malformed. *)

val tcp_endpoint : t -> (string * int) option
(** The TCP address actually bound, once {!create} succeeds — useful
    when the config asked for port [0] (ephemeral).  [None] when no TCP
    listener was configured. *)

val run : t -> unit
(** The supervisor loop.  Blocks until a drain completes, then flushes
    pending responses, closes every connection, shuts the workers down
    and unlinks the socket. *)

val initiate_drain : t -> unit
(** Request a graceful drain.  Async-signal-safe and idempotent: sets a
    flag and pokes the loop's wake-up pipe; the loop does the rest. *)

val handle_signals : t -> unit
(** Route SIGTERM and SIGINT to {!initiate_drain} and ignore SIGPIPE
    (disconnecting clients must not kill the server). *)
