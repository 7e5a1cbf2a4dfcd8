(** The worker-process half of the crash-only serving stack.

    A worker executes one run request at a time: it reads [job] frames
    from its stdin, journals each request to the {!Spool} before
    touching it, runs the detection pipeline with a process-local
    program cache and domain pool, and writes [done] frames back on the
    same fd — stdin is the supervisor's socketpair end and carries
    frames in both directions.  Stdout is deliberately {e not} part of
    the protocol (host binaries may link libraries that print there
    before {!hook} runs); the supervisor points it at stderr.  Stdin
    EOF is the drain signal, SIGKILL the crash-class one.

    {2 Why exec, not fork}

    OCaml 5 forbids [Unix.fork] in any process that has ever created a
    domain — and both detection and the test harness create domains
    freely.  So workers are launched by re-executing the {e host
    binary} with the marker ["__arde-serve-worker__"] as [argv.(1)]: every executable that may
    host a supervisor (the CLI and the test runner) calls
    {!hook} as the very first thing in [main], and an invocation
    carrying the marker becomes a worker and never returns. *)

val hook : unit -> unit
(** Call first in every [main] of a binary that may host a supervisor.
    No-op unless [Sys.argv.(1)] is the marker; otherwise runs the worker
    loop on stdin/stdout and [exit]s (0 after a clean drain, 64-70 on
    startup or protocol failures). *)

(** {2 Parsed-program table}

    Each worker keeps the programs it has parsed, keyed by the digest of
    the request text, so a repeat submission skips parsing.  The table
    is bounded: past {!max_programs} distinct programs the oldest is
    evicted. *)

type programs

val max_programs : int
(** 128. *)

val programs : unit -> programs
(** An empty table. *)

val lookup_program :
  programs -> digest:string -> string -> (Arde.Types.program, string) result
(** The program [text] parses to, from the table when [digest] (which
    must identify [text]) is resident; otherwise parse and validate it,
    and keep it if valid.  [Error] carries the parse or validation
    message. *)

val resident : programs -> digest:string -> bool

val worker_args :
  spool:string ->
  index:int ->
  jobs:int ->
  max_frame:int ->
  chaos_plan:string ->
  string array
(** The argv tail (starting with the marker) the supervisor passes to
    [Unix.create_process] when spawning worker [index]. *)

(** {2 Crash-bundle replay} *)

type replay = {
  source : string;
      (** What the detection re-ran from: ["sealed-trace"] (the trace a
          record-mode request left before dying), ["request-trace"] (a
          replay request's own trace) or ["program"]. *)
  response : Arde.Json.t;
      (** The response the crashed worker would have produced. *)
}

val replay :
  ?jobs:int -> ?warn:(string -> unit) -> Arde.Json.t -> (replay, string) result
(** Replay a {!Spool.load}ed crash bundle: parse its journaled request
    with [Protocol.parse_request] and run it through the worker's own
    request executor, on a fresh pool of [jobs] domains (default [0]:
    one per core) and with the digest the worker was handed.  A sealed trace
    stands in for a record-mode request's recording pass, so the
    detection the worker died in is replayed without re-executing the
    machine; a trace that does not decode, or that sits beside a
    request that is not record-mode, is reported to [warn] and ignored.
    [Error] when the bundle has no request, or its request does not
    parse or is not a run request; a request the worker would have
    refused (a program that does not parse, say) replays to that error
    response. *)
