(** The on-disk request spool and crash-bundle store.

    Before a worker executes a run request it journals the request to
    [SPOOL/worker-N.journal.json] via write-tmp-then-rename — one JSON
    header line of identity metadata, then the exact request payload bytes
    (journaling is on the per-request hot path, so the request is never
    re-serialized) — and removes the journal after responding.  When the supervisor reaps a
    crashed or watchdog-killed worker it {!seal}s the surviving journal
    into [SPOOL/bundles/crash-*.json]: a durable, self-contained record
    of exactly what the worker was executing, replayable offline with
    [arde postmortem].

    Journal writes are best-effort by design (crash-only thinking: the
    request must be served even when the disk is full); a failed write
    is reported to the supervisor as a counter, never as a request
    error. *)

type t

val create : root:string -> (t, string) result
(** Create (or adopt) a spool rooted at [root]; makes [root] and
    [root/bundles]. *)

val root : t -> string

val journal :
  t ->
  worker:int ->
  pid:int ->
  digest:string ->
  request:string ->
  (unit, string) result
(** Durably record that worker [worker] is about to execute [request] —
    the client's raw run-request bytes, written verbatim, so a replay
    re-parses exactly what arrived with the production parser. *)

val journal_trace : t -> worker:int -> trace:string -> (unit, string) result
(** Record the binary trace of the request the worker is executing,
    alongside its journal.  Written by the worker between the cheap
    recording pass and the expensive detection pass of a record-mode
    request: if the worker dies during detection (a watchdog kill, a
    crash), {!seal} folds the trace into the bundle and [arde
    postmortem] replays detection from it instead of re-executing. *)

val clear : t -> worker:int -> unit
(** Remove the worker's journal and trace (request completed normally). *)

val seal : t -> worker:int -> reason:string -> (string option, string) result
(** Turn the worker's in-flight journal, if any, into a durable crash
    bundle tagged with [reason]; returns the bundle path.  [Ok None]
    when the worker had nothing journaled (it crashed between requests,
    or never got to journal). *)

val bundles : t -> string list
(** Bundle paths, oldest first. *)

val load : string -> (Arde.Json.t, string) result
(** Load and schema-check a crash bundle. *)
