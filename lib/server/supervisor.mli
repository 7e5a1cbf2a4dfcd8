(** Worker-process lifecycle for the crash-only server.

    The supervisor side of the serve stack owns N worker processes
    (spawned by re-executing the host binary — see {!Worker}), each
    bridged over a socketpair on the worker's stdin/stdout.  This module
    is deliberately policy-only and select-free: the {!Server} event
    loop tells it when fds are readable, asks it who is due for a
    watchdog kill or a respawn, and it answers with plain data.  It
    never blocks (apart from {!shutdown}) and never creates domains, so
    it is safe to drive from the single supervisor thread that
    [Unix.create_process] requires.

    Lifecycle of one slot:
    {v
      spawn -> Starting --hello--> Live --death--> Down --backoff--> spawn
                                         (storm)   Broken --cooldown--> spawn
    v}

    Deaths are crash-class (anything but a clean [exit 0] during drain):
    they seal the worker's in-flight spool journal into a durable crash
    bundle, count toward the slot's restart-storm window, and schedule a
    respawn under exponential backoff.  Too many crashes inside the
    window open the slot's circuit ([Broken]): no respawn and no new
    queued work until the cooldown elapses, after which one half-open
    probe spawn is attempted. *)

type knobs = {
  k_spool_root : string;
  k_jobs : int;  (** per-worker domain-pool width *)
  k_max_frame : int;
  k_chaos_plan : string;  (** forwarded verbatim to workers *)
  k_restart_backoff_ms : int;
      (** first respawn delay; doubles per crash, up to 5 s *)
  k_breaker_threshold : int;  (** crashes within the window that open it *)
  k_breaker_window_s : float;  (** both storm window and cooldown *)
  k_log : string -> unit;
}

type wstate = Starting | Live | Down | Broken

type wproc = {
  w_index : int;
  mutable w_pid : int;  (** [-1] when not running *)
  mutable w_fd : Unix.file_descr option;
      (** parent end of the socketpair; nonblocking, cloexec *)
  mutable w_dec : Protocol.decoder;
  mutable w_out : Util.outbuf;
  mutable w_state : wstate;
  mutable w_restarts : int;
  mutable w_crashes : int;
  mutable w_served : int;
  mutable w_last_crash : string option;
  mutable w_recent : float list;
  mutable w_backoff_ms : int;
  mutable w_retry_at : float;
  mutable w_kill_by : float;
  mutable w_pending_reason : string option;
}

type death = {
  d_index : int;
  d_reason : string;
  d_crash : bool;  (** [false] only for a clean exit during drain *)
  d_bundle : string option;  (** sealed crash-bundle path, if any *)
}

type t

val create : knobs:knobs -> spool:Spool.t -> workers:int -> t
(** Spawn all workers (at least one).
    @raise Unix.Unix_error if the very first spawns fail outright. *)

val worker : t -> int -> wproc
val n_workers : t -> int
val spool : t -> Spool.t

val is_live : t -> int -> bool

val route : t -> preferred:int -> int option
(** Slot selection with digest affinity: the preferred slot unless its
    circuit is open (a dead-but-restarting slot still keeps its queue);
    [None] only when every slot is [Broken]. *)

val note_hello : t -> int -> unit
(** The worker's ready frame arrived: mark [Live], reset its backoff. *)

val note_dispatch : t -> int -> kill_by:float -> unit
(** A job was handed to the slot; the watchdog fires at [kill_by]. *)

val note_done : t -> int -> unit

val send_to_worker : t -> int -> string -> unit
(** Frame and enqueue a payload on the worker's outbuf, flushing what
    the socket accepts.  Peer-gone errors are swallowed — the reaper
    owns death handling. *)

val due_watchdog : t -> now:float -> int list
val kill_watchdog : t -> int -> unit
(** SIGKILL a wedged worker; the death surfaces via {!reap} with reason
    ["watchdog"]. *)

val reap : t -> now:float -> draining:bool -> death list
(** Collect exited workers ([waitpid WNOHANG]): close their fds, seal
    crash bundles, apply backoff/breaker restart policy.  Call once per
    loop iteration after servicing readable fds. *)

val respawn_due : t -> now:float -> draining:bool -> unit

val next_timer : t -> float
(** Earliest pending deadline (watchdog or respawn) as an absolute
    time; [infinity] when idle. *)

val shutdown : t -> grace:float -> unit
(** Drain: close every worker pipe (their EOF signal), wait up to
    [grace] seconds, then SIGKILL stragglers.  Blocks. *)

val stats_json : t -> Arde.Json.t
