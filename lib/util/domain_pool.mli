(** Order-preserving parallel map over an OCaml 5 domain pool.

    [map ~jobs f xs] applies [f] to every element of [xs] and returns the
    results in input order, running up to [jobs] applications
    concurrently on separate domains.  Work is handed out through a
    shared atomic counter, so domains that finish early steal the next
    pending item rather than idling.

    Determinism contract: the {e result list} depends only on [f] and
    [xs], never on [jobs] — callers that fold over it in order observe
    the same sequence whether the work ran on one domain or many.  [f]
    itself must be safe to run concurrently with other applications of
    [f] (no shared mutable state between items).

    With [jobs <= 1], a single-element list, or inside a pool worker
    already, this degrades to a plain sequential [List.map] on the
    calling domain — no domains are spawned.

    If an application of [f] raises, the exception is re-raised on the
    calling domain (the first one in input order wins); the remaining
    items may or may not have been processed. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool width to use when the
    caller expresses no preference. *)

(** {1 Resident pools}

    [map] spawns and joins domains per call — right for one-shot runs,
    wrong for a server fanning out per request.  A {!pool} spawns its
    workers once; {!map_pool} hands them one batch at a time and blocks
    until the batch completes, with the same ordering, determinism and
    exception contract as {!map}.  Concurrent {!map_pool} calls on the
    same pool are serialized (one batch in flight); a call made from
    inside a pool worker degrades to sequential [List.map], so nesting
    cannot deadlock. *)

type pool

val create : jobs:int -> pool
(** Spawn a resident pool of [max 1 jobs] workers ([jobs - 1] domains;
    the submitting domain is always the batch's first worker). *)

val map_pool : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!map} over the resident workers.  After {!shutdown} (or on a
    1-wide pool) this is plain sequential [List.map]. *)

val shutdown : pool -> unit
(** Stop and join the worker domains.  Idempotent. *)
