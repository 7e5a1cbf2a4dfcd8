(** SpPredict — sync-preserving race prediction over one seed's event
    stream (Mathur, Pavlogiannis, Viswanathan: "Optimal Prediction of
    Synchronization-Preserving Races").

    The input is the event stream of a single seed, observed live as
    the machine emits it or decoded from a recorded section; the output
    is the set of access pairs that race in {e some} correct reordering
    of that trace which keeps every synchronization operation and every
    read's observed writer — without re-executing the program.  The
    pipeline:

    + a single {b weak happens-before} pass over the stream computes
      per-thread sparse-epoch clocks ({!Arde_vclock.Vector_clock.m})
      closed under program order, observation (writer → read, plain and
      atomic — the edges the inferred ad-hoc sync lives on), spawn/join
      and the conservative library-sync joins, but {e not} lock
      release → acquire.  Conflicting same-cell plain accesses by
      different threads that this order leaves unordered become
      candidates — any pair it orders is unpredictable by construction,
      which prunes almost everything.  The same pass feeds the
      {!Sp_trace} indexer, sharing its dense cell table, so no event is
      buffered;
    + candidates are grouped by report context (base + unordered loc
      pair, the same key {!Report} dedups on) with a per-context
      attempt budget, nearest pairs first;
    + each attempted pair runs the {!Sp_trace.closure} fixpoint; the
      first [Concurrent] verdict per context becomes a predicted race.

    Prediction is {b sound} (every predicted pair has a witness
    reordering) and deliberately {b not complete}: the conservative
    sync requirements and the closure budget may miss predictable
    races.  The differential suite measures the gap against the
    16-seed sweep. *)

open Arde_tir.Types

type config = {
  suppress : string -> bool;
      (** bases the detector treats as synchronization (spin condition
          variables found by the instrumentation phase); accesses to
          them are never race candidates, matching the engine *)
  max_pairs_per_context : int;  (** closure attempts per context *)
  max_contexts : int;  (** distinct candidate contexts considered *)
  closure_budget : int;  (** events one closure run may process *)
}

val default_config : config
(** No suppression, 4 pairs per context, 4096 contexts, 200k-step
    closure budget. *)

type race = {
  p_base : string;
  p_idx : int;
  p_first_tid : int;
  p_first_loc : loc;
  p_first_write : bool;
  p_second_tid : int;
  p_second_loc : loc;
  p_second_write : bool;
}
(** Mirrors [Report.race]'s shape; [first] is the earlier access in
    the recorded trace. *)

type stats = {
  s_events : int;
  s_candidates : int;  (** unordered conflicting pairs collected *)
  s_contexts : int;  (** distinct contexts among them *)
  s_predicted : int;  (** contexts with a surviving witness *)
  s_closure_runs : int;
  s_closure_steps : int;  (** total events processed by closures *)
  s_budget_hits : int;  (** closures stopped by the step budget *)
  s_dropped_contexts : int;  (** contexts beyond [max_contexts] *)
}

(** {1 Streaming} *)

type t
(** One seed's predictor: the scan's clocks and candidates plus the
    closure index, grown event by event.

    What a predictor grows with its stream — the index's per-event and
    per-thread arrays, the cell table, the per-thread clocks, the
    closure workspace — lives in a workspace kept per domain.  {!create}
    takes the domain's workspace (or builds one if the domain has none
    to spare, say while another predictor holds it) and a successful
    {!finish} resets it in place and hands it back, so a domain's
    predicted seeds after the first allocate next to nothing.  A
    predictor that is poisoned, or dropped unfinished, keeps its
    workspace. *)

val create : ?config:config -> unit -> t

val observe : t -> Arde_runtime.Observer.t
(** Feed the next event in trace order.  Never raises: the first
    exception (an event the scan cannot place, say a thread id out of
    range) poisons the predictor, and later events are ignored.  This
    is what lets it sit in front of a seed's engine. *)

val finish : t -> race list * stats
(** Run the closures and report.  Races come in deterministic order:
    contexts in first-candidate (trace) order, one representative pair
    each.  Re-raises the exception that poisoned the predictor, if
    any.  A finished predictor ignores further events, and finishing it
    again raises [Invalid_argument]. *)

val predict :
  ?config:config -> Arde_runtime.Event.t array -> race list * stats
(** [finish] over a fresh predictor fed the whole array. *)

(** {1 Retention} *)

val retention_cap : int
(** [2{^20}] slots: a workspace whose {!Sp_trace.footprint} grew past
    it is dropped at {!finish} instead of kept, so a long-lived process
    retains at most this much per domain. *)

val retained : unit -> int
(** The footprint of the workspace the calling domain keeps for its
    next predictor; [0] when it keeps none. *)
