(** Race warnings and racy-context accounting.

    The paper's PARSEC metric is "racy contexts": distinct program contexts
    a warning is issued for, capped at 1000 per run.  We define a context
    as the unordered pair of code locations of the two conflicting accesses
    together with the global base they touch — stable across seeds, which
    is what lets multi-seed averages mirror the paper's fractional
    values. *)

open Arde_tir.Types

type race = {
  r_base : string;
  r_idx : int;
  r_first_tid : int;
  r_first_loc : loc;
  r_first_write : bool;
  r_second_tid : int;
  r_second_loc : loc;
  r_second_write : bool;
  r_predicted : bool;
      (** [true] when the race was predicted from a recorded trace
          ({!Arde_predict.Sp_predict}) rather than observed by the
          engine during an execution *)
}

type t

val create : ?cap:int -> unit -> t
(** [cap] bounds the number of distinct contexts recorded (default
    1000). *)

val add : t -> race -> unit

val seen : t -> base:string -> loc -> loc -> bool
(** Whether a race on [base] between the two locations (in either order)
    has a representative already, so {!add} would ignore it.  Asks
    without allocating: a detector checks it before building a race. *)

val races : t -> race list
(** One representative per distinct context, in first-seen order. *)

val n_contexts : t -> int
val capped : t -> bool
val racy_bases : t -> string list
(** Sorted, deduplicated bases appearing in any warning. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src]'s representatives into [dst]. *)

val pp : Format.formatter -> t -> unit
val pp_race : Format.formatter -> race -> unit

(** {1 Stable serialized form}

    The JSON shape is the report's wire contract: CI and the bench
    harness consume it instead of scraping the pretty-printer.  Field
    order is fixed, so equal reports serialize byte-identically. *)

val loc_to_json : loc -> Arde_util.Json.t
val race_to_json : race -> Arde_util.Json.t
val race_of_json : Arde_util.Json.t -> (race, string) result

val to_json : t -> Arde_util.Json.t
(** Cap, capped flag, and every representative race in first-seen
    order. *)

val of_json : Arde_util.Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json t)] reconstructs a report
    with the same races, contexts, cap and capped flag. *)
