(** The compact binary trace format — record cheap, analyze later.

    A recorded trace is the detector's input decoupled from execution:
    the machine runs once with a {!sink} attached (near the cost of the
    quiet fast path), and the expensive analysis replays the byte stream
    through an engine any number of times, on any host, without
    re-running the program (Ronsse & De Bosschere's record/replay split).

    {2 Wire layout}

    All integers are LEB128 varints over the int's 63-bit pattern
    (at most 9 bytes); [signed] fields are zigzag-folded first so small
    negatives stay short.  Strings are length-prefixed bytes.

    {v
    file    := magic "ARDETRC\x01" · varint version
               header · section* · 0xEE · EOF
    header  := str digest_hex · str mode_id · str options_json
               · str source · str program_text
    section := 0xA5 · varint seed · u8 kind
               kind 0 (recorded):  varint n_events · varint events_len
                                   · events_len bytes · varint fnv_hash
                                   · trailer
               kind 1 (cancelled): nothing further
    trailer := outcome · varint steps
               · varint n · (loc · str msg)^n     (check failures)
    v}

    Event bytes are self-contained per section (sections are recorded by
    parallel seeds and decode independently).  An event is a tag byte
    followed by its fields.  Two interning schemes keep it compact and
    the encoder allocation-free:

    - {b Strings} (function names, block labels, sync bases) are
      interned on first occurrence within the section: a reference is
      [varint 0] followed by the length-prefixed definition the first
      time, [varint k] for table entry [k-1] afterwards.
    - {b Read/write bases} ride the machine's dense base-id vocabulary:
      [varint (base_id+1)], with the base string defined inline
      (length-prefixed) at the id's first occurrence.  Streams meet the
      access contract of {!Event} (ids in [\[0, 2^20)], one id per base,
      indices non-negative), so there is no escape for anything else:
      the encoder raises [Invalid_argument] on an id out of range and
      {!decode_events} refuses a read or write that breaks the contract
      as [Corrupt].

    Source locations are not interned as records: a loc is two string
    references plus a signed index.  That choice is what keeps the
    recording fast path cheap — a direct-mapped cache in front of the
    intern table resolves hot strings with one short comparison, and no
    loc record is ever hashed.  A hot read in a hot loop costs
    ~8 bytes.

    The per-section FNV hash is verified by {!read_sections}, so a
    corrupted body is a structured {!error}, never a plausible decode.
    Everything here returns structured errors on hostile input —
    truncation, overlong varints, interning references out of range,
    oversized declared lengths — because traces cross the serve socket.

    The typed view (parsed mode, options, program) lives in
    [Arde.Recorded]; this module knows only bytes, events and outcomes. *)

open Arde_tir.Types

(** {1 Errors} *)

type error =
  | Bad_magic  (** not a trace file *)
  | Bad_version of int  (** a future (or corrupt) format version *)
  | Truncated of string  (** input ended while reading the named piece *)
  | Corrupt of { at : int; what : string }
      (** structurally invalid at byte offset [at] *)
  | Limit of string  (** a declared size exceeds this reader's bounds *)

val error_to_string : error -> string
val format_version : int

(** {1 Header} *)

type header = {
  h_digest : string;  (** hex digest of the canonical program text *)
  h_mode : string;  (** detector mode, [Config.mode_id] wire form *)
  h_options : string;  (** minified [Options.to_json] document *)
  h_source : string;  (** free-form label (workload name); may be [""] *)
  h_program : string;  (** the program, canonical TIR text *)
}

(** {1 Outcomes}

    The machine-side half of a seed's run — what replay cannot recompute
    without executing.  Mirrors [Machine.outcome] plus the driver's
    crashed/cancelled seed outcomes, but structurally, so this module
    stays independent of the machine. *)

type livelock_site = {
  w_tid : int;
  w_loop : int;
  w_loc : loc;
  w_bases : string list;
}

type outcome =
  | Finished
  | Deadlock of int list
  | Fuel_exhausted
  | Livelock of livelock_site list
  | Fault of { ftid : int; floc : loc; msg : string }
  | Crashed of loc option * string
      (** the detector crashed on this seed; events are the prefix the
          engine saw before dying *)
  | Cancelled  (** the seed never ran (deadline or drain) *)

type trailer = {
  t_outcome : outcome;
  t_steps : int;
  t_check_failures : (loc * string) list;
}

(** {1 Recording} *)

type sink
(** A per-seed recording encoder: preallocated growable buffer plus the
    section's interning tables.  Appending an event writes tag and
    varints in place — no per-event allocation beyond the (rare) first
    occurrence of a string or base id. *)

val sink : ?capacity:int -> unit -> sink
(** [capacity] is the initial buffer size in bytes (default 8 KiB); the
    buffer doubles when full. *)

val sink_observer : sink -> Observer.t
(** The recording observer: feed it to the machine (tee'd ahead of the
    engine when recording a live detection run). *)

(** {1 Sections and assembly} *)

type section = {
  s_seed : int;
  s_n_events : int;
  s_events : string;  (** encoded event bytes; [""] for [Cancelled] *)
  s_hash : int;  (** FNV-1a-style hash of [s_events] *)
  s_trailer : trailer;
}

val section_of_sink : sink -> seed:int -> trailer -> section
(** Seal the sink into a section (copies the buffer; the sink should be
    discarded). *)

val cancelled_section : seed:int -> section

val assemble : header -> section list -> string
(** The complete binary trace, sections in the given (seed) order. *)

(** {1 Reading} *)

val read_header : string -> (header, error) result
(** Decode the header only — [arde trace info]'s cheap path; the rest of
    the input is not validated. *)

type summary = {
  y_seed : int;
  y_n_events : int;
  y_bytes : int;  (** encoded event bytes *)
  y_outcome : outcome;
  y_steps : int;
}

val read_info : string -> (header * summary list, error) result
(** Header plus per-seed summaries, skipping over every event body
    (validates framing, not content). *)

val read_sections : string -> (header * section list, error) result
(** Full structural validation including the per-section event hash;
    event bodies stay encoded (decode per section as needed). *)

val decode_events :
  ?extent:(int -> int) -> section -> (Event.t -> unit) -> (unit, error) result
(** Stream the section's events in recorded order.  The callback must
    not raise (a replay engine never does); structural errors stop the
    stream and are returned, and so does a read or write that breaks
    the access contract of {!Event} ([Corrupt]): every event handed to
    the callback meets it.  [extent base_id], when given, bounds the
    indices of a base id's accesses: an index at or beyond it is
    [Corrupt] too, so a recording replayed against its program cannot
    make a consumer size a row far past the program's memory. *)

val encode_events : Event.t list -> string * int
(** [events → (bytes, hash)] through a fresh sink — the codec-test and
    bench path; recording proper uses {!sink_observer}.
    @raise Invalid_argument on a base id outside [\[0, 2^20)]. *)
