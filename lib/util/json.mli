(** A minimal JSON tree, printer and parser.

    Just enough for the machine-readable report surface ([Report.to_json],
    [Driver.health_to_json], the [--format json] CLI flag, the serve
    protocol and the bench artifacts) without pulling an external
    dependency.  The printer emits deterministic output — object fields
    in the order given — so serialized reports can be compared
    byte-for-byte, and [parse] accepts everything [to_string] emits
    (round trip). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Serialize.  [minify] (default [true]) drops all whitespace; otherwise
    output is indented for human readers.  Strings are escaped per RFC
    8259; floats print with enough digits to round-trip. *)

(** {1 Parsing}

    The parser also guards the server's socket boundary, so adversarial
    input must come back as a structured error rather than a crash:
    inputs longer than [max_size] are refused up front, and nesting
    beyond [max_depth] containers fails cleanly instead of overflowing
    the stack.  Both limits default to values far above anything the
    repository's own serializers emit ({!default_max_depth} /
    64 MiB). *)

type error = { at : int; reason : string }
(** A parse failure: [at] is the byte offset in the input where the
    parser gave up ([max_size] itself for over-long input, the opening
    bracket for an over-deep container). *)

val error_to_string : error -> string

val default_max_depth : int
(** 512 nested containers. *)

val parse_checked :
  ?max_depth:int -> ?max_size:int -> string -> (t, error) result
(** Parse a complete JSON document.  Numbers without [.], [e] or [E]
    become [Int]; everything else numeric becomes [Float]. *)

val parse : ?max_depth:int -> ?max_size:int -> string -> (t, string) result
(** {!parse_checked} with the error rendered by {!error_to_string}. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k], if any; [None] on
    non-objects. *)

val to_int : t -> int option
(** [Int n] (or an integral [Float]) as an int. *)

val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option
val to_float : t -> float option
(** [Float] or [Int] as a float. *)
