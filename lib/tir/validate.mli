(** Static well-formedness checks for TIR programs.

    [check] verifies, per function: unique block labels, branch targets
    resolve, called functions exist with matching arity, every used global
    is declared, the entry function exists and takes no parameters,
    indirect-call table entries resolve, and every register read has a
    potential definition (parameter or prior assignment anywhere in the
    function — a cheap over-approximation, full definite-assignment is the
    interpreter's job). *)

type error = { where : string; what : string }

type valid = private Types.program
(** A program that passed {!validate}.  Whatever takes a [valid] (the
    machine's compiler, the analysis cache) relies on the checks above
    and does not run them again; [(v :> Types.program)] reads it. *)

val validate : Types.program -> (valid, error list) result

val validate_exn : Types.program -> valid
(** @raise Invalid_argument ["Tir.Validate: "] followed by the rendered
    errors, joined by ["; "]. *)

val of_text : string -> (valid, string) result
(** Parse ({!Parse.program}) and {!validate} a program text.  [Error] is
    the parse error, or every validation error, rendered and joined by
    ["; "]. *)

val check : Types.program -> (unit, error list) result
(** {!validate}, keeping only the verdict. *)

val check_exn : Types.program -> unit
(** {!validate_exn}, keeping only the verdict. *)

val runs : unit -> int
(** Validations run by this process so far, {!check} and {!validate}
    alike.  Tests read it to pin that a cold detection validates each
    program once and each lowering once. *)

val error_to_string : error -> string
