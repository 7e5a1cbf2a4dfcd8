(** Minimal ASCII table rendering for the experiment harness.

    Every table and figure of the paper is regenerated as text; this module
    keeps the formatting in one place so all reproductions look alike. *)

type align = Left | Right | Center

type t
(** A table under construction: a header row plus data rows. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table.  [aligns] defaults to [Left] for the
    first column and [Right] for the rest, which fits "name, numbers..."
    rows. *)

val add_row : t -> string list -> unit
(** Append a data row.  Rows shorter than the header are padded with empty
    cells; longer rows raise.

    @raise Invalid_argument if the row has more cells than the header. *)

val add_sep : t -> unit
(** Append a horizontal separator line. *)

val render : t -> string
(** Render with box-drawing ASCII ([+--+] style), ending in a newline. *)

val cell_float : float -> string
(** Format a float the way the paper prints racy contexts: integers are
    printed bare, otherwise one decimal place (e.g. ["153.4"]). *)
