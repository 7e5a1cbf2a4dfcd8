type t = Event.t -> unit

(* A single physical closure: the machine (and [tee]) compare against it
   with [==], so it must never be re-created. *)
let none : t = fun _ -> ()
let is_none (o : t) = o == none
let of_fn (f : Event.t -> unit) : t = f
let emit (o : t) ev = o ev

let tee (a : t) (b : t) : t =
  if a == none then b
  else if b == none then a
  else
    fun ev ->
      a ev;
      b ev
