let cap = 1 lsl 20

type 'a slot = {
  spare : 'a option Atomic.t Domain.DLS.key;
  footprint : 'a -> int;
  reset : 'a -> unit;
}

let slot ~footprint ~reset =
  { spare = Domain.DLS.new_key (fun () -> Atomic.make None); footprint; reset }

let take s fresh =
  match Atomic.exchange (Domain.DLS.get s.spare) None with
  | Some ws -> ws
  | None -> fresh ()

let give_back s ws =
  if s.footprint ws <= cap then begin
    s.reset ws;
    Atomic.set (Domain.DLS.get s.spare) (Some ws)
  end

let retained s =
  match Atomic.get (Domain.DLS.get s.spare) with
  | Some ws -> s.footprint ws
  | None -> 0

let grow_to a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end
