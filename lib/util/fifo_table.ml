type ('k, 'v) t = {
  bound : int;
  tbl : ('k, 'v) Hashtbl.t;
  order : 'k Queue.t; (* every key in [tbl], oldest first *)
}

let create bound =
  if bound < 1 then invalid_arg "Fifo_table.create: bound must be positive";
  { bound; tbl = Hashtbl.create (min bound 64); order = Queue.create () }

let find_opt t k = Hashtbl.find_opt t.tbl k
let mem t k = Hashtbl.mem t.tbl k
let length t = Hashtbl.length t.tbl

let add t k v =
  if not (Hashtbl.mem t.tbl k) then begin
    if Hashtbl.length t.tbl >= t.bound then
      Hashtbl.remove t.tbl (Queue.take t.order);
    Hashtbl.add t.tbl k v;
    Queue.push k t.order
  end

let clear t =
  Hashtbl.reset t.tbl;
  Queue.clear t.order
