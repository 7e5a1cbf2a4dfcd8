type t = { mutable evs : Event.t array; mutable len : int }

let create () = { evs = [||]; len = 0 }

let push t ev =
  if t.len = Array.length t.evs then begin
    let evs = Array.make (max 256 (2 * t.len)) ev in
    Array.blit t.evs 0 evs 0 t.len;
    t.evs <- evs
  end;
  Array.unsafe_set t.evs t.len ev;
  t.len <- t.len + 1

let events t =
  if t.len = Array.length t.evs then t.evs else Array.sub t.evs 0 t.len

let length t = t.len

let hash t =
  let h = ref 0x811c9dc5 in
  for i = 0 to t.len - 1 do
    h := (!h * 16777619) lxor Hashtbl.hash t.evs.(i)
  done;
  !h land max_int

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.len - 1 do
    Format.fprintf ppf "%a@," Event.pp t.evs.(i)
  done;
  Format.fprintf ppf "@]"
