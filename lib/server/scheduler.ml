(* Per-worker affinity queues with global admission control.
   See scheduler.mli. *)

type 'job t = {
  queues : 'job Queue.t array;
  busy : bool array;
  max_pending : int;
  mutable queued : int;
  mutable drain : bool;
  mutable refused : int;
  mutable cancelled : int;
}

let create ~workers ~max_pending =
  let workers = max 1 workers in
  {
    queues = Array.init workers (fun _ -> Queue.create ());
    busy = Array.make workers false;
    max_pending = max 1 max_pending;
    queued = 0;
    drain = false;
    refused = 0;
    cancelled = 0;
  }

type admission = Accepted | Overloaded | Draining

let submit t ~slot job =
  if t.drain then Draining
  else if t.queued >= t.max_pending then begin
    (* The refused job never held a slot; count it and leave capacity
       untouched so the very next submission can be admitted. *)
    t.refused <- t.refused + 1;
    Overloaded
  end
  else begin
    Queue.add job t.queues.(slot);
    t.queued <- t.queued + 1;
    Accepted
  end

let enqueue t ~slot job =
  (* Re-routing path: the job already passed admission (it held a queue
     slot on a worker that died), so no admission check and no bound —
     capacity was reserved when it was first accepted. *)
  Queue.add job t.queues.(slot);
  t.queued <- t.queued + 1

let take t ~slot =
  if t.busy.(slot) || Queue.is_empty t.queues.(slot) then None
  else begin
    let job = Queue.pop t.queues.(slot) in
    t.queued <- t.queued - 1;
    t.busy.(slot) <- true;
    Some job
  end

let finish t ~slot = t.busy.(slot) <- false
let busy t ~slot = t.busy.(slot)

let drain_slot t ~slot =
  let q = t.queues.(slot) in
  let jobs = List.of_seq (Queue.to_seq q) in
  t.queued <- t.queued - Queue.length q;
  Queue.clear q;
  jobs

let remove t ~pred =
  let removed = ref [] in
  Array.iter
    (fun q ->
      let keep = Queue.create () in
      Queue.iter
        (fun job -> if pred job then removed := job :: !removed else Queue.add job keep)
        q;
      Queue.clear q;
      Queue.transfer keep q)
    t.queues;
  let removed = List.rev !removed in
  let n = List.length removed in
  t.queued <- t.queued - n;
  t.cancelled <- t.cancelled + n;
  removed

let begin_drain t = t.drain <- true
let draining t = t.drain
let depth t = t.queued
let in_flight t = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.busy
let idle t = t.queued = 0 && in_flight t = 0
let refused t = t.refused
let cancelled t = t.cancelled
