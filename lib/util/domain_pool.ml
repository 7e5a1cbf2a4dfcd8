let default_jobs () = Domain.recommended_domain_count ()

(* Nested parallelism guard: a worker that itself calls [map] (e.g. a
   harness running parallel detections whose driver also fans out) runs
   the inner map sequentially instead of multiplying domains. *)
let inside_pool = Domain.DLS.new_key (fun () -> false)

(* ------------------------------------------------------------------ *)
(* The resident pool: domains spawned once and reused across batches.
   [map] spawns and joins per call, which is fine for one-shot runs but
   wrong for a server that fans out per request — the resident form
   keeps [width - 1] workers parked on a condition variable and hands
   them one batch at a time.  The caller of [submit] is always the
   batch's first worker, so a 1-wide pool degrades to [List.map] and a
   worker can never deadlock waiting for itself. *)

type pool = {
  width : int;
  m : Mutex.t;
  work_cv : Condition.t; (* workers: "a new batch is up" *)
  done_cv : Condition.t; (* submitter: "the batch completed" *)
  mutable batch : (unit -> unit) option;
  mutable batch_id : int;
  mutable stop : bool;
  submit_m : Mutex.t; (* one batch in flight at a time *)
  mutable domains : unit Domain.t list;
}

let create ~jobs =
  let width = max 1 jobs in
  let pool =
    {
      width;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      batch = None;
      batch_id = 0;
      stop = false;
      submit_m = Mutex.create ();
      domains = [];
    }
  in
  let worker () =
    Domain.DLS.set inside_pool true;
    let rec loop last_id =
      Mutex.lock pool.m;
      while (not pool.stop) && pool.batch_id = last_id do
        Condition.wait pool.work_cv pool.m
      done;
      if pool.stop then Mutex.unlock pool.m
      else begin
        let id = pool.batch_id and body = pool.batch in
        Mutex.unlock pool.m;
        (match body with Some f -> f () | None -> ());
        loop id
      end
    in
    loop 0
  in
  pool.domains <- List.init (width - 1) (fun _ -> Domain.spawn worker);
  pool

let map_pool pool f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if n <= 1 || pool.width <= 1 || pool.stop || Domain.DLS.get inside_pool then
    List.map f xs
  else begin
    Mutex.lock pool.submit_m;
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let body () =
      let rec claim () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             (match f items.(i) with
             | v -> Some (Ok v)
             | exception e -> Some (Error (e, Printexc.get_raw_backtrace ()))));
          (* the worker that finishes the last item wakes the submitter *)
          if Atomic.fetch_and_add completed 1 = n - 1 then begin
            Mutex.lock pool.m;
            Condition.broadcast pool.done_cv;
            Mutex.unlock pool.m
          end;
          claim ()
        end
      in
      claim ()
    in
    Mutex.lock pool.m;
    pool.batch <- Some body;
    pool.batch_id <- pool.batch_id + 1;
    Condition.broadcast pool.work_cv;
    Mutex.unlock pool.m;
    (* The submitting domain is the batch's first worker. *)
    Domain.DLS.set inside_pool true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set inside_pool false) body;
    Mutex.lock pool.m;
    while Atomic.get completed < n do
      Condition.wait pool.done_cv pool.m
    done;
    pool.batch <- None;
    Mutex.unlock pool.m;
    Mutex.unlock pool.submit_m;
    (* The done_cv handshake gives the happens-before edge that makes
       every [results] slot written by a worker visible here. *)
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> invalid_arg "Domain_pool.map_pool: missing result")
  end

let shutdown pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.m;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let map ~jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let jobs = min jobs n in
  if jobs <= 1 || n <= 1 || Domain.DLS.get inside_pool then List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let body () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             (match f items.(i) with
             | v -> Some (Ok v)
             | exception e -> Some (Error (e, Printexc.get_raw_backtrace ()))));
          loop ()
        end
      in
      loop ()
    in
    let worker () =
      Domain.DLS.set inside_pool true;
      body ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is the pool's first worker. *)
    Domain.DLS.set inside_pool true;
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set inside_pool false;
        List.iter Domain.join domains)
      body;
    (* Joins above give the happens-before edge that makes every
       [results] slot visible here. *)
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None ->
             (* Unreachable: every index below [n] is claimed exactly once
                and filled before its claimant exits. *)
             invalid_arg "Domain_pool.map: missing result")
  end
