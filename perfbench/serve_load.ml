(* The real [arde serve] daemon and a closed-loop load generator on the
   JSON wire.  Each connection has one caller thread that sends its
   next request only after the previous reply arrived. *)

open Common
module C = Arde_server.Client
module P = Arde_server.Protocol
module J = Arde.Json

(* Scratch space for sockets and spools, inside the checkout
   (kept short: Unix socket paths are limited to ~100 bytes). *)
let work_root = ".perfbench_work"

let cli_binary () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "arde_cli.exe")

type daemon = {
  pid : int;
  dir : string;
  endpoint : C.endpoint;
  mutable exited : bool;
}

let live : daemon list ref = ref []

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let started = ref 0

let connect d =
  match C.connect ~endpoint:d.endpoint () with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e)

(* Spawn [arde serve --workers 1 --jobs 1] on a fresh socket, and
   return once it answers [ping].  The bundle store is off: with it on,
   every request of the 480-input mix (more than the worker's 128
   prepared-cache entries) reads and touches a file on disk, and disk
   latency on a shared host made p50 vary by 70% between runs of the
   same code (20% without). *)
let start () =
  incr started;
  let dir =
    Printf.sprintf "%s/%d-%d" work_root (Unix.getpid ()) !started
  in
  rm_rf dir;
  mkdir_p dir;
  let sock = dir ^ "/s.sock" in
  let bin = cli_binary () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (dir ^ "/serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Unix.create_process bin
      [| bin; "serve"; "--socket"; sock; "--workers"; "1"; "--jobs"; "1";
         "--no-store"; "--spool"; dir ^ "/spool"; "--quiet" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let d = { pid; dir; endpoint = C.Unix_socket sock; exited = false } in
  live := d :: !live;
  let deadline = now () +. 60. in
  let rec await () =
    let answered =
      match C.connect ~endpoint:d.endpoint () with
      | Error _ -> false
      | Ok c ->
          let ok = match C.ping c with Ok _ -> true | Error _ -> false in
          C.close c;
          ok
    in
    if not answered then
      if now () > deadline then failwith "serve: daemon never answered ping"
      else begin
        Thread.delay 0.02;
        await ()
      end
  in
  await ();
  d

let stats d =
  let c = connect d in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      match C.stats c with
      | Ok resp -> (
          match J.member "stats" resp with
          | Some s -> s
          | None -> failwith "stats: malformed response")
      | Error e -> failwith ("stats: " ^ e))

let path keys j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) keys

(* The single worker's pid, from [stats]. *)
let worker_pid d =
  match
    Option.bind (path [ "supervision"; "workers" ] (stats d)) J.to_list
  with
  | Some (w :: _) -> Option.bind (J.member "pid" w) J.to_int
  | _ -> None

let queue_depth d =
  Option.bind (path [ "queue"; "depth" ] (stats d)) J.to_int

let rec waitpid_eintr pid =
  try Unix.waitpid [] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

let process_gone pid =
  (not (Sys.file_exists (Printf.sprintf "/proc/%d" pid)))
  ||
  match proc_status_kb ~pid:(string_of_int pid) "VmRSS" with
  | None -> true (* a zombie has no memory lines *)
  | Some _ -> false

(* SIGTERM drain; [true] iff the daemon exited 0 and took its worker
   with it. *)
let stop ?worker d =
  if d.exited then true
  else begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let _, status = waitpid_eintr d.pid in
    d.exited <- true;
    live := List.filter (fun d' -> d' != d) !live;
    let clean = status = Unix.WEXITED 0 in
    if not clean then fail "serve: daemon did not exit 0 after SIGTERM";
    let worker_gone =
      match worker with
      | None -> true
      | Some w ->
          let deadline = now () +. 10. in
          let rec wait () =
            if process_gone w then true
            else if now () > deadline then begin
              (try Unix.kill w Sys.sigkill with Unix.Unix_error _ -> ());
              fail "serve: worker %d outlived the daemon" w;
              false
            end
            else begin
              Thread.delay 0.01;
              wait ()
            end
          in
          wait ()
    in
    rm_rf d.dir;
    clean && worker_gone
  end

(* Last resort on any exit path: no daemon outlives the benchmark. *)
let kill_all () =
  List.iter
    (fun d ->
      if not d.exited then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (waitpid_eintr d.pid) with Unix.Unix_error _ -> ());
        d.exited <- true;
        rm_rf d.dir
      end)
    !live;
  live := [];
  (try Unix.rmdir work_root with Unix.Unix_error _ -> ())

type reply = {
  r_response : (J.t, string) result;
  r_ms : float;  (** send to reply, as the caller saw it *)
}

(* One closed-loop pass over [ops] with one caller per connection;
   replies land at their op's index.  [poll], if given, runs on the
   calling thread every 5 ms until the callers finish.  Returns the
   replies and the round's wall time in ms. *)
let round ?poll conns (ops : op array) =
  let n = Array.length ops in
  let replies = Array.make n { r_response = Error "not sent"; r_ms = 0. } in
  let next = Atomic.make 0 in
  let caller c () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let op = ops.(i) in
        let t0 = now () in
        let resp =
          try
            C.run c ~id:(J.Int i) ~program:op.text ~mode:op.mode
              ~options:op.options ()
          with e -> Error (Printexc.to_string e)
        in
        replies.(i) <- { r_response = resp; r_ms = (now () -. t0) *. 1000. };
        loop ()
      end
    in
    loop ()
  in
  let running = Atomic.make (List.length conns) in
  let caller c () = Fun.protect ~finally:(fun () -> Atomic.decr running) (caller c) in
  let t0 = now () in
  let threads = List.map (fun c -> Thread.create (caller c) ()) conns in
  Option.iter
    (fun poll ->
      while Atomic.get running > 0 do
        poll ();
        Thread.delay 0.005
      done)
    poll;
  List.iter Thread.join threads;
  (replies, (now () -. t0) *. 1000.)

(* The result object of a successful reply; refusals and transport
   errors come back as [Error]. *)
let result_of reply =
  match reply.r_response with
  | Error e -> Error ("transport: " ^ e)
  | Ok resp when not (P.response_ok resp) ->
      Error
        (match P.response_error resp with
        | Some (code, msg) -> code ^ ": " ^ msg
        | None -> "malformed error response")
  | Ok resp -> (
      match J.member "result" resp with
      | Some r -> Ok r
      | None -> Error "response without result")
