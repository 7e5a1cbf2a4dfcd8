(* Shared plumbing: clocks, order statistics, process memory, the
   seeded shuffle, and the workload's unit of work. *)

let now () = Unix.gettimeofday ()

(* Wall time of [f] in milliseconds, with its result. *)
let time_ms f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Percentile with linear interpolation between order statistics
   (Hyndman-Fan type 7, numpy's default), [q] in [0, 1]. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor h) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A field of /proc/PID/status in kB ("VmHWM", "VmRSS"). *)
let proc_status_kb ?(pid = "self") field =
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let prefix = field ^ ":" in
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.starts_with ~prefix line then
                  Scanf.sscanf_opt
                    (String.sub line (String.length prefix)
                       (String.length line - String.length prefix))
                    " %d" Fun.id
                else scan ()
          in
          scan ())

(* Fixed CPU work owned by the benchmark: a host-speed reference
   recorded next to every run (a diagnostic, never a metric), so two
   sets of runs that disagree can be traced to the host. *)
let cpu_loop_ms () =
  let _, ms =
    time_ms (fun () ->
        let x = ref 0x2545F491 in
        for i = 1 to 40_000_000 do
          x := (!x * 0x5851F42D + i) land 0x3FFFFFFFFFFF
        done;
        Sys.opaque_identity !x)
  in
  ms

(* The same for the memory system: a dependent random walk over 32 MiB,
   far beyond the last-level cache.  Detection work is memory-bound, so
   a neighbour thrashing the shared cache shows here and not in
   [cpu_loop_ms]. *)
let mem_loop_ms () =
  let n = 1 lsl 22 in
  let next = Array.init n (fun i -> (i * 2654435761 + 12345) land (n - 1)) in
  let _, ms =
    time_ms (fun () ->
        let i = ref 0 in
        for _ = 1 to 2_000_000 do
          i := Array.unsafe_get next !i
        done;
        Sys.opaque_identity !i)
  in
  ms

(* Fisher-Yates over a copy, driven by the workload seed. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One input of a workload: a program as TIR text, the detector mode
   and the run knobs. *)
type op = {
  name : string;
  text : string;
  mode : Arde.Config.mode;
  options : Arde.Options.t;
}

let op_name program mode = program ^ " " ^ Arde.Config.mode_id mode

let result_string r = Arde.Json.to_string (Arde.Driver.result_to_json r)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
