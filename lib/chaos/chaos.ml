(* Deterministic perturbation of detector runs.  Everything here flows
   from a single PRNG seed so a failing chaos case replays exactly. *)

module Machine = Arde_runtime.Machine
module Sched = Arde_runtime.Sched
module Driver = Arde_detect.Driver
module Input = Arde_detect.Input
module Config = Arde_detect.Config
module Prng = Arde_util.Prng

type perturbation =
  | Adversarial_policy of Sched.policy
  | Spurious_wakeups
  | Fault_at of int
  | Crash_at of int
  | Starve_fuel of int
  | Shift_seeds of int

exception Chaos_crash of string

let pp_perturbation ppf = function
  | Adversarial_policy (Sched.Round_robin q) ->
      Format.fprintf ppf "policy rr:%d" q
  | Adversarial_policy Sched.Uniform -> Format.pp_print_string ppf "policy uniform"
  | Adversarial_policy (Sched.Chunked n) -> Format.fprintf ppf "policy chunked:%d" n
  | Spurious_wakeups -> Format.pp_print_string ppf "spurious wakeups"
  | Fault_at n -> Format.fprintf ppf "machine fault at event %d" n
  | Crash_at n -> Format.fprintf ppf "internal crash at event %d" n
  | Starve_fuel f -> Format.fprintf ppf "fuel starved to %d" f
  | Shift_seeds k -> Format.fprintf ppf "seeds shifted by %d" k

let chaos_loc n =
  { Arde_tir.Types.lfunc = "<chaos>"; lblk = "inject"; lidx = n }

(* Per-seed observer that blows up at the [n]th event it sees. *)
let at_event n blow =
  fun ~seed:_ ->
    let count = ref 0 in
    fun _ev ->
      incr count;
      if !count = n then blow ()

module Options = Arde_detect.Options

let apply (options : Options.t) = function
  | Adversarial_policy policy -> Options.with_policy policy options
  | Spurious_wakeups -> Options.with_spurious_wakeups true options
  | Starve_fuel fuel -> Options.with_fuel fuel options
  | Shift_seeds k ->
      Options.with_seeds (List.map (( + ) k) options.Options.seeds) options
  | Fault_at n ->
      Options.with_inject
        (Some
           (at_event n (fun () ->
                raise (Machine.Fault_exn (chaos_loc n, "chaos: injected fault")))))
        options
  | Crash_at n ->
      Options.with_inject
        (Some
           (at_event n (fun () ->
                raise (Chaos_crash "chaos: injected internal crash"))))
        options

let policies =
  [|
    Sched.Round_robin 1;
    Sched.Round_robin 13;
    Sched.Uniform;
    Sched.Chunked 1;
    Sched.Chunked 64;
  |]

let gen rng =
  match Prng.int rng 6 with
  | 0 -> Adversarial_policy (Prng.pick rng policies)
  | 1 -> Spurious_wakeups
  | 2 -> Fault_at (1 + Prng.int rng 500)
  | 3 -> Crash_at (1 + Prng.int rng 500)
  | 4 -> Starve_fuel (Prng.int rng 3_000)
  | _ -> Shift_seeds (1 + Prng.int rng 1_000)

type report = {
  ch_runs : int;
  ch_healthy : int;
  ch_degraded : int;
  ch_failed : int;
  ch_escaped : (perturbation * string) list;
}

let run_one ?(options = Options.default) mode program p =
  match
    Driver.run
      ~ctx:(Driver.ctx ~options:(apply options p) ())
      ~mode (Input.Program program)
  with
  | result -> Ok result
  | exception e -> Error (Printexc.to_string e)

let storm ?(options = Options.default) ?(runs = 50) ~seed mode program =
  let rng = Prng.create seed in
  let healthy = ref 0
  and degraded = ref 0
  and failed = ref 0
  and escaped = ref [] in
  for _ = 1 to runs do
    let p = gen rng in
    match run_one ~options mode program p with
    | Ok r -> (
        match r.Driver.health.Driver.h_verdict with
        | Driver.Healthy -> incr healthy
        | Driver.Degraded -> incr degraded
        | Driver.Failed -> incr failed)
    | Error msg -> escaped := (p, msg) :: !escaped
  done;
  {
    ch_runs = runs;
    ch_healthy = !healthy;
    ch_degraded = !degraded;
    ch_failed = !failed;
    ch_escaped = List.rev !escaped;
  }

let report_to_json r =
  let module J = Arde_util.Json in
  J.Obj
    [
      ("runs", J.Int r.ch_runs);
      ("healthy", J.Int r.ch_healthy);
      ("degraded", J.Int r.ch_degraded);
      ("failed", J.Int r.ch_failed);
      ( "escaped",
        J.List
          (List.map
             (fun (p, msg) ->
               J.Obj
                 [
                   ( "perturbation",
                     J.String (Format.asprintf "%a" pp_perturbation p) );
                   ("error", J.String msg);
                 ])
             r.ch_escaped) );
    ]

(* ------------------------------------------------------------------ *)
(* Serve-path fault plans                                             *)

module Serve = struct
  type fault =
    | Kill_self
    | Wedge
    | Torn_frame
    | Slow_frame
    | Spool_enospc

  let fault_name = function
    | Kill_self -> "kill"
    | Wedge -> "wedge"
    | Torn_frame -> "torn"
    | Slow_frame -> "slow"
    | Spool_enospc -> "spool"

  let fault_of_name = function
    | "kill" -> Some Kill_self
    | "wedge" -> Some Wedge
    | "torn" -> Some Torn_frame
    | "slow" -> Some Slow_frame
    | "spool" -> Some Spool_enospc
    | _ -> None

  type plan = (fault * int) list

  let empty : plan = []

  let to_string plan =
    String.concat ","
      (List.map (fun (f, k) -> Printf.sprintf "%s:%d" (fault_name f) k) plan)

  let parse s =
    if String.trim s = "" then Ok empty
    else
      let entries = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | e :: tl -> (
            match String.index_opt e ':' with
            | None ->
                Error
                  (Printf.sprintf
                     "chaos plan entry %S is not of the form FAULT:K" e)
            | Some i -> (
                let name = String.trim (String.sub e 0 i) in
                let period =
                  String.trim (String.sub e (i + 1) (String.length e - i - 1))
                in
                match (fault_of_name name, int_of_string_opt period) with
                | None, _ ->
                    Error
                      (Printf.sprintf
                         "unknown chaos fault %S (use kill, wedge, torn, \
                          slow or spool)"
                         name)
                | Some f, Some k when k > 0 -> go ((f, k) :: acc) tl
                | Some _, _ ->
                    Error
                      (Printf.sprintf
                         "chaos fault %S needs a positive period, got %S"
                         name period)))
      in
      go [] entries

  let fires plan ~count =
    List.filter_map
      (fun (f, k) -> if count > 0 && count mod k = 0 then Some f else None)
      plan
end

let pp_report ppf r =
  Format.fprintf ppf
    "%d perturbed runs: %d healthy, %d degraded, %d failed, %d escaped \
     exception%s"
    r.ch_runs r.ch_healthy r.ch_degraded r.ch_failed
    (List.length r.ch_escaped)
    (if List.length r.ch_escaped = 1 then "" else "s");
  List.iter
    (fun (p, msg) ->
      Format.fprintf ppf "@\n  ESCAPED under %a: %s" pp_perturbation p msg)
    r.ch_escaped
